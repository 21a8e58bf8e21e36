package xmlrpc

import (
	"net/http"
	"strconv"
)

// Call metadata travels in HTTP headers next to IdempotencyHeader, as
// decimal strings, absent when zero (DESIGN.md §13.1, §14.3). The XML body
// carries only the method's positional parameters.
const (
	TraceParentHeader = "X-Excovery-Trace-Parent"
	FenceEpochHeader  = "X-Excovery-Fence-Epoch"
)

// Meta is what a call says about itself besides its parameters. The zero
// value is a call without metadata.
type Meta struct {
	// TraceParent is the caller's span id; the serving side parents its
	// request span under it.
	TraceParent uint64
	// FenceEpoch is the caller's registry claim epoch; a host refuses an
	// epoch older than the one it last accepted.
	FenceEpoch int64
}

func (m Meta) setHeaders(h http.Header) {
	if m.TraceParent != 0 {
		h.Set(TraceParentHeader, strconv.FormatUint(m.TraceParent, 10))
	}
	if m.FenceEpoch > 0 {
		h.Set(FenceEpochHeader, strconv.FormatInt(m.FenceEpoch, 10))
	}
}

// metaFromHeaders reads a request's metadata. Header values are outside
// input: anything but a positive decimal in range reads as absent.
func metaFromHeaders(h http.Header) Meta {
	var m Meta
	if s := h.Get(TraceParentHeader); s != "" {
		if id, err := strconv.ParseUint(s, 10, 64); err == nil {
			m.TraceParent = id
		}
	}
	if s := h.Get(FenceEpochHeader); s != "" {
		if epoch, err := strconv.ParseInt(s, 10, 64); err == nil && epoch > 0 {
			m.FenceEpoch = epoch
		}
	}
	return m
}
