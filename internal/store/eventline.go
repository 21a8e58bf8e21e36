package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"excovery/internal/eventlog"
)

// Encoding and decoding of stored event lines. A stored line is what
// encoding/json writes for an eventlog.Event; unless a string needs an
// escape or the time is not UTC it has one fixed shape:
//
//	line   = '{"Run":' int ',"Node":' str ',"Time":"' time ',"Type":' str
//	         ',"Params":' ( 'null' | params ) ',"Seq":' uint '}'
//	params = '{' [ str ':' str { ',' str ':' str } ] '}'
//	int    = [ '-' ] uint, within int's range
//
// with time, str and uint as in packetline.go and no white space.
// AppendEventLine writes every event byte for byte as json.Marshal does
// (FuzzEventLineEncode), escapes included, and leaves to json.Marshal only
// the times RFC 3339 has no 'Z' form for. scanEventLine accepts exactly the
// fixed shape and gives what json.Unmarshal gives for it; FuzzEventLine
// holds the two together. A Parameter column value is a params object
// (encodeParams), so DecodeParams scans it the same way.
//
// The json.Decoder that read event files before took a stream of values,
// not lines, so the fallback is by file: scanEvents scans a whole file
// before anything is yielded, and a file with one line of another shape —
// escapes, another key order, a hand edit — goes through that decoder from
// its first byte. What is accepted, rejected and yielded does not change.

// AppendEventLine appends the stored line of ev and its newline to dst. On
// error — a time whose year is outside 0–9999 — dst is returned unchanged.
func AppendEventLine(dst []byte, ev *eventlog.Event) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"Run":`...)
	dst = strconv.AppendInt(dst, int64(ev.Run), 10)
	dst = append(dst, `,"Node":`...)
	dst = appendJSONString(dst, ev.Node)
	dst = append(dst, `,"Time":"`...)
	t0 := len(dst)
	dst = ev.Time.AppendFormat(dst, time.RFC3339Nano)
	if dst[t0+len("2006")] != '-' || dst[len(dst)-1] != 'Z' {
		// A year outside 0–9999, which encoding/json refuses, or a zone
		// offset, for which it has checks of its own.
		b, err := json.Marshal(ev)
		if err != nil {
			return dst[:n0], err
		}
		return append(append(dst[:n0], b...), '\n'), nil
	}
	dst = append(dst, `","Type":`...)
	dst = appendJSONString(dst, ev.Type)
	if ev.Params == nil {
		dst = append(dst, `,"Params":null`...)
	} else {
		dst = append(dst, `,"Params":`...)
		dst = appendParams(dst, ev.Params)
	}
	dst = append(dst, `,"Seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	return append(dst, '}', '\n'), nil
}

// scanEvents scans a whole events file. It reports false when any
// non-blank line is not of the fixed shape.
func scanEvents(data []byte) ([]eventlog.Event, bool) {
	out := make([]eventlog.Event, 0, bytes.Count(data, []byte{'\n'})+1)
	for start := 0; start < len(data); {
		var line []byte
		if end := bytes.IndexByte(data[start:], '\n'); end < 0 {
			line = data[start:]
			start = len(data)
		} else {
			line = data[start : start+end]
			start += end + 1
		}
		// What json.Decoder skips between values, less the newline.
		line = bytes.Trim(line, " \t\r")
		if len(line) == 0 {
			continue
		}
		out = append(out, eventlog.Event{})
		if !scanEventLine(line, &out[len(out)-1]) {
			return nil, false
		}
	}
	return out, true
}

// ParseEventLines decodes a document of event lines as AppendEventLine
// writes them: a level-2 events file, or an event document on the control
// channel (noderpc). A document with a line of another shape is decoded by
// encoding/json as a whole, as an events file is.
func ParseEventLines(data []byte) ([]eventlog.Event, error) {
	if evs, ok := scanEvents(data); ok {
		return evs, nil
	}
	var out []eventlog.Event
	err := decodeEvents("event lines", data, func(ev *eventlog.Event) error {
		out = append(out, *ev)
		return nil
	})
	return out, err
}

// decodeEvents is the fallback: encoding/json's stream decoder over the
// whole file, as every event file was read before.
func decodeEvents(path string, data []byte, fn func(ev *eventlog.Event) error) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	var ev eventlog.Event
	for dec.More() {
		ev = eventlog.Event{}
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := fn(&ev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// scanEventLine parses a line of the fixed shape into ev. It reports false,
// with ev in no particular state, for every other line.
func scanEventLine(line []byte, ev *eventlog.Event) bool {
	s := lineScanner{b: line}
	if !s.lit(`{"Run":`) {
		return false
	}
	run, ok := s.int()
	if !ok || !s.lit(`,"Node":`) {
		return false
	}
	node, ok := s.str()
	if !ok || !s.lit(`,"Time":"`) {
		return false
	}
	t, ok := s.time()
	if !ok || !s.lit(`,"Type":`) {
		return false
	}
	typ, ok := s.str()
	if !ok || !s.lit(`,"Params":`) {
		return false
	}
	var params map[string]string
	if !s.lit(`null`) {
		if params, ok = s.params(); !ok {
			return false
		}
	}
	if !s.lit(`,"Seq":`) {
		return false
	}
	seq, ok := s.uint(math.MaxUint64)
	if !ok || !s.lit(`}`) || s.i != len(s.b) {
		return false
	}
	*ev = eventlog.Event{Run: run, Node: string(node), Time: t, Type: string(typ), Params: params, Seq: seq}
	return true
}

// int consumes a decimal number in JSON's form that fits an int.
func (s *lineScanner) int() (int, bool) {
	neg := s.lit(`-`)
	max := uint64(math.MaxInt)
	if neg {
		max++ // the magnitude of math.MinInt
	}
	v, ok := s.uint(max)
	if neg {
		v = -v // two's complement: int(-v) is -int(v), math.MinInt included
	}
	return int(v), ok
}

// params consumes an object of string values. Keys may come in any order
// and repeat, the last one winning, as for json.Unmarshal into a map.
func (s *lineScanner) params() (map[string]string, bool) {
	if !s.lit(`{`) {
		return nil, false
	}
	m := map[string]string{}
	if s.lit(`}`) {
		return m, true
	}
	for {
		k, ok := s.str()
		if !ok || !s.lit(`:`) {
			return nil, false
		}
		v, ok := s.str()
		if !ok {
			return nil, false
		}
		m[string(k)] = string(v)
		if s.lit(`}`) {
			return m, true
		}
		if !s.lit(`,`) {
			return nil, false
		}
	}
}
