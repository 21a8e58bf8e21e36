package xmlrpc

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"excovery/internal/failpoint"
	"excovery/internal/obs"
	"excovery/internal/seeds"
)

// encBuf pools the encoders' scratch buffers: every RPC of every run
// serializes a call and a response, and growing a fresh builder each time
// dominated the encode path's allocations. The buffer retains its grown
// capacity across documents; only the final exact-size copy escapes.
var encBuf = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// finishEnc copies the document out of the pooled buffer and returns the
// buffer to the pool.
func finishEnc(b *bytes.Buffer) []byte {
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	b.Reset()
	encBuf.Put(b)
	return out
}

// EncodeCall serializes a methodCall document.
func EncodeCall(method string, params ...any) ([]byte, error) {
	b := encBuf.Get().(*bytes.Buffer)
	b.WriteString(xml.Header)
	b.WriteString("<methodCall><methodName>")
	escapeString(b, method)
	b.WriteString("</methodName><params>")
	for _, p := range params {
		b.WriteString("<param>")
		if err := encodeValue(b, p); err != nil {
			b.Reset()
			encBuf.Put(b)
			return nil, err
		}
		b.WriteString("</param>")
	}
	b.WriteString("</params></methodCall>")
	return finishEnc(b), nil
}

// EncodeResponse serializes a successful methodResponse carrying result.
func EncodeResponse(result any) ([]byte, error) {
	b := encBuf.Get().(*bytes.Buffer)
	b.WriteString(xml.Header)
	b.WriteString("<methodResponse><params><param>")
	if err := encodeValue(b, result); err != nil {
		b.Reset()
		encBuf.Put(b)
		return nil, err
	}
	b.WriteString("</param></params></methodResponse>")
	return finishEnc(b), nil
}

// EncodeFault serializes a fault methodResponse: a struct with faultCode
// and faultString members, written as encodeValue writes that struct. The
// code is written as it is, whatever its range: a fault always encodes.
func EncodeFault(f *Fault) []byte {
	b := encBuf.Get().(*bytes.Buffer)
	b.WriteString(xml.Header)
	b.WriteString("<methodResponse><fault><value><struct><member><name>faultCode</name><value>")
	writeInt(b, int64(f.Code))
	b.WriteString("</value></member><member><name>faultString</name><value><string>")
	escapeString(b, f.String)
	b.WriteString("</string></value></member></struct></value></fault></methodResponse>")
	return finishEnc(b)
}

// The encoding/xml path: every document the one-pass scan (scan.go) does
// not read.

type xCall struct {
	XMLName xml.Name `xml:"methodCall"`
	Method  string   `xml:"methodName"`
	Params  []xValue `xml:"params>param>value"`
}

type xResponse struct {
	XMLName xml.Name `xml:"methodResponse"`
	Params  []xValue `xml:"params>param>value"`
	Fault   *xValue  `xml:"fault>value"`
}

// DecodeCall parses a methodCall document into method name and parameters.
func DecodeCall(data []byte) (method string, params []any, err error) {
	method, params, _, err = decodeCall(data)
	return method, params, err
}

// decodeCall is DecodeCall that also reports whether the document missed
// the one-pass scan and went through encoding/xml.
func decodeCall(data []byte) (method string, params []any, fallback bool, err error) {
	if method, params, ok := scanCall(data); ok {
		return method, params, false, nil
	}
	method, params, err = unmarshalCall(data)
	return method, params, true, err
}

func unmarshalCall(data []byte) (method string, params []any, err error) {
	var c xCall
	if err := xml.Unmarshal(data, &c); err != nil {
		return "", nil, fmt.Errorf("xmlrpc: parse call: %w", err)
	}
	if c.Method == "" {
		return "", nil, fmt.Errorf("xmlrpc: missing methodName")
	}
	for _, p := range c.Params {
		v, err := decodeValue(p)
		if err != nil {
			return "", nil, err
		}
		params = append(params, v)
	}
	return c.Method, params, nil
}

// DecodeResponse parses a methodResponse. A fault is returned as *Fault in
// err with a nil result.
func DecodeResponse(data []byte) (any, error) {
	v, _, err := decodeResponse(data)
	return v, err
}

// decodeResponse is DecodeResponse that also reports whether the document
// missed the one-pass scan and went through encoding/xml.
func decodeResponse(data []byte) (result any, fallback bool, err error) {
	if v, f, ok := scanResponse(data); ok {
		if f != nil {
			return nil, false, f
		}
		return v, false, nil
	}
	result, err = unmarshalResponse(data)
	return result, true, err
}

func unmarshalResponse(data []byte) (any, error) {
	var r xResponse
	if err := xml.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("xmlrpc: parse response: %w", err)
	}
	if r.Fault != nil {
		fv, err := decodeValue(*r.Fault)
		if err != nil {
			return nil, err
		}
		f, err := faultOf(fv)
		if err != nil {
			return nil, err
		}
		return nil, f
	}
	if len(r.Params) == 0 {
		return nil, fmt.Errorf("xmlrpc: empty response")
	}
	return decodeValue(r.Params[0])
}

// Handler is a registered server method. Returning an error produces a
// fault response; a *Fault error preserves its code.
type Handler func(params []any) (any, error)

// MetaHandler is a registered server method that also reads the call's
// metadata.
type MetaHandler func(meta Meta, params []any) (any, error)

// Arg returns a handler's i-th parameter as a T, and false when the call
// has no such parameter or it is of another type.
func Arg[T any](params []any, i int) (T, bool) {
	if i >= len(params) {
		var zero T
		return zero, false
	}
	v, ok := params[i].(T)
	return v, ok
}

// helpDecodeFallbacks describes obs.MRPCDecodeFallbacks.
const helpDecodeFallbacks = "XML-RPC documents decoded by encoding/xml because they were not of the shape " +
	"this package writes, by document (call or response)"

// IdempotencyHeader carries the client's per-call idempotency key. A
// server replays the cached response for a key it has already executed, so
// a retried call is applied at most once.
const IdempotencyHeader = "X-Excovery-Idempotency-Key"

// ServerStats counts server-side dispatch outcomes.
type ServerStats struct {
	// Requests counts accepted POST requests (after failpoint drops).
	Requests int64
	// HandlerCalls counts actual handler executions.
	HandlerCalls int64
	// DedupReplays counts responses replayed from the idempotency cache
	// instead of re-executing the handler.
	DedupReplays int64
	// Injected counts failpoint decisions that fired on the serving path.
	Injected int64
}

// dedupEntry caches the response of one idempotent call. done is closed
// once the response bytes are available, so a duplicate arriving while the
// first execution is still in flight waits instead of re-executing.
type dedupEntry struct {
	done chan struct{}
	resp []byte
}

// dedupCap bounds the idempotency cache; retries arrive within seconds,
// so FIFO eviction of old keys is safe long before the cache cycles.
const dedupCap = 4096

// Server dispatches XML-RPC calls to registered methods. It implements
// http.Handler. Method registration is not synchronized with serving:
// register everything before starting the HTTP server, which matches the
// NodeManager lifecycle.
type Server struct {
	methods map[string]MetaHandler

	// FP, if set, injects deterministic faults on the serving path
	// (SiteServerRecv before the handler, SiteServerSend after).
	FP *failpoint.Registry
	// OnDispatch, if set, observes every handler execution with the
	// call's idempotency key ("" when the client sent none). Replays from
	// the idempotency cache do not dispatch. Set before serving.
	OnDispatch func(method, idemKey string)
	// Obs, if set, records dispatch counters and per-method handler
	// latency histograms into the registry. Set before serving.
	Obs *obs.Registry

	mu    sync.Mutex
	dedup map[string]*dedupEntry
	order []string
	stats ServerStats
}

// NewServer creates an empty method registry with the standard
// introspection method system.listMethods pre-registered.
func NewServer() *Server {
	s := &Server{methods: make(map[string]MetaHandler), dedup: map[string]*dedupEntry{}}
	s.Register("system.listMethods", func(params []any) (any, error) {
		names := s.Methods()
		out := make([]any, len(names))
		for i, n := range names {
			out[i] = n
		}
		return out, nil
	})
	return s
}

// Stats returns a snapshot of the dispatch counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Register adds a method that ignores call metadata; registering a
// duplicate name panics.
func (s *Server) Register(name string, h Handler) {
	s.RegisterMeta(name, func(_ Meta, params []any) (any, error) { return h(params) })
}

// RegisterMeta adds a method; registering a duplicate name panics.
func (s *Server) RegisterMeta(name string, h MetaHandler) {
	if _, dup := s.methods[name]; dup {
		panic("xmlrpc: duplicate method " + name)
	}
	s.methods[name] = h
}

// Methods returns the sorted names of registered methods (introspection).
func (s *Server) Methods() []string {
	out := make([]string, 0, len(s.methods))
	for m := range s.methods {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// ServeHTTP handles one XML-RPC call per POST request. Requests carrying
// an idempotency key are executed at most once: duplicates (retries of a
// call whose response was lost) replay the cached response.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "xmlrpc requires POST", http.StatusMethodNotAllowed)
		return
	}
	if !s.inject(w, failpoint.SiteServerRecv) {
		return
	}
	s.mu.Lock()
	s.stats.Requests++
	s.mu.Unlock()
	s.Obs.Counter(obs.MRPCServerRequests,
		"accepted XML-RPC POST requests (after failpoint drops)").Inc()
	body, err := io.ReadAll(io.LimitReader(req.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	meta := metaFromHeaders(req.Header)
	key := req.Header.Get(IdempotencyHeader)
	if key != "" {
		s.mu.Lock()
		if e, dup := s.dedup[key]; dup {
			s.stats.DedupReplays++
			s.mu.Unlock()
			s.Obs.Counter(obs.MRPCServerDedupReplays,
				"responses replayed from the idempotency cache").Inc()
			<-e.done
			s.deliver(w, e.resp)
			return
		}
		e := &dedupEntry{done: make(chan struct{})}
		s.dedup[key] = e
		s.order = append(s.order, key)
		if len(s.order) > dedupCap {
			delete(s.dedup, s.order[0])
			s.order = s.order[1:]
		}
		s.mu.Unlock()
		resp := s.dispatch(body, key, meta)
		e.resp = resp
		close(e.done)
		s.deliver(w, resp)
		return
	}
	s.deliver(w, s.dispatch(body, "", meta))
}

// dispatch decodes and executes one call, returning the encoded response
// document (success or fault).
func (s *Server) dispatch(body []byte, key string, meta Meta) []byte {
	method, params, fallback, err := decodeCall(body)
	if fallback {
		s.Obs.Counter(obs.MRPCDecodeFallbacks, helpDecodeFallbacks, "doc", "call").Inc()
	}
	if err != nil {
		return EncodeFault(&Fault{Code: -32700, String: err.Error()})
	}
	h, ok := s.methods[method]
	if !ok {
		return EncodeFault(&Fault{Code: -32601, String: "method not found: " + method})
	}
	s.mu.Lock()
	s.stats.HandlerCalls++
	s.mu.Unlock()
	s.Obs.Counter(obs.MRPCServerHandlerCalls,
		"handler executions by method", "method", method).Inc()
	if s.OnDispatch != nil {
		s.OnDispatch(method, key)
	}
	//lint:ignore walltime handler latency is an operator metric measuring real elapsed time
	start := time.Now()
	result, err := h(meta, params)
	s.Obs.Histogram(obs.MRPCServerHandlerLatency,
		"handler execution latency by method", nil, "method", method).
		ObserveDuration(time.Since(start))
	if err != nil {
		if f, ok := err.(*Fault); ok {
			return EncodeFault(f)
		}
		return EncodeFault(&Fault{Code: 1, String: err.Error()})
	}
	resp, err := EncodeResponse(result)
	if err != nil {
		return EncodeFault(&Fault{Code: -32603, String: "cannot encode result: " + err.Error()})
	}
	return resp
}

// deliver writes the response, subject to the server-send failpoint: a
// Drop here loses a response whose handler already executed — exactly the
// case idempotency dedup recovers from.
func (s *Server) deliver(w http.ResponseWriter, resp []byte) {
	if !s.inject(w, failpoint.SiteServerSend) {
		return
	}
	w.Header().Set("Content-Type", "text/xml")
	w.Write(resp)
}

// inject evaluates a failpoint site; it reports whether serving should
// continue.
func (s *Server) inject(w http.ResponseWriter, site string) bool {
	d := s.FP.Eval(site)
	if d.Act == failpoint.None {
		return true
	}
	s.mu.Lock()
	s.stats.Injected++
	s.mu.Unlock()
	s.Obs.Counter(obs.MRPCServerFailpointInjections,
		"failpoint decisions fired on the serving path", "site", site).Inc()
	switch d.Act {
	case failpoint.Drop:
		// Sever the connection without a response; net/http suppresses
		// ErrAbortHandler, the client sees a transport error.
		panic(http.ErrAbortHandler)
	case failpoint.Delay:
		time.Sleep(d.Delay)
	case failpoint.Error:
		http.Error(w, "failpoint: injected server error", d.Code)
		return false
	}
	return true
}

// RetryPolicy configures Call's retry behaviour. Retries apply only to
// transport errors (network failures, 5xx/429 responses) — an XML-RPC
// fault is an answer, not a failure, and is never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call; values <= 1
	// disable retry.
	MaxAttempts int
	// BaseBackoff is the backoff before the first retry; it doubles per
	// attempt. 0 means 50 ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. 0 means 2 s.
	MaxBackoff time.Duration
	// Timeout bounds each attempt (request deadline); 0 uses the HTTP
	// client's own timeout.
	Timeout time.Duration
	// Seed feeds the jitter PRNG so a retry schedule replays exactly
	// under the same seed (like the treatment planner's PRNGs); 0 means
	// seed 1.
	Seed int64
}

// DefaultRetryPolicy is a sane policy for the control channel: four
// attempts with 50 ms–2 s equal-jitter backoff and a 30 s per-attempt
// deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond,
		MaxBackoff: 2 * time.Second, Timeout: 30 * time.Second, Seed: 1}
}

// TransportError wraps a failed HTTP exchange: the request never produced
// a decodable XML-RPC response. These — and only these — are candidates
// for retry.
type TransportError struct {
	// Method is the XML-RPC method of the failed call.
	Method string
	// Status is the received HTTP status; 0 when the failure was below
	// HTTP (connection refused, reset, timeout, injected drop).
	Status int
	// Err is the underlying error.
	Err error
}

func (e *TransportError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("xmlrpc: %s: http %d: %v", e.Method, e.Status, e.Err)
	}
	return fmt.Sprintf("xmlrpc: %s: %v", e.Method, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Retryable reports whether err is a transport error worth retrying:
// network-level failures and 5xx/429 statuses. Faults and other
// application errors are final.
func Retryable(err error) bool {
	var te *TransportError
	if !errors.As(err, &te) {
		return false
	}
	return te.Status == 0 || te.Status >= 500 || te.Status == 429
}

// errInjectedDrop is the synthetic failure of a client-send failpoint.
var errInjectedDrop = errors.New("failpoint: injected request drop")

// ClientStats counts call outcomes.
type ClientStats struct {
	// Calls counts Call invocations.
	Calls int64
	// Attempts counts HTTP exchanges (>= Calls under retry).
	Attempts int64
	// Retries counts re-attempts after retryable transport errors.
	Retries int64
	// Failures counts calls that returned an error after all attempts.
	Failures int64
}

// defaultHTTPClient is shared by every Client without an explicit
// HTTPClient, so TCP connections pool across calls and clients instead of
// being torn down per request.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// keyFallbacks counts crypto/rand failures feeding the degraded keyBase
// path, so even repeated re-derivations inside one process stay distinct.
var keyFallbacks atomic.Int64

// keyBase makes idempotency keys unique across processes: a master
// restarted mid-experiment must not collide with keys a long-lived node
// host has already cached. When crypto/rand is unavailable the fallback
// mixes the PID and a process-local counter into the wall-clock read —
// two masters restarted in the same instant (a supervisor reviving a
// whole control plane) otherwise derive the same nanosecond tag and their
// retries would replay each other's cached responses.
var keyBase = func() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		//lint:ignore walltime degraded uniqueness tag when crypto/rand fails, not an experiment measurement
		return fmt.Sprintf("t%x-%x-%x", os.Getpid(), keyFallbacks.Add(1), time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}()

var clientSeq atomic.Int64

// Client calls methods on a remote XML-RPC server. Calls are synchronous,
// mirroring the prototype's xmlrpclib usage (§VI-A). With a RetryPolicy,
// transport failures are retried with seeded exponential-jitter backoff;
// every call carries an idempotency key so retries are applied at most
// once by the server.
type Client struct {
	// URL is the endpoint, e.g. "http://node1:8800/RPC2".
	URL string
	// HTTPClient defaults to a shared client with a 30 s timeout.
	HTTPClient *http.Client
	// Retry is the retry policy; the zero value performs single attempts.
	Retry RetryPolicy
	// FP, if set, injects deterministic faults before requests are sent
	// (SiteClientSend).
	FP *failpoint.Registry
	// OnRetry, if set, observes every retry decision with the backoff
	// about to be slept.
	OnRetry func(method string, attempt int, backoff time.Duration, err error)
	// Obs, if set, records per-method call/attempt/retry/error counters
	// and call latency histograms into the registry.
	Obs *obs.Registry
	// Sleep replaces time.Sleep between attempts (test hook).
	Sleep func(time.Duration)

	id  string
	seq atomic.Int64

	mu  sync.Mutex
	rng *seeds.Rand

	calls, attempts, retries, failures atomic.Int64
}

// NewClient creates a client for the endpoint URL using the shared pooled
// HTTP transport.
func NewClient(url string) *Client {
	return &Client{URL: url, HTTPClient: defaultHTTPClient,
		id: fmt.Sprintf("%s-%d", keyBase, clientSeq.Add(1))}
}

// NewRetryingClient creates a client with a retry policy.
func NewRetryingClient(url string, p RetryPolicy) *Client {
	c := NewClient(url)
	c.Retry = p
	return c
}

// Stats returns a snapshot of the call counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{Calls: c.calls.Load(), Attempts: c.attempts.Load(),
		Retries: c.retries.Load(), Failures: c.failures.Load()}
}

// nextKey derives a fresh idempotency key for one logical call; all
// attempts of the call reuse it.
func (c *Client) nextKey() string {
	c.mu.Lock()
	if c.id == "" {
		// Zero-value clients (no NewClient) still get unique keys.
		c.id = fmt.Sprintf("%s-%d", keyBase, clientSeq.Add(1))
	}
	id := c.id
	c.mu.Unlock()
	return fmt.Sprintf("%s-%d", id, c.seq.Add(1))
}

// backoff computes the jittered delay before retry number attempt.
// Equal-jitter: half deterministic exponential, half drawn from the
// seeded PRNG, so schedules are bounded below and replayable.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.Retry.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := c.Retry.MaxBackoff
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	c.mu.Lock()
	if c.rng == nil {
		c.rng = seeds.Key{Tag: seeds.Retry, Seed: c.Retry.Seed}.Rand()
	}
	jit := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d/2 + jit
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Call invokes method with params and returns the decoded result. Fault
// responses surface as *Fault errors. Transport failures are retried per
// the client's RetryPolicy under a per-call idempotency key.
func (c *Client) Call(method string, params ...any) (any, error) {
	return c.CallMeta(method, Meta{}, params...)
}

// CallMeta is Call with metadata attached to every attempt.
func (c *Client) CallMeta(method string, meta Meta, params ...any) (any, error) {
	body, err := EncodeCall(method, params...)
	if err != nil {
		return nil, err
	}
	c.calls.Add(1)
	c.Obs.Counter(obs.MRPCClientCalls,
		"logical XML-RPC calls by method", "method", method).Inc()
	//lint:ignore walltime call latency is an operator metric measuring real elapsed time
	start := time.Now()
	defer func() {
		c.Obs.Histogram(obs.MRPCClientLatency,
			"XML-RPC call latency (all attempts and backoffs) by method",
			nil, "method", method).ObserveDuration(time.Since(start))
	}()
	key := c.nextKey()
	max := c.Retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		c.attempts.Add(1)
		c.Obs.Counter(obs.MRPCClientAttempts,
			"HTTP exchanges by method (>= calls under retry)", "method", method).Inc()
		res, err := c.do(method, body, key, meta)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !Retryable(err) || attempt >= max {
			break
		}
		backoff := c.backoff(attempt)
		c.retries.Add(1)
		c.Obs.Counter(obs.MRPCClientRetries,
			"re-attempts after retryable transport errors by method", "method", method).Inc()
		if c.OnRetry != nil {
			c.OnRetry(method, attempt, backoff, err)
		}
		c.sleep(backoff)
	}
	c.failures.Add(1)
	c.Obs.Counter(obs.MRPCClientErrors,
		"calls failed after all attempts by method", "method", method).Inc()
	return nil, lastErr
}

// do performs one HTTP exchange.
func (c *Client) do(method string, body []byte, key string, meta Meta) (any, error) {
	switch d := c.FP.Eval(failpoint.SiteClientSend); d.Act {
	case failpoint.Drop:
		return nil, &TransportError{Method: method, Err: errInjectedDrop}
	case failpoint.Delay:
		c.sleep(d.Delay)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = defaultHTTPClient
	}
	ctx := context.Background()
	if c.Retry.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Retry.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("xmlrpc: %s: %w", method, err)
	}
	req.Header.Set("Content-Type", "text/xml")
	req.Header.Set(IdempotencyHeader, key)
	meta.setHeaders(req.Header)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, &TransportError{Method: method, Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, &TransportError{Method: method, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &TransportError{Method: method, Status: resp.StatusCode,
			Err: fmt.Errorf("%s", strings.TrimSpace(string(data)))}
	}
	res, fallback, err := decodeResponse(data)
	if fallback {
		c.Obs.Counter(obs.MRPCDecodeFallbacks, helpDecodeFallbacks, "doc", "response").Inc()
	}
	return res, err
}
