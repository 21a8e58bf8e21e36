package xmlrpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"excovery/internal/failpoint"
)

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := EncodeResponse(v)
	if err != nil {
		t.Fatalf("encode %v: %v", v, err)
	}
	got, err := DecodeResponse(data)
	if err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return got
}

func TestScalarRoundTrips(t *testing.T) {
	cases := []any{
		42, -7, 0,
		true, false,
		"hello", "", "with <xml> & \"chars\"",
		3.14159, -0.5, 1e10,
	}
	for _, v := range cases {
		if got := roundTrip(t, v); !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %v (%T) = %v (%T)", v, v, got, got)
		}
	}
}

func TestTimeRoundTrip(t *testing.T) {
	v := time.Date(2014, 5, 19, 13, 37, 42, 0, time.UTC)
	got := roundTrip(t, v)
	gt, ok := got.(time.Time)
	if !ok || !gt.Equal(v) {
		t.Fatalf("time round trip = %v", got)
	}
}

func TestBase64RoundTrip(t *testing.T) {
	v := []byte{0, 1, 2, 254, 255, 'x'}
	got := roundTrip(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("base64 round trip = %v", got)
	}
}

func TestStructAndArrayRoundTrip(t *testing.T) {
	v := map[string]any{
		"name":  "run_init",
		"runid": 17,
		"ok":    true,
		"list":  []any{1, "two", 3.0},
		"inner": map[string]any{"x": 1},
	}
	got := roundTrip(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("struct round trip:\n got %#v\nwant %#v", got, v)
	}
}

func TestConvenienceTypes(t *testing.T) {
	got := roundTrip(t, []string{"a", "b"})
	if !reflect.DeepEqual(got, []any{"a", "b"}) {
		t.Fatalf("[]string = %#v", got)
	}
	got = roundTrip(t, map[string]string{"k": "v"})
	if !reflect.DeepEqual(got, map[string]any{"k": "v"}) {
		t.Fatalf("map[string]string = %#v", got)
	}
}

func TestInt64Overflow(t *testing.T) {
	if _, err := EncodeResponse(int64(1) << 40); err == nil {
		t.Fatal("expected overflow error")
	}
	if got := roundTrip(t, map[string]any{"v": 5}); got.(map[string]any)["v"] != 5 {
		t.Fatal("small int64 path broken")
	}
}

func TestNilRejected(t *testing.T) {
	if _, err := EncodeResponse(nil); err == nil {
		t.Fatal("nil must be rejected")
	}
	if _, err := EncodeCall("m", 1, nil); err == nil {
		t.Fatal("nil param must be rejected")
	}
}

func TestUntypedValueIsString(t *testing.T) {
	doc := `<?xml version="1.0"?><methodResponse><params><param>
		<value>bare text</value></param></params></methodResponse>`
	got, err := DecodeResponse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got != "bare text" {
		t.Fatalf("got %q", got)
	}
}

func TestI4Alias(t *testing.T) {
	doc := `<?xml version="1.0"?><methodResponse><params><param>
		<value><i4>99</i4></value></param></params></methodResponse>`
	got, err := DecodeResponse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("got %v", got)
	}
}

func TestEncodeDecodeCall(t *testing.T) {
	data, err := EncodeCall("node.run_init", 5, "nodeA", true)
	if err != nil {
		t.Fatal(err)
	}
	method, params, err := DecodeCall(data)
	if err != nil {
		t.Fatal(err)
	}
	if method != "node.run_init" {
		t.Fatalf("method = %q", method)
	}
	want := []any{5, "nodeA", true}
	if !reflect.DeepEqual(params, want) {
		t.Fatalf("params = %#v", params)
	}
}

func TestDecodeCallMissingMethod(t *testing.T) {
	if _, _, err := DecodeCall([]byte("<methodCall></methodCall>")); err == nil {
		t.Fatal("expected error on missing methodName")
	}
}

func TestFaultRoundTrip(t *testing.T) {
	data := EncodeFault(&Fault{Code: 42, String: "node locked"})
	_, err := DecodeResponse(data)
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.Code != 42 || f.String != "node locked" {
		t.Fatalf("fault = %+v", f)
	}
	if !strings.Contains(f.Error(), "node locked") {
		t.Fatalf("Error() = %q", f.Error())
	}
}

func TestServerDispatch(t *testing.T) {
	srv := NewServer()
	srv.Register("math.add", func(params []any) (any, error) {
		return params[0].(int) + params[1].(int), nil
	})
	srv.Register("fail", func(params []any) (any, error) {
		return nil, fmt.Errorf("kaputt")
	})
	srv.Register("fault", func(params []any) (any, error) {
		return nil, &Fault{Code: 7, String: "custom"}
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	got, err := c.Call("math.add", 2, 3)
	if err != nil || got != 5 {
		t.Fatalf("add = %v, %v", got, err)
	}

	_, err = c.Call("fail")
	if f, ok := err.(*Fault); !ok || f.Code != 1 || !strings.Contains(f.String, "kaputt") {
		t.Fatalf("generic error fault = %v", err)
	}

	_, err = c.Call("fault")
	if f, ok := err.(*Fault); !ok || f.Code != 7 {
		t.Fatalf("custom fault = %v", err)
	}

	_, err = c.Call("nosuch")
	if f, ok := err.(*Fault); !ok || f.Code != -32601 {
		t.Fatalf("unknown method fault = %v", err)
	}
}

func TestServerRejectsGet(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestServerMalformedBody(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	resp, err := ts.Client().Post(ts.URL, "text/xml", strings.NewReader("not xml"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_ = c
	// Response should be a parse fault, not a transport error.
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "-32700") {
		t.Fatalf("want parse fault, got %s", buf[:n])
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	srv := NewServer()
	h := func([]any) (any, error) { return 0, nil }
	srv.Register("m", h)
	srv.Register("m", h)
}

func TestMethodsSorted(t *testing.T) {
	srv := NewServer()
	h := func([]any) (any, error) { return 0, nil }
	for _, m := range []string{"zeta", "alpha", "mid"} {
		srv.Register(m, h)
	}
	got := srv.Methods()
	want := []string{"alpha", "mid", "system.listMethods", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Methods = %v", got)
	}
}

// Property: any string survives a call round trip, including XML
// metacharacters and unicode.
func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !isValidXMLString(s) {
			return true // XML 1.0 cannot carry control chars; skip
		}
		data, err := EncodeCall("echo", s)
		if err != nil {
			return false
		}
		_, params, err := DecodeCall(data)
		if err != nil || len(params) != 1 {
			return false
		}
		return params[0] == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: int values in the 32-bit range round trip exactly.
func TestIntRoundTripProperty(t *testing.T) {
	f := func(v int32) bool {
		data, err := EncodeCall("echo", int(v))
		if err != nil {
			return false
		}
		_, params, err := DecodeCall(data)
		return err == nil && params[0] == int(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func isValidXMLString(s string) bool {
	for _, r := range s {
		if r == 0xFFFD || r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
			return false
		}
		if r >= 0xD800 && r <= 0xDFFF || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}

func TestSystemListMethods(t *testing.T) {
	srv := NewServer()
	srv.Register("alpha", func([]any) (any, error) { return 1, nil })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	v, err := NewClient(ts.URL).Call("system.listMethods")
	if err != nil {
		t.Fatal(err)
	}
	got := v.([]any)
	if len(got) != 2 || got[0] != "alpha" || got[1] != "system.listMethods" {
		t.Fatalf("listMethods = %v", got)
	}
}

// TestCallMetadata covers the header carrier of Meta: what CallMeta sends
// arrives, header values are outside input and read as absent unless they
// are positive decimals in range, and a retry of a call whose response was
// lost replays the cached response without running the handler — and
// whatever it decides from the metadata — a second time.
func TestCallMetadata(t *testing.T) {
	srv := NewServer()
	var seen []Meta
	srv.RegisterMeta("meta.echo", func(meta Meta, params []any) (any, error) {
		seen = append(seen, meta)
		return len(params), nil
	})
	fp := failpoint.New(1)
	srv.FP = fp
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, err := EncodeCall("meta.echo", "p")
	if err != nil {
		t.Fatal(err)
	}
	const maxU64, maxI64 = "18446744073709551615", "9223372036854775807"
	cases := []struct {
		trace, fence string // raw header values; "-" leaves the header out
		want         Meta
	}{
		{"-", "-", Meta{}},
		{"7", "3", Meta{TraceParent: 7, FenceEpoch: 3}},
		{maxU64, maxI64, Meta{TraceParent: 1<<64 - 1, FenceEpoch: 1<<63 - 1}},
		{"", "", Meta{}},
		{"0", "0", Meta{}},
		{"-7", "-3", Meta{}},
		{"seven", "0x3", Meta{}},
		{"7 7", "3,3", Meta{}},
		{"7.0", "3e0", Meta{}},
		{maxU64 + "0", maxI64 + "0", Meta{}},
		{"18446744073709551616", "9223372036854775808", Meta{}},
		{"7", "junk", Meta{TraceParent: 7}},
		{"junk", "3", Meta{FenceEpoch: 3}},
	}
	for _, tc := range cases {
		seen = nil
		req, err := http.NewRequest(http.MethodPost, ts.URL, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.trace != "-" {
			req.Header[TraceParentHeader] = []string{tc.trace}
		}
		if tc.fence != "-" {
			req.Header[FenceEpochHeader] = []string{tc.fence}
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		v, err := DecodeResponse(data)
		if resp.StatusCode != http.StatusOK || err != nil || v != 1 {
			t.Errorf("headers (%q, %q): status %d, result %v, err %v", tc.trace, tc.fence, resp.StatusCode, v, err)
		}
		if len(seen) != 1 || seen[0] != tc.want {
			t.Errorf("headers (%q, %q): handler saw %+v, want %+v", tc.trace, tc.fence, seen, tc.want)
		}
	}

	// Lose the first response: the retry carries the same key and metadata
	// and is answered from the cache.
	seen = nil
	fp.Enable(failpoint.SiteServerSend, failpoint.Rule{Prob: 1, Act: failpoint.Drop, Count: 1})
	c := NewRetryingClient(ts.URL, testPolicy(1))
	meta := Meta{TraceParent: 42, FenceEpoch: 9}
	if v, err := c.CallMeta("meta.echo", meta, "a", "b"); err != nil || v != 2 {
		t.Fatalf("CallMeta = %v, %v", v, err)
	}
	if len(seen) != 1 || seen[0] != meta {
		t.Errorf("handler ran with %+v, want once with %+v", seen, meta)
	}
	if st := c.Stats(); st.Attempts != 2 {
		t.Errorf("client stats = %+v, want 2 attempts", st)
	}
	if st := srv.Stats(); st.DedupReplays != 1 {
		t.Errorf("server stats = %+v, want 1 replay", st)
	}
	// Call is CallMeta without metadata.
	seen = nil
	if _, err := c.Call("meta.echo"); err != nil || len(seen) != 1 || seen[0] != (Meta{}) {
		t.Errorf("Call: handler saw %+v, err %v", seen, err)
	}
}
