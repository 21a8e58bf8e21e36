package xmlrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"excovery/internal/obs"
)

// sameCall fails unless the encoding/xml path decodes doc to method and
// params.
func sameCall(t *testing.T, doc []byte, method string, params []any) {
	t.Helper()
	m, p, err := unmarshalCall(doc)
	if err != nil || m != method || !reflect.DeepEqual(p, params) {
		t.Fatalf("%q: one pass read (%q, %#v), encoding/xml (%q, %#v, %v)", doc, method, params, m, p, err)
	}
}

// sameResponse fails unless the encoding/xml path decodes doc to result,
// or to fault when fault is not nil.
func sameResponse(t *testing.T, doc []byte, result any, fault *Fault) {
	t.Helper()
	v, err := unmarshalResponse(doc)
	if fault != nil {
		var f *Fault
		if !errors.As(err, &f) || *f != *fault || v != nil {
			t.Fatalf("%q: one pass read fault %+v, encoding/xml (%#v, %v)", doc, fault, v, err)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(v, result) {
		t.Fatalf("%q: one pass read %#v, encoding/xml (%#v, %v)", doc, result, v, err)
	}
}

// TestWireDocsTakeOnePass: every pinned document is read by the one-pass
// scan, to what encoding/xml reads from it.
func TestWireDocsTakeOnePass(t *testing.T) {
	for _, d := range readWireGolden(t) {
		if strings.HasSuffix(d.name, ".call") {
			m, p, ok := scanCall(d.doc)
			if !ok {
				t.Fatalf("%s: not read in one pass", d.name)
			}
			sameCall(t, d.doc, m, p)
			continue
		}
		v, f, ok := scanResponse(d.doc)
		if !ok {
			t.Fatalf("%s: not read in one pass", d.name)
		}
		if strings.HasPrefix(d.name, "fault.") != (f != nil) {
			t.Fatalf("%s: read as result %#v, fault %+v", d.name, v, f)
		}
		sameResponse(t, d.doc, v, f)
	}
}

// TestScanReadsCanonicalVariants: the shape allows white space between
// elements, no header, untyped values, the five predefined entities and
// character references of every kind.
func TestScanReadsCanonicalVariants(t *testing.T) {
	calls := []struct {
		doc    string
		method string
		params []any
	}{
		{"<methodCall><methodName>m</methodName><params></params></methodCall>", "m", nil},
		{"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\n <methodCall>\n\t<methodName>m</methodName>\n" +
			"<params>\n <param>\n  <value> <int> 7 </int> </value>\n </param>\n</params>\n</methodCall>",
			"m", []any{7}},
		{"<methodCall><methodName>a&lt;&gt;&amp;&apos;&quot;</methodName><params><param><value>" +
			"&#65;&#x42;&#x4a;&#x4A;&#0010;&#xD;&#x9;&#x263A;&#128512;</value></param></params></methodCall>",
			"a<>&'\"", []any{"ABJJ\n\r\t☺\U0001F600"}},
		{"<methodCall><methodName>m</methodName><params><param><value></value></param>" +
			"<param><value>  </value></param><param><value><string></string></value></param>" +
			"<param><value><i4>-3</i4></value></param><param><value><boolean>true</boolean></value></param>" +
			"<param><value><struct></struct></value></param><param><value><array><data></data></array></value></param>" +
			"<param><value>naïve ☃</value></param></params></methodCall>",
			"m", []any{"", "  ", "", -3, true, map[string]any{}, []any{}, "naïve ☃"}},
		{"<methodCall><methodName>m</methodName><params><param><value><struct>" +
			"<member><name>k</name><value>1</value></member><member><name>k</name><value>2</value></member>" +
			"</struct></value></param></params></methodCall>",
			"m", []any{map[string]any{"k": "2"}}},
	}
	for _, c := range calls {
		m, p, ok := scanCall([]byte(c.doc))
		if !ok || m != c.method || !reflect.DeepEqual(p, c.params) {
			t.Errorf("scanCall(%q) = %q, %#v, %v; want %q, %#v", c.doc, m, p, ok, c.method, c.params)
			continue
		}
		sameCall(t, []byte(c.doc), m, p)
	}
	responses := []struct {
		doc    string
		result any
		fault  *Fault
	}{
		{"<methodResponse><params><param><value><double> 1e3 </double></value></param></params></methodResponse>", 1000.0, nil},
		{"<methodResponse> <fault> <value><struct><member><name>faultString</name><value>x</value></member>" +
			"</struct></value> </fault> </methodResponse>", nil, &Fault{String: "x"}},
		{"<methodResponse><fault><value><struct><member><name>faultCode</name><value><string>7</string></value>" +
			"</member></struct></value></fault></methodResponse>", nil, &Fault{}},
	}
	for _, c := range responses {
		v, f, ok := scanResponse([]byte(c.doc))
		if !ok || !reflect.DeepEqual(v, c.result) || !reflect.DeepEqual(f, c.fault) {
			t.Errorf("scanResponse(%q) = %#v, %+v, %v; want %#v, %+v", c.doc, v, f, ok, c.result, c.fault)
			continue
		}
		sameResponse(t, []byte(c.doc), v, f)
	}
}

// TestScanLeavesTheRestToEncodingXML: documents outside the shape are not
// read in one pass, and the decoders answer for them what encoding/xml
// makes of them — results, faults and errors alike.
func TestScanLeavesTheRestToEncodingXML(t *testing.T) {
	const body = "<methodName>m</methodName><params><param><value><int>1</int></value></param></params>"
	deep := strings.Repeat("<value><array><data>", maxScanDepth+1) + "<value>x</value>" +
		strings.Repeat("</data></array></value>", maxScanDepth+1)
	calls := []string{
		"<?xml version='1.0'?>\n<methodCall>" + body + "</methodCall>",
		"<?xml version=\"1.0\"?><methodCall>" + body + "</methodCall>",
		"<!-- c --><methodCall>" + body + "</methodCall>",
		"<methodCall>" + body + "</methodCall>\n",
		"<methodCall>" + body + "</methodCall><x/>",
		"<methodCall >" + body + "</methodCall>",
		"<methodCall xmlns=\"x\">" + body + "</methodCall>",
		"<methodCall><methodName>m</methodName><params/></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><![CDATA[<x>]]></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><string/></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>a<int>1</int></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><int>1</int>a</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>a\r\nb</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>a\x01b</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>a\xffb</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>a>b</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>a]]>b</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>&#0;</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>&#xD800;</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>&#X41;</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>&#x110000;</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>&nbsp;</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value>&amp</value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><int>x</int></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><int>99999999999999999999</int></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><boolean>yes</boolean></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><int>1</int><string>x</string></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><nil/></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param>" + deep + "</param></params></methodCall>",
		"<methodCall><methodName></methodName><params></params></methodCall>",
		"<methodCall><params></params><methodName>m</methodName></methodCall>",
		"<methodCall><methodName>m</methodName></methodCall>",
		"<methodCall><methodName>m</methodName><params><param></param></params></methodCall>",
		"<methodCall></methodCall>",
		"<methodResponse><params></params></methodResponse>",
		"not xml",
		"",
	}
	for _, doc := range calls {
		if _, _, ok := scanCall([]byte(doc)); ok {
			t.Errorf("scanCall(%q) read it in one pass", doc)
		}
		m, p, fallback, err := decodeCall([]byte(doc))
		wm, wp, werr := unmarshalCall([]byte(doc))
		if !fallback || m != wm || !reflect.DeepEqual(p, wp) || !sameErr(err, werr) {
			t.Errorf("decodeCall(%q) = %q, %#v, %v, %v; encoding/xml %q, %#v, %v", doc, m, p, fallback, err, wm, wp, werr)
		}
	}
	responses := []string{
		"<?xml version='1.0'?>\n<methodResponse><params><param><value><int>1</int></value></param></params></methodResponse>",
		"<methodResponse><params></params></methodResponse>",
		"<methodResponse><params><param><value>1</value></param><param><value>2</value></param></params></methodResponse>",
		"<methodResponse><params><param><value>1</value></param></params><fault><value>x</value></fault></methodResponse>",
		"<methodResponse><fault><value>x</value></fault></methodResponse>",
		"<methodResponse><fault><value><struct><member><name>faultCode</name><value><int>z</int></value></member></struct></value></fault></methodResponse>",
		"<methodResponse><params><param><value><double>1e999</double></value></param></params></methodResponse>",
		"<methodResponse><params><param><value><base64>!!</base64></value></param></params></methodResponse>",
		"<methodResponse><params><param><value><dateTime.iso8601>2014-05-19</dateTime.iso8601></value></param></params></methodResponse>",
		"<methodCall><methodName>m</methodName><params></params></methodCall>",
		"",
	}
	for _, doc := range responses {
		if _, _, ok := scanResponse([]byte(doc)); ok {
			t.Errorf("scanResponse(%q) read it in one pass", doc)
		}
		v, fallback, err := decodeResponse([]byte(doc))
		wv, werr := unmarshalResponse([]byte(doc))
		if !fallback || !reflect.DeepEqual(v, wv) || !sameErr(err, werr) {
			t.Errorf("decodeResponse(%q) = %#v, %v, %v; encoding/xml %#v, %v", doc, v, fallback, err, wv, werr)
		}
	}
	// Python's xmlrpc.client writes its own header: still read, by
	// encoding/xml.
	v, fallback, err := decodeResponse([]byte(responses[0]))
	if v != 1 || !fallback || err != nil {
		t.Errorf("Python-style response = %v, %v, %v", v, fallback, err)
	}
}

// sameErr reports whether two decoder errors say the same, or are the same
// fault.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var fa, fb *Fault
	if errors.As(a, &fa) || errors.As(b, &fb) {
		return errors.As(a, &fa) && errors.As(b, &fb) && *fa == *fb
	}
	return a.Error() == b.Error()
}

// TestEscapeStringMatchesEscapeText: escapeString writes what
// xml.EscapeText writes, for every byte class it treats differently.
func TestEscapeStringMatchesEscapeText(t *testing.T) {
	for _, s := range []string{
		"", "plain", tricky, "\x00\x01\x08\x0b\x0c\x1f\x7f", "bad \xff\xfe\xc3 utf-8 \xc3",
		"�", "퟿￾￿\U00010000\U0010ffff", "naïve — ☃ \U0001F600",
		"\xed\xa0\x80", "&#34;",
	} {
		checkEscape(t, s)
	}
}

func checkEscape(t *testing.T, s string) {
	t.Helper()
	var got, want bytes.Buffer
	escapeString(&got, s)
	xml.EscapeText(&want, []byte(s))
	if got.String() != want.String() {
		t.Fatalf("escapeString(%q) = %q, xml.EscapeText %q", s, got.String(), want.String())
	}
}

// TestEncodeIntRange: an int is held to XML-RPC's four-byte signed range
// like an int64; decoding stays lenient.
func TestEncodeIntRange(t *testing.T) {
	for _, v := range []any{int(math.MaxInt32), int(math.MinInt32), int64(math.MaxInt32), int32(math.MinInt32)} {
		if _, err := EncodeCall("m", v); err != nil {
			t.Errorf("EncodeCall(%T %v): %v", v, v, err)
		}
	}
	if strconv.IntSize == 64 {
		big, over := int64(1)<<40, int64(math.MaxInt32)+1
		for _, v := range []any{int(big), int(over), int(-over - 1), []any{int(big)}, map[string]any{"k": int(big)}} {
			if _, err := EncodeCall("m", v); err == nil || !strings.Contains(err.Error(), "overflows XML-RPC int") {
				t.Errorf("EncodeCall(%T %v) = %v, want overflow error", v, v, err)
			}
			if _, err := EncodeResponse(v); err == nil {
				t.Errorf("EncodeResponse(%T %v) encoded", v, v)
			}
		}
		doc := "<methodResponse><params><param><value><int>1099511627776</int></value></param></params></methodResponse>"
		if v, err := DecodeResponse([]byte(doc)); err != nil || v != int(big) {
			t.Errorf("decoding a wide int = %v, %v", v, err)
		}
	}
}

// TestServerAndClientCountFallbacks: a document outside the one-pass
// shape is counted once on the side that decodes it; the repo's own
// traffic counts nothing.
func TestServerAndClientCountFallbacks(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer()
	srv.Obs = reg
	srv.Register("echo", func(params []any) (any, error) { return params[0], nil })
	srv.Register("fail", func(params []any) (any, error) { return nil, errors.New("kaputt") })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Obs = reg
	if v, err := c.Call("echo", tricky); err != nil || v != tricky {
		t.Fatalf("echo = %v, %v", v, err)
	}
	if _, err := c.Call("fail"); err == nil {
		t.Fatal("fail answered")
	}
	if _, err := c.Call("nosuch"); err == nil {
		t.Fatal("nosuch answered")
	}
	for _, doc := range []string{"<?xml version='1.0'?><methodCall><methodName>echo</methodName><params><param><value>x</value></param></params></methodCall>", "not xml"} {
		resp, err := http.Post(ts.URL, "text/xml", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := reg.CounterValue(obs.MRPCDecodeFallbacks, "doc", "call"); got != 2 {
		t.Errorf("call fallbacks = %d, want 2", got)
	}
	if got := reg.CounterValue(obs.MRPCDecodeFallbacks, "doc", "response"); got != 0 {
		t.Errorf("response fallbacks = %d, want 0", got)
	}
	// A peer answering in another dialect is counted on the client.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("<?xml version='1.0'?>\n<methodResponse><params><param><value><int>5</int></value></param></params></methodResponse>\n"))
	}))
	defer peer.Close()
	pc := NewClient(peer.URL)
	pc.Obs = reg
	if v, err := pc.Call("any"); err != nil || v != 5 {
		t.Fatalf("foreign peer = %v, %v", v, err)
	}
	if got := reg.CounterValue(obs.MRPCDecodeFallbacks, "doc", "response"); got != 1 {
		t.Errorf("response fallbacks = %d, want 1", got)
	}
}

// fuzzBytes hands out the fuzz input a piece at a time, zeros once it is
// used up.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) take(n int) []byte {
	out := make([]byte, n)
	r.b = r.b[copy(out, r.b):]
	return out
}

func (r *fuzzBytes) byte() byte { return r.take(1)[0] }

func (r *fuzzBytes) uint64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// raw is a string of up to 31 input bytes, as they come.
func (r *fuzzBytes) raw() string {
	n := min(int(r.byte()%32), len(r.b))
	return string(r.take(n))
}

// xmlSafe is s as the encoders make it travel: invalid UTF-8 and runes XML
// cannot carry read back as U+FFFD.
func xmlSafe(s string) string {
	return strings.Map(func(r rune) rune {
		if !isXMLChar(r) {
			return '\uFFFD'
		}
		return r
	}, s)
}

// value builds a value of one of the decoded Go types, nested at most
// depth deep.
func (r *fuzzBytes) value(depth int) any {
	switch k := r.byte() % 8; {
	case k == 0:
		return int(int32(r.uint64()))
	case k == 1:
		return r.byte()%2 == 0
	case k == 2:
		return xmlSafe(r.raw())
	case k == 3:
		f := math.Float64frombits(r.uint64())
		if math.IsNaN(f) {
			return 0.0
		}
		return f
	case k == 4:
		// Whole seconds of the years 0001 to 9999, in UTC.
		const first, span = -62135596800, 315537897600
		return time.Unix(first+int64(r.uint64()%span), 0).UTC()
	case k == 5:
		return []byte(r.raw())
	case k == 6 && depth > 0:
		m := map[string]any{}
		for n := r.byte() % 4; n > 0; n-- {
			m[xmlSafe(r.raw())] = r.value(depth - 1)
		}
		return m
	case k == 7 && depth > 0:
		arr := []any{}
		for n := r.byte() % 4; n > 0; n-- {
			arr = append(arr, r.value(depth-1))
		}
		return arr
	}
	return xmlSafe(r.raw())
}

func seedWire(f *testing.F, keep func(name string) bool) {
	for _, d := range readWireGolden(f) {
		if keep(d.name) {
			f.Add(d.doc)
		}
	}
}

// FuzzDecodeCall holds the call decoders together: neither panics, the
// one-pass scan reads a document only to what encoding/xml reads from it,
// every call the encoder writes takes the one-pass path and decodes to what
// was sent, and the escaper writes what xml.EscapeText writes.
func FuzzDecodeCall(f *testing.F) {
	seedWire(f, func(name string) bool { return strings.HasSuffix(name, ".call") })
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeCall(data)
		if m, p, ok := scanCall(data); ok {
			sameCall(t, data, m, p)
		}

		checkEscape(t, string(data))
		r := fuzzBytes{data}
		method := xmlSafe(r.raw())
		if method == "" {
			method = "m"
		}
		var params []any
		for n := r.byte() % 5; n > 0; n-- {
			params = append(params, r.value(3))
		}
		doc, err := EncodeCall(method, params...)
		if err != nil {
			t.Fatalf("EncodeCall(%q, %#v): %v", method, params, err)
		}
		m, p, ok := scanCall(doc)
		if !ok || m != method || !reflect.DeepEqual(p, params) {
			t.Fatalf("scanCall(%q) = %q, %#v, %v; sent %q, %#v", doc, m, p, ok, method, params)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeCall for responses and faults.
func FuzzDecodeResponse(f *testing.F) {
	seedWire(f, func(name string) bool { return !strings.HasSuffix(name, ".call") })
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeResponse(data)
		if v, fault, ok := scanResponse(data); ok {
			sameResponse(t, data, v, fault)
		}

		r := fuzzBytes{data}
		want := r.value(3)
		doc, err := EncodeResponse(want)
		if err != nil {
			t.Fatalf("EncodeResponse(%#v): %v", want, err)
		}
		if v, fault, ok := scanResponse(doc); !ok || fault != nil || !reflect.DeepEqual(v, want) {
			t.Fatalf("scanResponse(%q) = %#v, %+v, %v; sent %#v", doc, v, fault, ok, want)
		}
		wantFault := Fault{Code: int(int32(r.uint64())), String: xmlSafe(r.raw())}
		doc = EncodeFault(&wantFault)
		if v, fault, ok := scanResponse(doc); !ok || v != nil || fault == nil || *fault != wantFault {
			t.Fatalf("scanResponse(%q) = %#v, %+v, %v; sent %+v", doc, v, fault, ok, wantFault)
		}
	})
}

// positiveDecimal is the reference reading of a metadata header: decimal
// digits (after one '+' when plus is allowed) of a value in 1..max, else 0.
func positiveDecimal(s string, plus bool, max uint64) uint64 {
	if plus {
		s = strings.TrimPrefix(s, "+")
	}
	if s == "" {
		return 0
	}
	var v uint64
	for _, c := range []byte(s) {
		if c < '0' || c > '9' {
			return 0
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0
		}
		v = v*10 + d
	}
	return v
}

// FuzzMetaFromHeaders: header values are outside input. The parser never
// panics and reads a value only from a positive decimal in range (an
// epoch may carry a '+', as strconv.ParseInt allows).
func FuzzMetaFromHeaders(f *testing.F) {
	for _, s := range [][2]string{
		{"7", "3"}, {"18446744073709551615", "9223372036854775807"}, {"18446744073709551616", "9223372036854775808"},
		{"", ""}, {"0", "0"}, {"-7", "-3"}, {"+7", "+3"}, {"seven", "0x3"}, {"7 7", "3,3"}, {"007", "1_0"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, trace, fence string) {
		h := http.Header{TraceParentHeader: {trace}, FenceEpochHeader: {fence}}
		m := metaFromHeaders(h)
		if want := positiveDecimal(trace, false, math.MaxUint64); m.TraceParent != want {
			t.Errorf("trace parent %q read as %d, want %d", trace, m.TraceParent, want)
		}
		if want := positiveDecimal(fence, true, math.MaxInt64); m.FenceEpoch != int64(want) {
			t.Errorf("fence epoch %q read as %d, want %d", fence, m.FenceEpoch, want)
		}
	})
}

// BenchmarkDecode decodes pinned documents of three sizes, in one pass and
// through encoding/xml: a node.execute call, a boolean response, and a
// harvest response whose JSON is mostly character references.
func BenchmarkDecode(b *testing.B) {
	docs := map[string][]byte{}
	for _, d := range readWireGolden(b) {
		docs[d.name] = d.doc
	}
	for _, name := range []string{"node.execute.call", "node.prepare_run.response", "master.events.call", "node.harvest_events.response"} {
		doc := docs[name]
		call := strings.HasSuffix(name, ".call")
		b.Run(name+"/one-pass", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if call {
					scanCall(doc)
				} else {
					scanResponse(doc)
				}
			}
		})
		b.Run(name+"/encoding-xml", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if call {
					unmarshalCall(doc)
				} else {
					unmarshalResponse(doc)
				}
			}
		})
	}
}
