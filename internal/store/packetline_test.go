package store

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"excovery/internal/netem"
)

// wireOf is p in the form encoding/json writes for a stored line: the
// payload as "zeros" when it is 1 to maxZeros bytes that are all zero, as
// "data" otherwise.
func wireOf(p PacketRecord) packetJSON {
	w := packetJSON{Time: p.Time, Dir: p.Dir, Node: p.Node, ID: p.ID, Tag: p.Tag,
		Src: p.Src, Dst: p.Dst, Data: &p.Data, Path: p.Path}
	if n := len(p.Data); n > 0 && n <= maxZeros && bytes.Count(p.Data, []byte{0}) == n {
		w.Data, w.Zeros = nil, &n
	}
	return w
}

// encodeLine is what json.Encoder writes for one record's wire form, less
// the newline: the reference the line encoder is held to.
func encodeLine(t testing.TB, p PacketRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(wireOf(p)); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// checkLine holds the packet-line decoder to encoding/json on one line:
// same error or not, same record, same capture time and source — and
// json.Unmarshal, through PacketRecord's method, gives what the decoder
// gives.
func checkLine(t *testing.T, line []byte) (fallback bool) {
	t.Helper()
	var want PacketRecord
	wantErr := unmarshalPacketLine(line, &want)

	var got PacketRecord
	fallback, err := decodePacketLine(line, &got)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("line %q: decoder error %v, encoding/json error %v", line, err, wantErr)
	}
	var viaJSON PacketRecord
	if jerr := json.Unmarshal(line, &viaJSON); (jerr != nil) != (err != nil) || err == nil && !reflect.DeepEqual(viaJSON, got) {
		t.Fatalf("line %q: json.Unmarshal gives %#v, %v; the decoder %#v, %v", line, viaJSON, jerr, got, err)
	}
	tm, src, metaFallback, metaErr := decodePacketMeta(line)
	if (metaErr != nil) != (err != nil) {
		t.Fatalf("line %q: meta decoder error %v, decoder error %v", line, metaErr, err)
	}
	if err != nil {
		return fallback
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q (fallback=%v):\n got %#v\nwant %#v", line, fallback, got, want)
	}
	if tm != want.Time || src != want.Src || metaFallback != fallback {
		t.Fatalf("line %q: meta (%v, %q, fallback=%v), want (%v, %q, fallback=%v)",
			line, tm, src, metaFallback, want.Time, want.Src, fallback)
	}
	return fallback
}

// zeros is an all-zero payload of n bytes.
func zeros(n int) []byte { return make([]byte, n) }

// lastByteSet is a 512-byte payload whose last byte alone is not zero.
var lastByteSet = append(zeros(511), 1)

var lineSeeds = []PacketRecord{
	{Time: time.Unix(3, 141592653).UTC(), Dir: "rx", Node: "n1", ID: 7, Tag: 65535, Src: "a",
		Dst: "mdns", Data: []byte{0x00, 0xff, '<', '&'}, Path: []netem.NodeID{"a", "b"}},
	{Time: time.Unix(0, 0).UTC(), Dir: "tx", ID: 1<<64 - 1, Src: "b", Dst: "c"},                // nil data, no node, no path
	{Time: time.Unix(1, 500).UTC(), Dir: "tx", Node: "n2", Src: "x", Dst: "y", Data: []byte{}}, // empty data
	{Time: time.Date(2014, 2, 28, 23, 59, 59, 999999999, time.UTC), Dir: "tx", Src: "<s>&", Dst: "d e",
		Node: "q\"uo\\te", Path: []netem.NodeID{"p ", "tab\t"}},
	{Time: time.Date(2016, 2, 29, 0, 0, 0, 100, time.FixedZone("", 2*3600)), Dir: "rx", Src: "héllo", Dst: "実験", Data: []byte("x")},
	{Time: time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), Dir: "", Src: "", Dst: "", Node: "bad\xffutf8"},
	{Time: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), Dir: "tx", Src: "\x7f", Dst: "-", Path: []netem.NodeID{""}},
	// All-zero payloads are stored by their length; one set byte is not.
	{Time: time.Unix(1400500800, 5).UTC(), Dir: "tx", Node: "t1", ID: 3, Src: "t1", Dst: "t2", Data: zeros(1)},
	{Time: time.Unix(1400500800, 6).UTC(), Dir: "rx", Node: "t2", ID: 3, Src: "t1", Dst: "t2", Data: zeros(7), Path: []netem.NodeID{"t1", "t2"}},
	{Time: time.Unix(1400500800, 7).UTC(), Dir: "tx", ID: 4, Src: "t1", Dst: "t2", Data: zeros(8)},
	{Time: time.Unix(1400500800, 8).UTC(), Dir: "tx", Node: "t1", ID: 5, Src: "t1", Dst: "t2", Data: zeros(512)},
	{Time: time.Unix(1400500800, 9).UTC(), Dir: "tx", Node: "t1", ID: 6, Src: "t1", Dst: "t2", Data: lastByteSet},
}

// TestPacketLineDecoder checks the seeds both ways: everything json.Encoder
// can write decodes as encoding/json decodes it, and lines without an
// escape or zone offset take the scanner, not the fallback.
func TestPacketLineDecoder(t *testing.T) {
	for i, p := range lineSeeds {
		line := encodeLine(t, p)
		fallback := checkLine(t, line)
		plain := !bytes.ContainsRune(line, '\\') && p.Time.Location() == time.UTC
		if fallback == plain {
			t.Errorf("seed %d %s: fallback=%v", i, line, fallback)
		}
	}
	for _, line := range foreignLines {
		checkLine(t, []byte(line))
	}
}

// foreignLines are not what json.Encoder writes; each is near enough to
// tempt a scanner into a wrong answer.
var foreignLines = []string{
	``, `{}`, `null`, `[]`, `{"time":"`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null} `,
	` {"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null,"path":[]}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null,"path":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null,"path":["a",]}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null,"src":"c"}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":01,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":-1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1e3,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":18446744073709551616,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":65536,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":"QQ="}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":"QR=="}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":"Q Q=="}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":"QQ==","path":["a","b"]`,
	`{"time":"2014-05-19T12:00:00Z","dir":"t` + "\x01" + `x","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"t` + "\xc3" + `","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","node":"","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null,"extra":1}`,
	`{"TIME":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-02-29T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T24:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:60Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00.Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00.1234567890Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00,5Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19t12:00:00z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-5-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"+014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00-00:00","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":null,"dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":null,"dst":"b","data":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":0}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":-1}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":01}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":1e3}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":"3"}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":null}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":65536}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":65537}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":18446744073709551616}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":3,"path":["a"]}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":null,"zeros":3}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","data":"","zeros":3}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":3,"data":"AA=="}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","zeros":3,"zeros":4}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b"}`,
	`{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b","ZEROS":2}`,
	legacyZeros512,
}

// legacyZeros512 is a line as the store wrote a 512-byte all-zero payload
// before such payloads were stored by their length.
var legacyZeros512 = `{"time":"2014-05-19T12:00:00Z","dir":"tx","node":"a","id":1,"tag":2,"src":"a","dst":"b","data":"` +
	base64.StdEncoding.EncodeToString(zeros(512)) + `"}`

// TestLegacyZeroPayloadLine: a payload of zeros written as base64, before
// the zeros form existed, and the same record written now decode to one
// record in both decoders; a nil, an empty and an all-zero payload each
// keep their own form and decode back to themselves.
func TestLegacyZeroPayloadLine(t *testing.T) {
	want := PacketRecord{Time: time.Date(2014, 5, 19, 12, 0, 0, 0, time.UTC), Dir: "tx", Node: "a",
		ID: 1, Tag: 2, Src: "a", Dst: "b", Data: zeros(512)}
	line, err := appendPacketLine(nil, &want, nil)
	if err != nil {
		t.Fatal(err)
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	if !bytes.Contains(line, []byte(`,"zeros":512}`)) {
		t.Fatalf("line %s does not store the payload by its length", line)
	}
	for _, l := range [][]byte{[]byte(legacyZeros512), line} {
		var scanned, unmarshaled PacketRecord
		if !scanPacketLine(l, &scanned, false) {
			t.Fatalf("scanner refuses %s", l)
		}
		if err := unmarshalPacketLine(l, &unmarshaled); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scanned, want) || !reflect.DeepEqual(unmarshaled, want) {
			t.Fatalf("line %.80s…: scanner %+v, encoding/json %+v, want %+v", l, scanned, unmarshaled, want)
		}
	}
	for _, payload := range []string{`"zeros":0`, `"zeros":-1`, `"zeros":65537`, `"zeros":1.5`,
		`"data":"","zeros":3`, `"zeros":3,"data":"AA=="`} {
		l := `{"time":"2014-05-19T12:00:00Z","dir":"tx","id":1,"tag":2,"src":"a","dst":"b",` + payload + `}`
		var p PacketRecord
		if _, err := decodePacketLine([]byte(l), &p); err == nil {
			t.Errorf("%s decodes to %d bytes, want an error", payload, len(p.Data))
		}
	}
	for _, c := range []struct {
		data    []byte
		payload string
	}{
		{nil, `"data":null`},
		{[]byte{}, `"data":""`},
		{zeros(1), `"zeros":1`},
		{zeros(maxZeros), `"zeros":65536`},
		{zeros(maxZeros + 1), `"data":"AAAA`},
	} {
		p := want
		p.Data = c.data
		line, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(line, []byte(`"dst":"b",`+c.payload)) {
			t.Errorf("%d-byte payload (nil %v): line %.120s…, want %s", len(c.data), c.data == nil, line, c.payload)
		}
		var back PacketRecord
		if err := json.Unmarshal(line, &back); err != nil || !reflect.DeepEqual(back, p) {
			t.Errorf("%d-byte payload (nil %v) decodes to %d bytes (nil %v), %v",
				len(c.data), c.data == nil, len(back.Data), back.Data == nil, err)
		}
	}
}

// FuzzPacketLine feeds arbitrary lines to the decoder: whatever it is
// given, it answers as encoding/json answers, and never panics.
func FuzzPacketLine(f *testing.F) {
	for _, p := range lineSeeds {
		f.Add(encodeLine(f, p))
	}
	for _, l := range foreignLines {
		f.Add([]byte(l))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkLine(t, line)
	})
}

// FuzzPacketRecord writes arbitrary records the way json.Encoder does and
// decodes the line: the way out of level 2 and the way in must agree for
// every record, and records without anything to escape must not need the
// fallback.
func FuzzPacketRecord(f *testing.F) {
	for _, p := range lineSeeds {
		var path string
		for _, h := range p.Path {
			path += string(h) + "/"
		}
		f.Add(p.Time.Unix(), int64(p.Time.Nanosecond()), p.Dir, p.Node, p.ID, p.Tag, p.Src, p.Dst, p.Data, p.Data == nil, path)
	}
	f.Fuzz(func(t *testing.T, sec, nsec int64, dir, node string, id uint64, tag uint16, src, dst string, data []byte, nilData bool, path string) {
		p := PacketRecord{Time: time.Unix(sec, nsec).UTC(), Dir: dir, Node: node, ID: id, Tag: tag, Src: src, Dst: dst, Data: data}
		if nilData {
			p.Data = nil
		}
		if path != "" {
			for _, h := range strings.Split(strings.TrimSuffix(path, "/"), "/") {
				p.Path = append(p.Path, netem.NodeID(h))
			}
		}
		if y := p.Time.Year(); y < 0 || y > 9999 {
			t.Skip() // encoding/json refuses to write these
		}
		line := encodeLine(t, p)
		if fallback := checkLine(t, line); fallback && !bytes.ContainsRune(line, '\\') {
			t.Fatalf("line %s has nothing escaped, yet took the fallback", line)
		}
	})
}

// checkEncode holds the packet-line encoder to encoding/json on one record:
// same error or not, the same bytes after whatever the buffer already held,
// the same bytes again from json.Marshal through PacketRecord's method, and
// a line the decoder takes back — by the scanner, unless the line carries
// an escape or a zone offset.
func checkEncode(t *testing.T, p PacketRecord) {
	t.Helper()
	want, wantErr := json.Marshal(wireOf(p))
	const held = "held\n"
	got, err := appendPacketLine([]byte(held), &p, &payloadMemo{})
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("record %+v: encoder error %v, encoding/json error %v", p, err, wantErr)
	}
	viaMethod, methodErr := json.Marshal(p)
	if (methodErr != nil) != (err != nil) || err == nil && !bytes.Equal(viaMethod, want) {
		t.Fatalf("record %+v: json.Marshal gives %q, %v; want %q", p, viaMethod, methodErr, want)
	}
	if err != nil {
		if string(got) != held {
			t.Fatalf("record %+v: failed encode left %q in the buffer", p, got)
		}
		return
	}
	if string(got) != held+string(want)+"\n" {
		t.Fatalf("record %+v:\n got %q\nwant %q", p, got[len(held):], want)
	}
	var back PacketRecord
	fallback, err := decodePacketLine(want, &back)
	if err != nil {
		t.Fatalf("line %s does not decode: %v", want, err)
	}
	_, offset := p.Time.Zone()
	if plain := !bytes.ContainsRune(want, '\\') && offset == 0; fallback == plain {
		t.Fatalf("line %s: fallback=%v", want, fallback)
	}
}

// encodeSeeds are the records the decoder seeds lack: whole seconds,
// trailing zeros in the fraction, local time at offset zero, years json
// refuses, and every escape class in every string field.
var encodeSeeds = []PacketRecord{
	{Time: time.Unix(1400500800, 0).UTC(), Dir: "tx", Node: "A", ID: 1, Tag: 1, Src: "A", Dst: "mcast:mdns", Data: []byte("q")},
	{Time: time.Unix(1400500800, 120000000).UTC(), Dir: "rx", Node: "B", ID: 1, Tag: 1, Src: "A", Dst: "*", Path: []netem.NodeID{"A", "B"}},
	{Time: time.Unix(1400500800, 1).In(time.FixedZone("GMT", 0)), Dir: "rx", Src: "a", Dst: "b"},
	{Time: time.Unix(1400500800, 1).In(time.FixedZone("odd", -90*60)), Dir: "rx", Src: "a", Dst: "b"},
	{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Dir: "tx", Src: "a", Dst: "b"},
	{Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), Dir: "tx", Src: "a", Dst: "b"},
	{Time: time.Time{}, Dir: "<>&", Node: "\u2028\u2029", Src: "\xff\xfe", Dst: "\x00\x1f\n\r\t\"\\",
		Data: bytes.Repeat([]byte{0xfb, 0xff}, 50), Path: []netem.NodeID{"<", "\u2028", "\xc3"}},
	{Time: time.Unix(1400500800, 0).In(time.FixedZone("", 3600)), Dir: "tx", Src: "a", Dst: "b", Data: zeros(512)},
	{Time: time.Unix(1400500800, 0).UTC(), Dir: "tx", Src: "<a>", Dst: "b", Data: zeros(maxZeros)},
	{Time: time.Unix(1400500800, 0).UTC(), Dir: "tx", Src: "a", Dst: "b", Data: zeros(maxZeros + 1)},
}

// TestPacketLineEncoderMatchesMarshal: what WritePackets puts on disk is,
// byte for byte, what encoding/json wrote there before it.
func TestPacketLineEncoderMatchesMarshal(t *testing.T) {
	for _, p := range lineSeeds {
		checkEncode(t, p)
	}
	for _, p := range encodeSeeds {
		checkEncode(t, p)
	}
}

// FuzzPacketLineEncode feeds arbitrary records to the encoder.
func FuzzPacketLineEncode(f *testing.F) {
	for _, seeds := range [][]PacketRecord{lineSeeds, encodeSeeds} {
		for _, p := range seeds {
			var path string
			for _, h := range p.Path {
				path += string(h) + "/"
			}
			_, offset := p.Time.Zone()
			f.Add(p.Time.Unix(), int64(p.Time.Nanosecond()), offset, p.Dir, p.Node, p.ID, p.Tag, p.Src, p.Dst, p.Data, p.Data == nil, path)
		}
	}
	f.Fuzz(func(t *testing.T, sec, nsec int64, offset int, dir, node string, id uint64, tag uint16, src, dst string, data []byte, nilData bool, path string) {
		p := PacketRecord{Time: time.Unix(sec, nsec).UTC(), Dir: dir, Node: node, ID: id, Tag: tag, Src: src, Dst: dst, Data: data}
		if offset != 0 {
			p.Time = p.Time.In(time.FixedZone("", offset))
		}
		if nilData {
			p.Data = nil
		}
		if path != "" {
			for _, h := range strings.Split(strings.TrimSuffix(path, "/"), "/") {
				p.Path = append(p.Path, netem.NodeID(h))
			}
		}
		checkEncode(t, p)
	})
}

// TestSpecialFlagsExactly: special flags a word exactly when one of its
// bytes is one str must look at, whatever the other seven hold — a borrow
// out of a flagged byte may only add to a word already flagged.
func TestSpecialFlagsExactly(t *testing.T) {
	needsLook := func(c byte) bool { return c == '"' || c == '\\' || c < 0x20 || c >= 0x80 }
	for _, fill := range []byte{'A', ' ', '!', '#', '[', ']', 0x7f, 0x21} {
		for pos := 0; pos < 8; pos++ {
			for c := 0; c < 256; c++ {
				var b [8]byte
				for i := range b {
					b[i] = fill
				}
				b[pos] = byte(c)
				if got := special(binary.LittleEndian.Uint64(b[:])); got != needsLook(byte(c)) {
					t.Fatalf("word %q: special = %v", b, got)
				}
			}
		}
	}
}

// TestWritePacketsPayloadMemo: reusing the last payload's base64 changes
// no byte — for repeated, equal, alternating, overlapping, nil and empty
// payloads, for base64 payloads with all-zero ones between them, and for a
// buffer edited in place between two writes. The file is one encoding/json
// line per record.
func TestWritePacketsPayloadMemo(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bytes.Repeat([]byte("a"), 300), []byte("bb")
	slab := []byte("0123456789")
	edited := []byte("edit me")
	rec := func(data []byte) PacketRecord {
		return PacketRecord{Time: time.Unix(1, 0).UTC(), Dir: "tx", Src: "s", Dst: "d", Data: data}
	}
	calls := [][]PacketRecord{
		{rec(a), rec(a), rec(bytes.Clone(a)), rec(b), rec(a), rec(b), rec(b)},
		{rec(nil), rec([]byte{}), rec(nil), rec(b), rec([]byte{}), rec([]byte{}), rec(nil)},
		{rec(slab[:4]), rec(slab[1:5]), rec(slab[:4]), rec(slab[:5]), rec(slab[:0])},
		{rec(a), rec(zeros(512)), rec(a), rec(zeros(3)), rec(lastByteSet), rec(zeros(512)), rec(lastByteSet)},
		{rec(edited), rec(edited)},
		{rec(edited)}, // after the edit below
	}
	var want []byte
	for i, pkts := range calls {
		if i == len(calls)-1 {
			edited[0] = 'E'
		}
		for j := range pkts {
			want = append(append(want, encodeLine(t, pkts[j])...), '\n')
		}
		if err := rs.WritePackets(0, "A", pkts); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(rs.runDir(0, "A"), "packets.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("packets.jsonl:\n got %s\nwant %s", got, want)
	}
}
