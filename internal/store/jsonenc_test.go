package store

import (
	"encoding/json"
	"testing"
	"time"

	"excovery/internal/netem"
)

// TestEncodeParamsMatchesJSON pins the hand-rolled Parameter encoding to
// encoding/json byte for byte: level-3 databases written before and after
// the optimization must be identical, and DecodeParams still parses with
// encoding/json.
func TestEncodeParamsMatchesJSON(t *testing.T) {
	cases := []map[string]string{
		{"a": "b"},
		{"z": "1", "a": "2", "m": "3"}, // key sorting
		{"plain": "hello world"},
		{"quote": `say "hi"`, "backslash": `a\b`},
		{"newline": "a\nb", "cr": "a\rb", "tab": "a\tb"},
		{"ctl": "a\x01b\x1fc", "nul": "\x00", "bs-ff": "a\bb\fc"},
		{"html": "<b>&amp;</b>", "angle": "1<2>3&4"},
		{"unicode": "héllo wörld", "cjk": "実験", "emoji": "🧪"},
		{"seps": "a\u2028b\u2029c"},
		{"invalid": "a\xffb\xfe", "lone": "\xc3"},
		{"trunc": "ok\xe2\x80"}, // truncated multi-byte sequence
		{"mixed": "x<\xff\u2028\"\n>"},
		{"key\nwith\x02esc&": "v"},
		{"": ""},
	}
	for _, p := range cases {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", p, err)
		}
		if got := encodeParams(p); got != string(want) {
			t.Errorf("encodeParams(%q):\n got %q\nwant %q", p, got, want)
		}
	}
	if got := encodeParams(nil); got != "" {
		t.Errorf("encodeParams(nil) = %q, want empty", got)
	}
	// Round trip through DecodeParams (encoding/json parser).
	p := map[string]string{"seps": "a\u2028b", "q": `"`, "u": "日\x7f"}
	back := DecodeParams(encodeParams(p))
	if len(back) != len(p) {
		t.Fatalf("round trip lost keys: %v", back)
	}
	for k, v := range p {
		if back[k] != v {
			t.Errorf("round trip %q: got %q want %q", k, back[k], v)
		}
	}
}

// TestPacketLineMatchesMarshal pins the raw-line reuse in Condition: the
// stored packets.jsonl line must be byte-identical to re-marshaling the
// decoded record, because conditioning now feeds the line directly into
// the Packets.Data column instead of a fresh json.Marshal.
func TestPacketLineMatchesMarshal(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(3, 141592653).UTC()
	pkts := []PacketRecord{
		{Time: ts, Dir: "rx", Node: "n1", ID: 7, Tag: 65535, Src: "a",
			Dst: "mdns", Data: []byte{0x00, 0xff, '<', '&'}, Path: []netem.NodeID{"a", "b"}},
		{Time: ts.Add(time.Microsecond), Dir: "tx", ID: 8, Src: "b", Dst: "c"},
		{Time: ts, Dir: "tx", Node: "n2", ID: 9, Src: "x", Dst: "y", Data: []byte{}},
		{Time: ts, Dir: "tx", Node: "n2", ID: 10, Src: "x", Dst: "y", Data: make([]byte, 512)},
	}
	if err := rs.WritePackets(4, "n1", pkts); err != nil {
		t.Fatal(err)
	}
	var i int
	err = rs.ForEachPacketLine(4, "n1", func(tm time.Time, src string, line []byte) error {
		var p PacketRecord
		if err := json.Unmarshal(line, &p); err != nil {
			return err
		}
		want, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if string(line) != string(want) {
			t.Errorf("packet %d: stored line differs from re-marshal:\n got %s\nwant %s", i, line, want)
		}
		if !tm.Equal(pkts[i].Time) || src != pkts[i].Src {
			t.Errorf("packet %d: meta (%v, %q), want (%v, %q)", i, tm, src, pkts[i].Time, pkts[i].Src)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(pkts) {
		t.Fatalf("streamed %d packets, want %d", i, len(pkts))
	}
}
