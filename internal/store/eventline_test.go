package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"excovery/internal/eventlog"
)

// checkEventLine holds the event-line scanner to encoding/json on one line:
// whatever the scanner accepts, json.Unmarshal accepts too and gives the
// same event, its time in the same location. It also holds DecodeParams to
// the encoding/json call it replaced, on the same bytes.
func checkEventLine(t *testing.T, line []byte) (scanned bool) {
	t.Helper()
	var got eventlog.Event
	if scanEventLine(line, &got) {
		var want eventlog.Event
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("line %q: scanned as %#v, encoding/json refuses it: %v", line, got, err)
		}
		if !reflect.DeepEqual(got, want) || got.Time.Location() != want.Time.Location() {
			t.Fatalf("line %q:\n got %#v\nwant %#v", line, got, want)
		}
		scanned = true
	}
	var want map[string]string
	if len(line) == 0 || json.Unmarshal(line, &want) != nil {
		want = nil
	}
	if got := DecodeParams(string(line)); !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeParams(%q) = %#v, encoding/json gives %#v", line, got, want)
	}
	return scanned
}

var eventSeeds = []eventlog.Event{
	{Run: 3, Node: "B", Time: time.Unix(1400500800, 120000000).UTC(), Type: "sd_service_add",
		Params: map[string]string{"node": "A", "service": "s"}, Seq: 17},
	{Run: -1, Node: "", Time: time.Unix(0, 0).UTC(), Type: "run_init"},                         // nil params
	{Run: 0, Node: "A", Time: time.Unix(1, 1).UTC(), Type: "x", Params: map[string]string{}},   // empty params
	{Run: math.MaxInt, Node: "n", Time: time.Unix(2, 0).UTC(), Type: "t", Seq: math.MaxUint64}, // largest ids
	{Run: math.MinInt, Node: "n", Time: time.Unix(2, 5).UTC(), Type: "t", Params: map[string]string{"": ""}},
	{Run: 1, Node: "héllo", Time: time.Unix(3, 0).UTC(), Type: "実験", Params: map[string]string{"k": "\x7f"}},
	{Run: 1, Node: "<n>", Time: time.Unix(3, 0).UTC(), Type: "t"},                                    // HTML escape
	{Run: 1, Node: "n", Time: time.Unix(3, 0).UTC(), Type: "t", Params: map[string]string{"q": `"`}}, // escape in params
	{Run: 1, Node: "bad\xffutf8", Time: time.Unix(3, 0).UTC(), Type: "t"},
	{Run: 1, Node: "n", Time: time.Unix(3, 0).In(time.FixedZone("", 3600)), Type: "t"}, // zone offset
	{Run: 1, Node: "n", Time: time.Unix(3, 0).In(time.FixedZone("GMT", 0)), Type: "t"}, // zero offset, not UTC
}

// TestEventLineScanner: every line WriteEvents writes is scanned exactly
// when nothing in it is escaped and its time reads "Z", and the scan agrees
// with encoding/json; foreign lines are left to encoding/json.
func TestEventLineScanner(t *testing.T) {
	for i, ev := range eventSeeds {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		_, offset := ev.Time.Zone()
		plain := !bytes.ContainsRune(line, '\\') && offset == 0
		if scanned := checkEventLine(t, line); scanned != plain {
			t.Errorf("seed %d %s: scanned=%v", i, line, scanned)
		}
	}
	for _, line := range foreignEventLines {
		if checkEventLine(t, []byte(line)) {
			t.Errorf("foreign line %s scanned", line)
		}
	}
}

// foreignEventLines are not what WriteEvents writes, and must not be
// scanned (some are valid JSON that encoding/json reads differently).
var foreignEventLines = []string{
	``, `{}`, `null`, `[]`, `{"Run":`,
	` {"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0} `,
	`{"run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0,"Seq":1}`,
	`{"Run":01,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":-,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":1.0,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":9223372036854775808,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":-9223372036854775809,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":-1}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":18446744073709551616}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00+00:00","Type":"t","Params":null,"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-02-30T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":1,"Node":null,"Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":{"a":1},"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":{"a":null},"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":{"a":"b",},"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":{"a" :"b"},"Seq":0}`,
	`{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":[],"Seq":0}`,
	`{"a":"b"}`, `{"a":"b","a":"c"}`, `{"a":"b"} `, `{"a":"\u0041"}`, `{"a":"b"`, `{"a"}`,
}

// FuzzEventLine feeds arbitrary lines to the scanner and to DecodeParams:
// whatever the scanner accepts, encoding/json reads the same way, and
// neither panics.
func FuzzEventLine(f *testing.F) {
	for _, ev := range eventSeeds {
		line, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	for _, l := range foreignEventLines {
		f.Add([]byte(l))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkEventLine(t, line)
	})
}

// readEventsBefore is how every events file was read before the scanner:
// one json.Decoder over the file.
func readEventsBefore(t *testing.T, path string) ([]eventlog.Event, bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []eventlog.Event
	dec := json.NewDecoder(f)
	for dec.More() {
		var ev eventlog.Event
		if err := dec.Decode(&ev); err != nil {
			return out, false
		}
		out = append(out, ev)
	}
	return out, true
}

// TestReadEventsMatchesDecoder: ReadEvents and ParseEventLines yield, accept
// and refuse what the stream decoder did, for files of the stored shape and
// for files that are not — several values on one line, one value over two
// lines, blank lines, a broken second line, a stray bracket.
func TestReadEventsMatchesDecoder(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteEvents(0, "A", eventSeeds); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(rs.runDir(0, "A"), "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	a := `{"Run":1,"Node":"n","Time":"2014-05-19T12:00:00Z","Type":"t","Params":null,"Seq":0}`
	b := `{"Run":2,"Node":"m","Time":"2014-05-19T12:00:01.5Z","Type":"u","Params":{"k":"v"},"Seq":1}`
	for name, file := range map[string]string{
		"stored":           string(stored),
		"plain":            a + "\n" + b + "\n",
		"no final newline": a + "\n" + b,
		"blank lines":      "\n" + a + "\r\n\t \n" + b + "\n\n",
		"two on a line":    a + b + "\n",
		"split value":      a[:20] + "\n" + a[20:] + "\n",
		"broken second":    a + "\n" + b[:30] + "\n",
		"stray bracket":    a + "\n]\n" + b + "\n",
		"empty":            "",
	} {
		path := filepath.Join(rs.runDir(1, name), "events.jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantOK := readEventsBefore(t, path)
		got, err := rs.ReadEvents(1, name)
		if (err == nil) != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ReadEvents = %v, %v; the decoder gave %v, ok=%v", name, got, err, want, wantOK)
		}
		// The control channel's event documents are the same text.
		if got, err := ParseEventLines([]byte(file)); (err == nil) != wantOK || len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ParseEventLines = %v, %v; the decoder gave %v, ok=%v", name, got, err, want, wantOK)
		}
	}
	// The seeds include escapes and zone offsets, so their file is the
	// decoder's; two plain lines are the scanner's.
	if _, ok := scanEvents(stored); ok {
		t.Error("a file with escaped lines was scanned")
	}
	if evs, ok := scanEvents([]byte(a + "\n" + b + "\n")); !ok || len(evs) != 2 {
		t.Errorf("plain file: scanned=%v, %d events", ok, len(evs))
	}
}

// checkEventEncode holds the event-line encoder to encoding/json on one
// event: same error or not, the same bytes after whatever the buffer
// already held, and a line the scanner takes back unless it carries an
// escape or a zone offset.
func checkEventEncode(t *testing.T, ev eventlog.Event) {
	t.Helper()
	want, wantErr := json.Marshal(&ev)
	const held = "held\n"
	got, err := AppendEventLine([]byte(held), &ev)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("event %#v: encoder error %v, encoding/json error %v", ev, err, wantErr)
	}
	if err != nil {
		if string(got) != held {
			t.Fatalf("event %#v: failed encode left %q in the buffer", ev, got)
		}
		return
	}
	if string(got) != held+string(want)+"\n" {
		t.Fatalf("event %#v:\n got %q\nwant %q", ev, got[len(held):], want)
	}
	_, offset := ev.Time.Zone()
	if plain := !bytes.ContainsRune(want, '\\') && offset == 0; checkEventLine(t, want) != plain {
		t.Fatalf("line %s: scanned=%v", want, !plain)
	}
}

// eventEncodeSeeds are the events the scanner seeds lack: HTML and line
// separator escapes in every string, years encoding/json refuses, a
// negative run with a zone offset.
var eventEncodeSeeds = []eventlog.Event{
	{Run: 2, Node: "a<b>&c", Time: time.Unix(5, 0).UTC(), Type: "\u2028\u2029",
		Params: map[string]string{"<k>": "v&\u2028", "\n": "\x00\"\\", "z": "", "a": "\xff"}},
	{Run: -7, Node: "n", Time: time.Unix(5, 999999999).In(time.FixedZone("", -90*60)), Type: "t",
		Params: map[string]string{}},
	{Run: 1, Node: "n", Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Type: "t"},
	{Run: 1, Node: "n", Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), Type: "t"},
	{Run: 1, Node: "n", Time: time.Time{}, Type: "t", Params: map[string]string{"b": "1", "a": "2", "c": "3",
		"d": "4", "e": "5", "f": "6", "g": "7", "h": "8", "i": "9", "j": "10"}},
}

// encodeEventsBefore is how WriteEvents wrote an events file before the
// line encoder: json.Encoder through a bufio.Writer, nothing written when
// an event fails to encode.
func encodeEventsBefore(events []eventlog.Event) ([]byte, error) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return out.Bytes(), err
		}
	}
	err := w.Flush()
	return out.Bytes(), err
}

// TestWriteEventsMatchesEncoder: the file WriteEvents writes — appended to,
// or refused — is byte for byte the json.Encoder loop's.
func TestWriteEventsMatchesEncoder(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ok := append(append([]eventlog.Event{}, eventSeeds...), eventEncodeSeeds[0], eventEncodeSeeds[1], eventEncodeSeeds[4])
	for name, calls := range map[string][][]eventlog.Event{
		"seeds":       {ok},
		"appended":    {ok[:3], nil, ok[3:]},
		"none":        {nil},
		"year 10000":  {ok[:2], {eventEncodeSeeds[2]}},
		"year -1":     {{eventEncodeSeeds[3]}},
		"bad in list": {{ok[0], eventEncodeSeeds[2], ok[1]}},
	} {
		var want []byte
		var wantErr, gotErr error
		for _, evs := range calls {
			b, err := encodeEventsBefore(evs)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, b...)
		}
		for _, evs := range calls {
			if gotErr = rs.WriteEvents(0, name, evs); gotErr != nil {
				break
			}
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, the encoder's %v", name, gotErr, wantErr)
		}
		got, err := os.ReadFile(filepath.Join(rs.runDir(0, name), "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
}

// FuzzEventLineEncode feeds arbitrary events to the encoder. params holds
// alternating keys and values, one per line.
func FuzzEventLineEncode(f *testing.F) {
	for _, seeds := range [][]eventlog.Event{eventSeeds, eventEncodeSeeds} {
		for _, ev := range seeds {
			var params string
			for k, v := range ev.Params {
				params += k + "\n" + v + "\n"
			}
			_, offset := ev.Time.Zone()
			f.Add(ev.Run, ev.Node, ev.Time.Unix(), int64(ev.Time.Nanosecond()), offset, ev.Type, params, ev.Params == nil, ev.Seq)
		}
	}
	f.Fuzz(func(t *testing.T, run int, node string, sec, nsec int64, offset int, typ, params string, nilParams bool, seq uint64) {
		ev := eventlog.Event{Run: run, Node: node, Time: time.Unix(sec, nsec).UTC(), Type: typ, Seq: seq}
		if offset != 0 {
			ev.Time = ev.Time.In(time.FixedZone("", offset))
		}
		if !nilParams {
			ev.Params = map[string]string{}
			kv := strings.Split(params, "\n")
			for i := 0; i+1 < len(kv); i += 2 {
				ev.Params[kv[i]] = kv[i+1]
			}
		}
		checkEventEncode(t, ev)
	})
}
