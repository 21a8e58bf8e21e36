package xmlrpc

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/store"
)

// wireGolden holds the exact bytes of every document in wireDocs, each as a
// line "== <name>" followed by the document and a newline.
// A document's only raw newline is the one that ends xml.Header: the encoder
// escapes every newline of a string.
const wireGolden = "testdata/wire.golden"

// updateWire rewrites wireGolden from wireDocs, after a deliberate change
// to what a method sends or answers:
//
//	go test ./internal/xmlrpc -run WireBytesPinned -update
var updateWire = flag.Bool("update", false, "rewrite "+wireGolden+" from the current encoders")

// tricky is a string with every byte the escaper has to replace.
const tricky = "a<b & c>\"d\" 'e'\n\tf\r"

type wireDoc struct {
	name string
	doc  []byte
}

// wireDocs encodes one representative call of every method the node host
// (noderpc.Host.Server), the master (noderpc.MasterServer) and the registry
// (discovery.Registry.Server) register, with parameters of the shapes their
// callers send, the response each handler answers, and fault responses.
// Three more calls cover what no method sends today: a nested struct and
// array, a dateTime, base64, doubles, a false boolean, and strings with
// invalid UTF-8, control bytes and non-ASCII runes.
func wireDocs(t testing.TB) []wireDoc {
	t.Helper()
	nodes := []any{"A", "B"}
	when := time.Date(2014, 5, 19, 13, 37, 42, 0, time.UTC)
	// lines is an event document: the text of a level-2 events file, which
	// the six event-carrying replies, master.events and
	// node.harvest_events carry.
	lines := func(evs ...eventlog.Event) string {
		var b []byte
		for i := range evs {
			var err error
			if b, err = store.AppendEventLine(b, &evs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return string(b)
	}
	at := when.Add(500 * time.Millisecond)
	ev := func(node, typ string, params map[string]string, seq uint64) eventlog.Event {
		return eventlog.Event{Run: 17, Node: node, Time: at, Type: typ, Params: params, Seq: seq}
	}
	calls := []struct {
		method string
		params []any
		result any
	}{
		// Node host.
		{"host.ping", nil, "pong"},
		{"host.nodes", nil, []any{"A", "B"}},
		{"host.set_master", []any{"http://127.0.0.1:18801/RPC2", "m-1a2b", 15000}, true},
		{"host.renew_lease", []any{"m-1a2b", 15000}, true},
		{"node.ping", []any{nodes}, "pong"},
		{"node.prepare_run", []any{nodes, 17},
			lines(ev("A", "run_init", nil, 1), ev("B", "run_init", nil, 2))},
		{"node.cleanup_run", []any{nodes, 17},
			lines(ev("A", "run_exit", nil, 9), ev("B", "run_exit", nil, 10))},
		{"node.execute", []any{"A", "sd_start_search", map[string]string{
			"note": tricky, "service": "_excovery._udp"}},
			lines(ev("A", "sd_start_search", map[string]string{"note": tricky, "service": "_excovery._udp"}, 3),
				ev("B", "sd_service_add", map[string]string{"node": "A"}, 4))},
		{"node.emit", []any{"B", "ready_to_init", map[string]string{}},
			lines(ev("B", "ready_to_init", map[string]string{}, 5))},
		{"node.local_time", []any{nodes}, []any{
			"2014-05-19T13:37:42.123456789Z", "2014-05-19T13:37:42.123456789Z"}},
		{"node.harvest_events", []any{"A", 17},
			lines(ev("A", "sd_start_search", map[string]string{"service": "_excovery._udp"}, 3))},
		{"node.harvest_packets", []any{"A"},
			`[{"time":"2014-05-19T13:37:42.5Z","dir":"tx","id":3,"tag":1,"src":"A","dst":"B","data":"AAEC"}]`},
		{"node.harvest_extras", []any{"A"}, `[{"node":"A","name":"route.txt","content":"A B 1\n"}]`},
		{"env.execute", []any{"env_traffic_start", map[string]string{"bw": "50", "pairs": "5"}}, lines()},
		{"env.reset", nil, lines()},
		{"host.harvest_trace", []any{17}, `{"spans":[{"id":9,"parent":4,"name":"node.execute","cat":"rpc"}]}`},
		{"host.obs_snapshot", nil, `[{"name":"excovery_host_events_forwarded_total","value":25}]`},
		{"system.listMethods", nil, []any{"host.nodes", "host.ping", "system.listMethods"}},
		// Master.
		{"master.events", []any{lines(ev("B", "sd_service_add", map[string]string{"name": tricky}, 4))}, true},
		// Registry.
		{"registry.ping", nil, "pong"},
		{"registry.register", []any{"h1", "http://127.0.0.1:18800/RPC2", []string{"A", "B"}, "eu", 15000, 3}, 15000},
		{"registry.heartbeat", []any{"h1", 15000}, true},
		{"registry.claim", []any{"m-1a2b", 0, "eu"}, `[{"id":"h1","url":"http://127.0.0.1:18800/RPC2","nodes":["A","B"],"epoch":4}]`},
		{"registry.release", []any{"m-1a2b", "h1"}, true},
		{"registry.report_down", []any{"m-1a2b", "h1"}, true},
		{"registry.fleet", nil, `[{"id":"h1","url":"http://127.0.0.1:18800/RPC2","nodes":["A","B"],"epoch":4}]`},
		// Value types no method uses yet.
		{"wire.nested", []any{map[string]any{
			"list":  []any{1, "two", []any{}, map[string]any{"deep": []any{true, false}}},
			"empty": map[string]any{},
			"<k&>":  -7,
		}}, map[string]any{"a": []any{map[string]any{"b": "c"}}}},
		{"wire.scalars", []any{when, []byte{0, 1, 2, 254, 255, 'x'}, 3.25, -0.5, 1e21, float32(0.1), false, int32(-1 << 31), int64(1<<31 - 1)},
			[]any{when, []byte{}, ""}},
		{"wire.strings", []any{"bad \xff\xfe utf-8", "ctrl \x00\x1f\x7f", "na\u00efve \u2014 \u2603 \U0001F600", "\uFFFD", ""},
			"\xc3"},
	}
	var docs []wireDoc
	for _, c := range calls {
		call, err := EncodeCall(c.method, c.params...)
		if err != nil {
			t.Fatalf("EncodeCall(%s): %v", c.method, err)
		}
		resp, err := EncodeResponse(c.result)
		if err != nil {
			t.Fatalf("EncodeResponse(%s): %v", c.method, err)
		}
		docs = append(docs, wireDoc{c.method + ".call", call}, wireDoc{c.method + ".response", resp})
	}
	for _, f := range []struct {
		name  string
		fault *Fault
	}{
		{"fault.fenced", &Fault{Code: 1, String: "node.execute: fenced: stale epoch 2 (host claimed at epoch 3)"}},
		{"fault.not_found", &Fault{Code: -32601, String: "method not found: node.nosuch"}},
		{"fault.bad_args", &Fault{Code: -32602, String: "master.events: want json string"}},
		{"fault.tricky", &Fault{Code: 0, String: tricky}},
	} {
		docs = append(docs, wireDoc{f.name, EncodeFault(f.fault)})
	}
	return docs
}

// readWireGolden parses wireGolden into its named documents, in file order.
func readWireGolden(t testing.TB) []wireDoc {
	t.Helper()
	data, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	var docs []wireDoc
	for _, part := range strings.Split("\n"+strings.TrimSuffix(string(data), "\n"), "\n== ")[1:] {
		name, doc, ok := strings.Cut(part, "\n")
		if !ok {
			t.Fatalf("%s: malformed entry %q", wireGolden, part)
		}
		docs = append(docs, wireDoc{name, []byte(doc)})
	}
	return docs
}

// TestWireBytesPinned holds the encoders to fixed bytes: a change to how a
// value is written, escaped or ordered shows here, whatever the decoders
// still accept.
func TestWireBytesPinned(t *testing.T) {
	got := wireDocs(t)
	if *updateWire {
		var b bytes.Buffer
		for _, d := range got {
			b.WriteString("== " + d.name + "\n")
			b.Write(d.doc)
			b.WriteByte('\n')
		}
		if err := os.WriteFile(wireGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readWireGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d documents, %s has %d", len(got), wireGolden, len(want))
	}
	for i, d := range got {
		if d.name != want[i].name {
			t.Fatalf("document %d is %s, %s has %s", i, d.name, wireGolden, want[i].name)
		}
		if !bytes.Equal(d.doc, want[i].doc) {
			t.Errorf("%s:\n got %s\nwant %s", d.name, d.doc, want[i].doc)
		}
	}
}
