package store

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/netem"
	"excovery/internal/store/reldb"
	"excovery/internal/timesync"
)

var base = time.Date(2014, 5, 19, 12, 0, 0, 0, time.UTC)

// fillStore builds a two-run, two-node level-2 store with skewed node
// clocks: node B's local timestamps lead the reference by 100 ms.
func fillStore(t *testing.T, dir string) *RunStore {
	t.Helper()
	rs, err := NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteDescription("<experiment name=\"t\" />"); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		start := base.Add(time.Duration(run) * time.Minute)
		info := RunInfo{Run: run, Start: start, Offsets: []timesync.Measurement{
			{Node: "A", Offset: 0},
			{Node: "B", Offset: 100 * time.Millisecond},
		}}
		if err := rs.WriteRunInfo(info); err != nil {
			t.Fatal(err)
		}
		// A publishes at +1s reference; B records discovery at +1.2s
		// reference, i.e. +1.3s on its fast local clock.
		evA := eventlog.Event{Run: run, Node: "A", Time: start.Add(time.Second),
			Type: "sd_start_publish", Params: map[string]string{"service": "s"}}
		evB := eventlog.Event{Run: run, Node: "B", Time: start.Add(1300 * time.Millisecond),
			Type: "sd_service_add", Params: map[string]string{"service": "s", "node": "A"}}
		if err := rs.WriteEvents(run, "A", []eventlog.Event{evA}); err != nil {
			t.Fatal(err)
		}
		if err := rs.WriteEvents(run, "B", []eventlog.Event{evB}); err != nil {
			t.Fatal(err)
		}
		if err := rs.WritePackets(run, "A", []PacketRecord{{
			Time: start.Add(time.Second), Dir: "tx", ID: 1, Src: "A", Dst: "mcast:mdns",
			Data: []byte("announce"),
		}}); err != nil {
			t.Fatal(err)
		}
		if err := rs.WritePackets(run, "B", []PacketRecord{{
			Time: start.Add(1102 * time.Millisecond), Dir: "rx", ID: 1, Src: "A", Dst: "mcast:mdns",
			Data: []byte("announce"), Path: []netem.NodeID{"A", "B"},
		}}); err != nil {
			t.Fatal(err)
		}
		if err := rs.AppendLog(run, "A", "run log line\n"); err != nil {
			t.Fatal(err)
		}
		if err := rs.WriteExtra(run, "B", "cpu.txt", []byte("42%")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.WriteExperimentMeasurement("master", "topology.txt", []byte("A-B 1 hop")); err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestLevel2RoundTrip(t *testing.T) {
	rs := fillStore(t, t.TempDir())
	runs, err := rs.Runs()
	if err != nil || len(runs) != 2 {
		t.Fatalf("runs = %v, %v", runs, err)
	}
	nodes, err := rs.RunNodes(0)
	if err != nil || strings.Join(nodes, ",") != "A,B" {
		t.Fatalf("nodes = %v, %v", nodes, err)
	}
	evs, err := rs.ReadEvents(0, "B")
	if err != nil || len(evs) != 1 || evs[0].Type != "sd_service_add" {
		t.Fatalf("events = %v, %v", evs, err)
	}
	pkts, err := rs.ReadPackets(0, "B")
	if err != nil || len(pkts) != 1 || pkts[0].Src != "A" {
		t.Fatalf("packets = %v, %v", pkts, err)
	}
	if log, _ := rs.ReadLog(0, "A"); log != "run log line\n" {
		t.Fatalf("log = %q", log)
	}
	if log, _ := rs.ReadLog(0, "Z"); log != "" {
		t.Fatalf("missing log = %q", log)
	}
	extras, err := rs.ListExtras(0)
	if err != nil || len(extras) != 1 || extras[0].Name != "cpu.txt" {
		t.Fatalf("extras = %v, %v", extras, err)
	}
	info, err := rs.ReadRunInfo(1)
	if err != nil || len(info.Offsets) != 2 {
		t.Fatalf("runinfo = %+v, %v", info, err)
	}
	desc, err := rs.ReadDescription()
	if err != nil || !strings.Contains(desc, "experiment") {
		t.Fatalf("description = %q, %v", desc, err)
	}
	ems, err := rs.ListExperimentMeasurements()
	if err != nil || len(ems) != 1 || ems[0].Node != "master" {
		t.Fatalf("experiment measurements = %v, %v", ems, err)
	}
}

func TestEmptyStoreReads(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if runs, err := rs.Runs(); err != nil || runs != nil {
		t.Fatalf("Runs = %v, %v", runs, err)
	}
	if evs, err := rs.ReadEvents(0, "X"); err != nil || evs != nil {
		t.Fatalf("ReadEvents = %v, %v", evs, err)
	}
	if ex, err := rs.ListExtras(3); err != nil || ex != nil {
		t.Fatalf("ListExtras = %v, %v", ex, err)
	}
}

func TestConditionBuildsTableI(t *testing.T) {
	rs := fillStore(t, t.TempDir())
	e, err := Condition(rs, Meta{ExpXML: "<x/>", Name: "exp1", Comment: "c"})
	if err != nil {
		t.Fatal(err)
	}
	// All Table I tables exist.
	want := []string{"ExperimentInfo", "Logs", "EEFiles", "ExperimentMeasurements",
		"RunInfos", "ExtraRunMeasurements", "Events", "Packets"}
	got := e.DB.Tables()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing table %s (have %v)", w, got)
		}
	}
	info, err := e.Info()
	if err != nil || info.Name != "exp1" {
		t.Fatalf("Info = %+v, %v", info, err)
	}
	if n, _ := e.DB.Count("Events"); n != 4 {
		t.Fatalf("Events rows = %d", n)
	}
	if n, _ := e.DB.Count("Packets"); n != 4 {
		t.Fatalf("Packets rows = %d", n)
	}
	if n, _ := e.DB.Count("RunInfos"); n != 4 {
		t.Fatalf("RunInfos rows = %d", n)
	}
	if n, _ := e.DB.Count("Logs"); n != 1 {
		t.Fatalf("Logs rows = %d", n)
	}
	if n, _ := e.DB.Count("ExtraRunMeasurements"); n != 2 {
		t.Fatalf("Extra rows = %d", n)
	}
	if n, _ := e.DB.Count("ExperimentMeasurements"); n != 1 {
		t.Fatalf("ExperimentMeasurements rows = %d", n)
	}
	runs, err := e.RunIDs()
	if err != nil || len(runs) != 2 {
		t.Fatalf("RunIDs = %v, %v", runs, err)
	}
}

func TestConditioningCorrectsTimeBase(t *testing.T) {
	rs := fillStore(t, t.TempDir())
	e, err := Condition(rs, Meta{Name: "exp1"})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := e.EventsOfRun(0)
	if err != nil || len(evs) != 2 {
		t.Fatalf("events = %v, %v", evs, err)
	}
	// Order on the common time base: publish (A, +1s) before discovery
	// (B, +1.2s after correction of the 100ms skew).
	if evs[0].Type != "sd_start_publish" || evs[1].Type != "sd_service_add" {
		t.Fatalf("order = %s, %s", evs[0].Type, evs[1].Type)
	}
	gap := evs[1].Time.Sub(evs[0].Time)
	if gap != 200*time.Millisecond {
		t.Fatalf("conditioned gap = %v, want 200ms (skew removed)", gap)
	}
	// Without conditioning the raw gap would have been 300ms.
	raw, _ := rs.ReadEvents(0, "B")
	rawGap := raw[0].Time.Sub(base.Add(time.Second))
	if rawGap != 300*time.Millisecond {
		t.Fatalf("raw gap = %v", rawGap)
	}
	// No causality violation: the rx capture (B) must not precede the tx
	// capture (A) on the common base.
	pkts, err := e.PacketsOfRun(0)
	if err != nil || len(pkts) != 2 {
		t.Fatalf("packets = %v, %v", pkts, err)
	}
	if pkts[0].Dir != "tx" || pkts[1].Dir != "rx" {
		t.Fatalf("packet order: %s before %s", pkts[0].Dir, pkts[1].Dir)
	}
	if pkts[1].Time.Before(pkts[0].Time) {
		t.Fatal("effect precedes cause after conditioning")
	}
}

func TestExperimentDBSaveLoad(t *testing.T) {
	rs := fillStore(t, t.TempDir())
	e, err := Condition(rs, Meta{ExpXML: "<x/>", Name: "exp1"})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/exp1.xcdb"
	if err := e.Save(path); err != nil {
		t.Fatal(err)
	}
	e2, err := OpenExperimentDB(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := e2.EventsOfRun(1)
	if err != nil || len(evs) != 2 {
		t.Fatalf("loaded events = %v, %v", evs, err)
	}
	if evs[1].Params["node"] != "A" {
		t.Fatalf("params lost: %v", evs[1].Params)
	}
}

func TestDecodeParams(t *testing.T) {
	if DecodeParams("") != nil {
		t.Fatal("empty should be nil")
	}
	if DecodeParams("not json") != nil {
		t.Fatal("garbage should be nil")
	}
	m := DecodeParams(`{"a":"1"}`)
	if m["a"] != "1" {
		t.Fatalf("m = %v", m)
	}
	if got := encodeParams(nil); got != "" {
		t.Fatalf("encodeParams(nil) = %q", got)
	}
}

func TestEventsQueryByTypeViaDB(t *testing.T) {
	rs := fillStore(t, t.TempDir())
	e, err := Condition(rs, Meta{Name: "exp1"})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.DB.Select(reldb.Query{
		Table: "Events",
		Where: []reldb.Pred{reldb.Eq("EventType", "sd_service_add")},
	})
	if err != nil || len(rows) != 2 {
		t.Fatalf("typed select = %d rows, %v", len(rows), err)
	}
}

func TestConditionRequiresRunInfo(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Events exist but no runinfo: conditioning cannot establish the
	// common time base and must fail loudly.
	if err := rs.WriteEvents(0, "A", []eventlog.Event{{Node: "A", Type: "x", Time: base}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Condition(rs, Meta{Name: "broken"}); err == nil {
		t.Fatal("conditioning without runinfo succeeded")
	}
}

func TestConditionWithoutOffsetsKeepsLocalTimes(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteRunInfo(RunInfo{Run: 0, Start: base}); err != nil {
		t.Fatal(err)
	}
	ev := eventlog.Event{Run: 0, Node: "A", Type: "x", Time: base.Add(time.Second)}
	if err := rs.WriteEvents(0, "A", []eventlog.Event{ev}); err != nil {
		t.Fatal(err)
	}
	db, err := Condition(rs, Meta{Name: "no-offsets"})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := db.EventsOfRun(0)
	if err != nil || len(evs) != 1 {
		t.Fatalf("events = %v, %v", evs, err)
	}
	// Unknown node offset: time passes through unchanged.
	if !evs[0].Time.Equal(ev.Time) {
		t.Fatalf("time = %v, want %v", evs[0].Time, ev.Time)
	}
}

func TestRunStoreDoneMarkers(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rs.RunDone(3) {
		t.Fatal("unmarked run reported done")
	}
	if err := rs.MarkRunDone(3); err != nil {
		t.Fatal(err)
	}
	if !rs.RunDone(3) {
		t.Fatal("marked run not reported done")
	}
}

func TestOpenExperimentDBMissing(t *testing.T) {
	if _, err := OpenExperimentDB(t.TempDir() + "/nope.xcdb"); err == nil {
		t.Fatal("missing DB opened")
	}
}

func TestInfoOnEmptyDB(t *testing.T) {
	db, err := NewExperimentDB()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Info(); err == nil {
		t.Fatal("Info on empty ExperimentInfo succeeded")
	}
}

func TestFromCapturePreservesFields(t *testing.T) {
	caps := []netem.Capture{
		{Time: base, Dir: netem.CaptureRx, Node: "B", ID: 7, Tag: 3, Src: "A",
			Dst: netem.Multicast("mdns"), Payload: []byte("p"),
			Path: []netem.NodeID{"A", "B"}},
		{Time: base, Dir: netem.CaptureTx, Node: "B", ID: 8, Src: "B", Dst: netem.Unicast("A")},
		{Time: base, Dir: netem.CaptureTx, Node: "B", ID: 9, Src: "B", Dst: netem.Broadcast(),
			Path: []netem.NodeID{"B"}},
		{Time: base, Dir: netem.CaptureTx, Node: "B", ID: 10, Src: "B", Dst: netem.Multicast("mdns")},
	}
	want := []PacketRecord{
		{Time: base, Dir: "rx", Node: "B", ID: 7, Tag: 3, Src: "A", Dst: "mcast:mdns",
			Data: []byte("p"), Path: []netem.NodeID{"A", "B"}},
		{Time: base, Dir: "tx", Node: "B", ID: 8, Src: "B", Dst: "A"},
		{Time: base, Dir: "tx", Node: "B", ID: 9, Src: "B", Dst: "*", Path: []netem.NodeID{"B"}},
		{Time: base, Dir: "tx", Node: "B", ID: 10, Src: "B", Dst: "mcast:mdns"},
	}
	got := FromCaptures(caps)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %+v\nwant %+v", got, want)
	}
	// The records own their paths: overwriting the captures' leaves them.
	caps[0].Path[0], caps[2].Path[0] = "X", "Y"
	got[0].Path = append(got[0].Path, "C") // must not write into record 2's path
	if got[0].Path[0] != "A" || got[2].Path[0] != "B" {
		t.Fatalf("records share memory with the captures or each other: %+v", got)
	}
}
