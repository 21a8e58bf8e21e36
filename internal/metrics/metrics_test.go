package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/sd"
	"excovery/internal/store"
)

var t0 = time.Date(2014, 5, 19, 0, 0, 0, 0, time.UTC)

func ev(node, typ string, at time.Duration, params map[string]string) eventlog.Event {
	return eventlog.Event{Node: node, Type: typ, Time: t0.Add(at), Params: params}
}

func TestExtractRunComplete(t *testing.T) {
	events := []eventlog.Event{
		ev("B", sd.EvStartSearch, 0, nil),
		ev("B", sd.EvServiceAdd, 100*time.Millisecond, map[string]string{"node": "A"}),
		ev("B", sd.EvServiceAdd, 300*time.Millisecond, map[string]string{"node": "C"}),
	}
	m := ExtractRun(events, []string{"A", "C"}, []string{"B"})
	if !m.Complete || m.Found != 2 || m.Expected != 2 {
		t.Fatalf("m = %+v", m)
	}
	if m.TR != 300*time.Millisecond {
		t.Fatalf("TR = %v (must be the last required add)", m.TR)
	}
}

func TestExtractRunIncomplete(t *testing.T) {
	events := []eventlog.Event{
		ev("B", sd.EvStartSearch, 0, nil),
		ev("B", sd.EvServiceAdd, 100*time.Millisecond, map[string]string{"node": "A"}),
	}
	m := ExtractRun(events, []string{"A", "C"}, nil)
	if m.Complete || m.Found != 1 {
		t.Fatalf("m = %+v", m)
	}
	if m.TR != 0 {
		t.Fatalf("TR = %v for incomplete run", m.TR)
	}
}

func TestExtractRunIgnoresForeignNodesAndDuplicates(t *testing.T) {
	events := []eventlog.Event{
		ev("B", sd.EvStartSearch, 0, nil),
		// Add observed on a non-SU node: ignored.
		ev("X", sd.EvServiceAdd, 10*time.Millisecond, map[string]string{"node": "A"}),
		ev("B", sd.EvServiceAdd, 200*time.Millisecond, map[string]string{"node": "A"}),
		// Duplicate: ignored.
		ev("B", sd.EvServiceAdd, 400*time.Millisecond, map[string]string{"node": "A"}),
		// Unexpected SM: ignored.
		ev("B", sd.EvServiceAdd, 500*time.Millisecond, map[string]string{"node": "Z"}),
	}
	m := ExtractRun(events, []string{"A"}, []string{"B"})
	if !m.Complete || m.TR != 200*time.Millisecond || m.Found != 1 {
		t.Fatalf("m = %+v", m)
	}
}

func TestExtractRunAddBeforeSearchIgnored(t *testing.T) {
	events := []eventlog.Event{
		ev("B", sd.EvServiceAdd, 0, map[string]string{"node": "A"}),
		ev("B", sd.EvStartSearch, time.Second, nil),
	}
	m := ExtractRun(events, []string{"A"}, []string{"B"})
	if m.Complete {
		t.Fatalf("add before search must not count: %+v", m)
	}
}

func TestResponsiveness(t *testing.T) {
	ms := []RunMetric{
		{Complete: true, TR: 100 * time.Millisecond},
		{Complete: true, TR: 2 * time.Second},
		{Complete: false},
		{Complete: true, TR: 500 * time.Millisecond},
	}
	if got := Responsiveness(ms, time.Second); got != 0.5 {
		t.Fatalf("R(1s) = %v", got)
	}
	if got := Responsiveness(ms, 0); got != 0.75 {
		t.Fatalf("R(∞) = %v", got)
	}
	if got := Responsiveness(nil, time.Second); got != 0 {
		t.Fatalf("R(empty) = %v", got)
	}
}

func TestGroupByAndTRs(t *testing.T) {
	ms := []RunMetric{
		{Complete: true, TR: 3 * time.Second, Treatment: map[string]string{"bw": "10"}},
		{Complete: true, TR: time.Second, Treatment: map[string]string{"bw": "50"}},
		{Complete: false, Treatment: map[string]string{"bw": "50"}},
	}
	g := GroupBy(ms, "bw")
	if len(g["10"]) != 1 || len(g["50"]) != 2 {
		t.Fatalf("groups = %v", g)
	}
	trs := TRs(ms)
	if len(trs) != 2 || trs[0] != time.Second {
		t.Fatalf("TRs = %v (sorted, complete only)", trs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("s = %+v", s)
	}
	if math.Abs(s.Std-1.5811) > 0.001 {
		t.Fatalf("Std = %v", s.Std)
	}
	if s.CI95Lo >= s.Mean || s.CI95Hi <= s.Mean {
		t.Fatalf("CI = [%v, %v]", s.CI95Lo, s.CI95Hi)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty = %+v", z)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := map[float64]float64{0: 10, 1: 40, 0.5: 25, 0.25: 17.5}
	for p, want := range cases {
		if got := Quantile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Q(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Q on empty should be NaN")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("single-element quantile")
	}
}

func TestAnalyzePackets(t *testing.T) {
	pkts := []store.PacketRecord{
		{Dir: "tx", ID: 1, Time: t0},
		{Dir: "rx", ID: 1, Time: t0.Add(2 * time.Millisecond)},
		{Dir: "tx", ID: 2, Time: t0}, // lost
		{Dir: "tx", ID: 3, Time: t0},
		{Dir: "rx", ID: 3, Time: t0.Add(4 * time.Millisecond)},
		{Dir: "rx", ID: 3, Time: t0.Add(6 * time.Millisecond)}, // second receiver
	}
	st := AnalyzePackets(pkts)
	if st.TxCount != 3 || st.RxCount != 3 || st.Delivered != 2 {
		t.Fatalf("st = %+v", st)
	}
	if math.Abs(st.LossRate-1.0/3) > 1e-9 {
		t.Fatalf("loss = %v", st.LossRate)
	}
	if st.MeanDelay != 3*time.Millisecond {
		t.Fatalf("delay = %v", st.MeanDelay)
	}
}

func TestFromReportAndFromDBAgree(t *testing.T) {
	e := desc.OneShot(30)
	e.Repl.Count = 3
	dir := t.TempDir()
	x, err := core.New(e, core.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	fromRep := FromReport(e, rep, "", "")
	if len(fromRep) != 3 {
		t.Fatalf("FromReport = %d metrics", len(fromRep))
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	fromDB, err := FromDB(db, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDB) != 3 {
		t.Fatalf("FromDB = %d metrics", len(fromDB))
	}
	for i := range fromRep {
		if fromRep[i].Complete != fromDB[i].Complete {
			t.Fatalf("run %d: completeness differs", i)
		}
		// The DB path uses conditioned timestamps; with perfect clocks
		// both must agree exactly.
		if fromRep[i].TR != fromDB[i].TR {
			t.Fatalf("run %d: TR %v (report) vs %v (db)", i, fromRep[i].TR, fromDB[i].TR)
		}
	}
}

func TestDurationsToSeconds(t *testing.T) {
	out := DurationsToSeconds([]time.Duration{time.Second, 500 * time.Millisecond})
	if out[0] != 1 || out[1] != 0.5 {
		t.Fatalf("out = %v", out)
	}
}

func TestQueryPairsFromRealRunPackets(t *testing.T) {
	// Run a one-shot discovery with storage, then reconstruct the
	// query/response association from the captured packets alone.
	e := desc.OneShot(30)
	dir := t.TempDir()
	x, err := core.New(e, core.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := db.PacketsOfRun(0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := QueryPairs(pkts, "B")
	if len(pairs) == 0 {
		t.Fatal("no query pairs reconstructed from packets")
	}
	rtt := time.Duration(-1)
	for _, q := range pairs {
		if q.Answered && (rtt < 0 || q.RTT() < rtt) {
			rtt = q.RTT()
		}
	}
	if rtt < 0 {
		t.Fatal("no answered queries")
	}
	// The packet-level RTT of the answered query must roughly match the
	// event-level t_R (both measure query → response on the SU).
	ms := FromReport(e, mustReport(t, e), "", "")
	_ = ms
	if rtt < 20*time.Millisecond || rtt > 200*time.Millisecond {
		t.Fatalf("query RTT = %v", rtt)
	}
}

// mustReport reruns a fresh experiment for comparison data.
func mustReport(t *testing.T, e *desc.Experiment) *master.Report {
	t.Helper()
	x, err := core.New(e, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestQueryPairsSynthetic(t *testing.T) {
	mk := func(dir, kind string, qid uint32, src string, at time.Duration) store.PacketRecord {
		data := []byte(fmt.Sprintf(`{"kind":%q,"qid":%d}`, kind, qid))
		return store.PacketRecord{Dir: dir, Src: src, Data: data, Time: t0.Add(at)}
	}
	pkts := []store.PacketRecord{
		mk("tx", "query", 1, "su", 0),
		mk("rx", "response", 1, "sm", 30*time.Millisecond),
		mk("rx", "response", 1, "sm", 60*time.Millisecond), // dup ignored
		mk("tx", "query", 2, "su", 100*time.Millisecond),   // unanswered
		mk("tx", "query", 3, "other", 0),                   // foreign node ignored
		{Dir: "rx", Src: "x", Data: []byte("not json"), Time: t0},
	}
	pairs := QueryPairs(pkts, "su")
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if !pairs[0].Answered || pairs[0].RTT() != 30*time.Millisecond {
		t.Fatalf("pair 0 = %+v", pairs[0])
	}
	if pairs[1].Answered || pairs[1].RTT() != 0 {
		t.Fatalf("pair 1 = %+v", pairs[1])
	}
}

func TestResponsivenessCI(t *testing.T) {
	ms := make([]RunMetric, 20)
	for i := range ms {
		ms[i] = RunMetric{Complete: i < 15, TR: 100 * time.Millisecond}
	}
	lo, hi := ResponsivenessCI(ms, time.Second)
	p := Responsiveness(ms, time.Second)
	if p != 0.75 {
		t.Fatalf("p = %v", p)
	}
	if lo >= p || hi <= p {
		t.Fatalf("CI [%v,%v] does not bracket %v", lo, hi, p)
	}
	if lo < 0.5 || hi > 0.95 {
		t.Fatalf("Wilson interval too wide: [%v,%v]", lo, hi)
	}
	// Degenerate cases stay in [0,1].
	all := []RunMetric{{Complete: true, TR: time.Millisecond}}
	lo, hi = ResponsivenessCI(all, time.Second)
	if lo < 0 || hi > 1 {
		t.Fatalf("bounds: [%v,%v]", lo, hi)
	}
	if lo2, hi2 := ResponsivenessCI(nil, time.Second); lo2 != 0 || hi2 != 0 {
		t.Fatalf("empty CI = [%v,%v]", lo2, hi2)
	}
}

func TestWriteCSV(t *testing.T) {
	ms := []RunMetric{
		{RunID: 0, Treatment: map[string]string{"bw": "10", "pairs": "5"},
			Expected: 1, Found: 1, Complete: true, TR: 50 * time.Millisecond},
		{RunID: 1, Treatment: map[string]string{"bw": "50", "pairs": "5"},
			Expected: 1, Found: 0, Complete: false},
	}
	var buf strings.Builder
	if err := WriteCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d\n%s", len(lines), buf.String())
	}
	if lines[0] != "run,bw,pairs,expected,found,complete,t_R_seconds" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,10,5,1,1,true,0.05") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], "false,") {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestControlSummary(t *testing.T) {
	rep := &master.Report{
		Completed:      2,
		Skipped:        1,
		Retried:        1,
		HealthProbes:   5,
		HealthFailures: 2,
		Results: []master.RunResult{
			{Attempts: 1},
			{Attempts: 3},
			{Attempts: 2, Partial: true},
		},
	}
	cs := ControlSummary(rep)
	if cs.Runs != 3 || cs.Completed != 2 || cs.Skipped != 1 || cs.Retried != 1 {
		t.Fatalf("run accounting: %+v", cs)
	}
	if cs.Attempts != 6 || cs.Partial != 1 {
		t.Fatalf("attempts=%d partial=%d", cs.Attempts, cs.Partial)
	}
	if cs.HealthProbes != 5 || cs.HealthFailures != 2 {
		t.Fatalf("health: %+v", cs)
	}
}

func TestControlSummaryMixedOutcomeAggregation(t *testing.T) {
	// Attempts and Partial must aggregate correctly over a report mixing
	// first-try successes, retried successes, skipped runs (resume;
	// zero attempts) and exhausted runs with partial harvests.
	rep := &master.Report{
		Completed: 2,
		Skipped:   2,
		Retried:   2,
		Results: []master.RunResult{
			{Attempts: 1},                 // clean success
			{Skipped: true},               // resume skip: no attempts consumed
			{Attempts: 2},                 // retried success
			{Skipped: true},               // second resume skip
			{Attempts: 3, Partial: true},  // all attempts failed, salvaged
			{Attempts: 3, Partial: false}, // all attempts failed, no store
		},
	}
	cs := ControlSummary(rep)
	if cs.Runs != 6 {
		t.Fatalf("Runs = %d, want 6", cs.Runs)
	}
	if cs.Attempts != 9 {
		t.Fatalf("Attempts = %d, want 9 (skipped runs add none)", cs.Attempts)
	}
	if cs.Partial != 1 {
		t.Fatalf("Partial = %d, want 1", cs.Partial)
	}
	if cs.Completed != 2 || cs.Skipped != 2 || cs.Retried != 2 {
		t.Fatalf("pass-through fields: %+v", cs)
	}
	if cs.HealthProbes != 0 || cs.HealthFailures != 0 {
		t.Fatalf("zero-value health fields: %+v", cs)
	}
}

// queryPairsDecodeFirst is QueryPairs as it was before it filtered by node
// and direction ahead of decoding: every capture's payload decoded first.
// It is the reference TestQueryPairsMatchesDecodeFirst holds QueryPairs to.
func queryPairsDecodeFirst(pkts []store.PacketRecord, node string) []QueryPair {
	var out []QueryPair
	index := map[uint32]int{}
	for _, p := range pkts {
		var h sdWireHeader
		if err := json.Unmarshal(p.Data, &h); err != nil || h.QID == 0 {
			continue
		}
		if p.Node != "" && p.Node != node {
			continue
		}
		switch {
		case p.Dir == "tx" && h.Kind == "query" && p.Src == node:
			index[h.QID] = len(out)
			out = append(out, QueryPair{QID: h.QID, Node: node, SentAt: p.Time})
		case p.Dir == "rx" && (h.Kind == "response" || h.Kind == "query_resp"):
			if i, ok := index[h.QID]; ok && !out[i].Answered {
				out[i].Answered = true
				out[i].AnsweredAt = p.Time
			}
		}
	}
	return out
}

// TestQueryPairsMatchesDecodeFirst: filtering before decoding gives the
// pairs decoding everything gave, for every node of every run of two
// stored campaigns — the mesh, whose relays forward queries with the
// original Src, and the case study.
func TestQueryPairsMatchesDecodeFirst(t *testing.T) {
	mesh, err := desc.Builtin("exp-e-meshwide")
	if err != nil {
		t.Fatal(err)
	}
	mesh.Repl.Count = 1
	for _, c := range []struct {
		name string
		exp  *desc.Experiment
	}{{"exp-e-meshwide", mesh}, {"casestudy", desc.CaseStudy(1)}} {
		x, err := core.New(c.exp, core.Options{StoreDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Run(); err != nil {
			t.Fatal(err)
		}
		db, err := x.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		ids, err := db.RunIDs()
		if err != nil {
			t.Fatal(err)
		}
		pairs, forwarded := 0, 0
		for _, id := range ids {
			pkts, err := db.PacketsOfRun(id)
			if err != nil {
				t.Fatal(err)
			}
			nodes := map[string]bool{}
			for _, p := range pkts {
				nodes[p.Src], nodes[p.Node] = true, true
				if p.Dir == "tx" && p.Node != p.Src {
					forwarded++
				}
			}
			for n := range nodes {
				got, want := QueryPairs(pkts, n), queryPairsDecodeFirst(pkts, n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s run %d node %s:\n got %+v\nwant %+v", c.name, id, n, got, want)
				}
				pairs += len(got)
			}
		}
		if pairs == 0 || (c.name == "exp-e-meshwide" && forwarded == 0) {
			t.Errorf("%s: %d pairs, %d forwarded tx captures — the comparison saw nothing", c.name, pairs, forwarded)
		}
	}
}
