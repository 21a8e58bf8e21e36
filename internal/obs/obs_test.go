package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every obs type must be a no-op when nil, so instrumentation points
	// need no guards.
	var r *Registry
	c := r.Counter("x_total", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	r.Gauge("g", "").Set(7)
	r.Histogram("h", "", nil).Observe(0.1)
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	id := tr.Begin(0, "t", "run", "r", 0, 1, nil)
	tr.End(id)
	if got := tr.Spans(); got != nil {
		t.Fatal("nil tracer recorded spans")
	}
	var st *Status
	st.RunStarted(1, 1, nil)
	if snap := st.Snapshot(); snap.State != "idle" {
		t.Fatalf("nil status snapshot = %+v", snap)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("excovery_calls_total", "calls", "method", "a").Add(3)
	r.Counter("excovery_calls_total", "calls", "method", "b").Inc()
	r.Gauge("excovery_outbox_len", "queued events").Set(12)
	h := r.Histogram("excovery_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE excovery_calls_total counter",
		`excovery_calls_total{method="a"} 3`,
		`excovery_calls_total{method="b"} 1`,
		"# TYPE excovery_outbox_len gauge",
		"excovery_outbox_len 12",
		"# TYPE excovery_latency_seconds histogram",
		`excovery_latency_seconds_bucket{le="0.1"} 1`,
		`excovery_latency_seconds_bucket{le="1"} 2`,
		`excovery_latency_seconds_bucket{le="+Inf"} 3`,
		"excovery_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if r.CounterTotal("excovery_calls_total") != 4 {
		t.Fatalf("CounterTotal = %d, want 4", r.CounterTotal("excovery_calls_total"))
	}
	if r.CounterValue("excovery_calls_total", "method", "a") != 3 {
		t.Fatal("CounterValue lookup failed")
	}
	if r.HistogramTotal("excovery_latency_seconds") != 3 {
		t.Fatal("HistogramTotal")
	}
}

// TestRegistryExportsInNameOrder: families and series registered in an
// order that no rotation sorts export sorted by name and label set, the
// same every time — in the /metrics exposition and in the snapshot that
// the campaign fan-in writes to campaign_metrics.json.
func TestRegistryExportsInNameOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"x_b_total", "x_a_total", "x_c_total"} {
		for _, v := range []string{"2", "1", "3"} {
			r.Counter(name, "", "k", v).Inc()
		}
	}
	var want []string
	for _, name := range []string{"x_a_total", "x_b_total", "x_c_total"} {
		for _, v := range []string{"1", "2", "3"} {
			want = append(want, name+" k="+v)
		}
	}
	var first string
	for i := 0; i < 64; i++ {
		var got []string
		for _, p := range r.Snapshot() {
			got = append(got, p.Name+" "+strings.Join(p.Labels, "="))
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("snapshot %d order = %v, want %v", i, got, want)
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
			ia := strings.Index(first, "# HELP x_a_total")
			ib := strings.Index(first, "# HELP x_b_total")
			ic := strings.Index(first, "# HELP x_c_total")
			if ia < 0 || ia > ib || ib > ic {
				t.Fatalf("exposition not in name order:\n%s", first)
			}
		} else if b.String() != first {
			t.Fatalf("exposition %d differs:\n%s\nfirst:\n%s", i, b.String(), first)
		}
	}
}

func TestRegistrySameSeriesSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "m", "1")
	b := r.Counter("x_total", "", "m", "1")
	if a != b {
		t.Fatal("same name+labels produced distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instruments not shared")
	}
}

func TestTracerHierarchyAndRunSpans(t *testing.T) {
	now := time.Unix(0, 0)
	tr := NewTracer(func() time.Time { return now })
	exp := tr.Begin(0, "master", "experiment", "exp", -1, 0, nil)
	run := tr.Begin(exp, "master", "run", "run 0", 0, 1, map[string]string{"seed": "42"})
	now = now.Add(time.Second)
	ph := tr.Begin(run, "master", "phase", "prepare", 0, 1, nil)
	now = now.Add(time.Second)
	tr.End(ph)
	tr.EndWith(run, map[string]string{"err": "boom"})
	tr.End(exp)

	spans := tr.RunSpans(0)
	if len(spans) != 2 {
		t.Fatalf("RunSpans(0) = %d spans, want 2 (run + phase)", len(spans))
	}
	if spans[0].Cat != "run" || spans[0].Args["seed"] != "42" || spans[0].Args["err"] != "boom" {
		t.Fatalf("run span = %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatal("phase span not parented under run span")
	}
	if spans[1].Duration() != time.Second {
		t.Fatalf("phase duration = %v", spans[1].Duration())
	}

	// Round trip through the level-2 artifact format.
	back, err := UnmarshalSpans(MarshalSpans(spans))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "run 0" {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestChromeTraceExport(t *testing.T) {
	now := time.Unix(100, 0)
	tr := NewTracer(func() time.Time { return now })
	a := tr.Begin(0, "master", "run", "run 0", 0, 1, nil)
	b := tr.Begin(a, "proc sm@A", "action", "sd_publish", 0, 1, nil)
	now = now.Add(50 * time.Millisecond)
	tr.End(b)
	tr.End(a)

	out := ChromeTrace(tr.Spans())
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	var meta, complete int
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			tids[ev.TID] = true
			if ev.Name == "sd_publish" && ev.Dur != 50_000 {
				t.Fatalf("action dur = %dus, want 50000", ev.Dur)
			}
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("events meta=%d complete=%d, want 2/2", meta, complete)
	}
	if len(tids) != 2 {
		t.Fatal("tracks not mapped to distinct thread lanes")
	}
}

func TestStatusLifecycle(t *testing.T) {
	st := NewStatus(nil)
	st.ExperimentStarted("exp1", 10)
	st.RunStarted(3, 2, map[string]string{"fact_bw": "50"})
	st.PhaseChanged("execute")
	st.NodeFailed("A", "timeout")
	st.NodeFailed("A", "conn refused")
	st.NodeHealthy("B")
	snap := st.Snapshot()
	if snap.State != "running" || snap.Run != 3 || snap.Attempt != 2 || snap.Phase != "execute" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Treatment["fact_bw"] != "50" {
		t.Fatal("treatment missing")
	}
	if a := snap.Nodes["A"]; a != (NodeState{Health: "failing", ConsecutiveFailures: 2, LastErr: "conn refused"}) ||
		snap.Nodes["B"] != (NodeState{Health: "ok"}) {
		t.Fatalf("nodes = %+v", snap.Nodes)
	}
	// One success ends the streak.
	st.NodeHealthy("A")
	if a := st.Snapshot().Nodes["A"]; a != (NodeState{Health: "ok"}) {
		t.Fatalf("node A after a success = %+v", a)
	}
	st.RunFinished("completed", true)
	st.ExperimentFinished()
	snap = st.Snapshot()
	if snap.State != "done" || snap.RunsCompleted != 1 || snap.RunsRetried != 1 {
		t.Fatalf("final snapshot = %+v", snap)
	}
}

func TestMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "help").Inc()
	st := NewStatus(nil)
	st.ExperimentStarted("exp1", 1)
	srv := httptest.NewServer(NewMux(reg, func() any { return st.Snapshot() }))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "x_total 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body := get("/status")
	if code != 200 {
		t.Fatalf("/status = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if snap.Experiment != "exp1" || snap.State != "running" {
		t.Fatalf("/status = %+v", snap)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{0.1, 1})
	h.Observe(0.1) // on the boundary counts into le="0.1"
	h.Observe(1.5)
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("bucket0 = %d", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Fatalf("overflow bucket = %d", got)
	}
	if h.Count() != 2 {
		t.Fatal("count")
	}
}
