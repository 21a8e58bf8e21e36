package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/master"
	"excovery/internal/metrics"
	"excovery/internal/netem"
	"excovery/internal/sd"
	"excovery/internal/store/reldb"
)

// findEvent returns the first event of a type in a run's event list.
func findEvent(events []eventlog.Event, typ string) (eventlog.Event, bool) {
	for _, ev := range events {
		if ev.Type == typ {
			return ev, true
		}
	}
	return eventlog.Event{}, false
}

func TestOneShotDiscoveryFig11(t *testing.T) {
	x, err := New(desc.OneShot(30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Completed != 1 {
		t.Fatalf("report: %d results, %d completed", len(rep.Results), rep.Completed)
	}
	rr := rep.Results[0]
	if rr.Err != nil || rr.Aborted {
		t.Fatalf("run failed: err=%v aborted=%v", rr.Err, rr.Aborted)
	}
	if rr.Timeouts != 0 {
		t.Fatalf("discovery timed out: %d waits expired", rr.Timeouts)
	}
	// Reconstruct the Fig. 11 timeline: sd_start_search on the SU, then
	// sd_service_add naming the SM.
	search, ok := findEvent(rr.Events, sd.EvStartSearch)
	if !ok {
		t.Fatal("no sd_start_search event")
	}
	add, ok := findEvent(rr.Events, sd.EvServiceAdd)
	if !ok {
		t.Fatal("no sd_service_add event")
	}
	if add.Node != "B" || add.Param("node") != "A" {
		t.Fatalf("discovery event wrong: %+v", add)
	}
	tR := add.Time.Sub(search.Time)
	// One-hop query/response with 20–120 ms response jitter.
	if tR <= 0 || tR > time.Second {
		t.Fatalf("t_R = %v", tR)
	}
	// The run's event sequence must contain the full lifecycle.
	for _, typ := range []string{sd.EvInitDone, sd.EvStartPublish, sd.EvStopPublish,
		sd.EvStopSearch, sd.EvExitDone, "run_init"} {
		if _, ok := findEvent(rr.Events, typ); !ok {
			t.Errorf("missing event %s", typ)
		}
	}
}

func TestOneShotDeterministicAcrossRuns(t *testing.T) {
	tR := func() time.Duration {
		x, err := New(desc.OneShot(30), Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		rr := rep.Results[0]
		search, _ := findEvent(rr.Events, sd.EvStartSearch)
		add, _ := findEvent(rr.Events, sd.EvServiceAdd)
		return add.Time.Sub(search.Time)
	}
	if a, b := tR(), tR(); a != b {
		t.Fatalf("t_R differs across identical experiments: %v vs %v", a, b)
	}
}

func TestCaseStudySmallEndToEnd(t *testing.T) {
	e := desc.CaseStudy(2) // 2 pairs × 3 bw × 2 reps = 12 runs
	dir := t.TempDir()
	x, err := New(e, Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 12 {
		t.Fatalf("results = %d, want 12", len(rep.Results))
	}
	if rep.Completed != 12 {
		for _, rr := range rep.Results {
			if rr.Err != nil {
				t.Logf("run %d: %v", rr.Run.ID, rr.Err)
			}
		}
		t.Fatalf("completed = %d, want 12", rep.Completed)
	}
	discovered := 0
	for _, rr := range rep.Results {
		if _, ok := findEvent(rr.Events, sd.EvServiceAdd); ok {
			discovered++
		}
		// Background traffic must have been started in every run.
		if _, ok := findEvent(rr.Events, "env_traffic_start"); !ok {
			t.Fatalf("run %d: no traffic generation", rr.Run.ID)
		}
	}
	if discovered < 10 {
		t.Fatalf("only %d/12 runs discovered the SM", discovered)
	}

	// Level 3: condition and check Table I content.
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := db.RunIDs()
	if err != nil || len(runs) != 12 {
		t.Fatalf("level-3 runs = %v, %v", runs, err)
	}
	evs, err := db.EventsOfRun(runs[0])
	if err != nil || len(evs) == 0 {
		t.Fatalf("level-3 events = %d, %v", len(evs), err)
	}
	pkts, err := db.PacketsOfRun(runs[0])
	if err != nil || len(pkts) == 0 {
		t.Fatalf("level-3 packets = %d, %v", len(pkts), err)
	}
	info, err := db.Info()
	if err != nil || info.Name != "sd-twoparty-load" {
		t.Fatalf("level-3 info = %+v, %v", info, err)
	}
	// The stored description must reparse and regenerate the same plan
	// (transparency/repeatability, §IV-F).
	e2, err := desc.ParseString(info.ExpXML)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := desc.GeneratePlan(e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Runs) != 12 {
		t.Fatalf("replanned runs = %d", len(p2.Runs))
	}
}

func TestThreePartyEndToEnd(t *testing.T) {
	x, err := New(builtin(t, "threeparty", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Results[0]
	if rr.Err != nil || rr.Aborted || rr.Timeouts != 0 {
		t.Fatalf("run: err=%v aborted=%v timeouts=%d", rr.Err, rr.Aborted, rr.Timeouts)
	}
	for _, typ := range []string{sd.EvSCMStarted, sd.EvSCMFound, sd.EvSCMRegAdd, sd.EvServiceAdd} {
		if _, ok := findEvent(rr.Events, typ); !ok {
			t.Errorf("missing %s", typ)
		}
	}
	add, _ := findEvent(rr.Events, sd.EvServiceAdd)
	if add.Node != "B" || add.Param("node") != "A" {
		t.Fatalf("discovery event: %+v", add)
	}
}

func TestResumeSkipsCompletedRuns(t *testing.T) {
	dir := t.TempDir()
	e := desc.OneShot(10)
	e.Repl.Count = 3
	x1, err := New(e, Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := x1.Run()
	if err != nil || rep1.Completed != 3 {
		t.Fatalf("first pass: %+v, %v", rep1, err)
	}
	// Re-run with Resume: everything already done.
	x2, err := New(e, Options{StoreDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := x2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != 3 || rep2.Completed != 0 {
		t.Fatalf("resume: skipped=%d completed=%d", rep2.Skipped, rep2.Completed)
	}
}

func TestJournaledCrashResumeThroughFacade(t *testing.T) {
	// The facade wiring of the durability layer: a journaled session
	// crashes (in-process) at run 1's attempt, a resumed session skips
	// run 0, recovers run 1 and finishes the experiment.
	dir := t.TempDir()
	e := desc.OneShot(10)
	e.Repl.Count = 3
	fp := failpoint.New(1)
	fp.Enable(failpoint.SiteMasterAttempt, failpoint.Rule{
		Prob: 1, Act: failpoint.Crash, Skip: 1, Count: 1})
	x1, err := New(e, Options{StoreDir: dir, Journal: true, Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := x1.Run()
	if !errors.Is(err, master.ErrCrashed) || rep1.Completed != 1 {
		t.Fatalf("crash session: rep=%+v err=%v", rep1, err)
	}
	x1.Close()

	x2, err := New(e, Options{StoreDir: dir, Journal: true, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer x2.Close()
	rep2, err := x2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != 1 || rep2.Recovered != 1 || rep2.Completed != 2 {
		t.Fatalf("resume: %+v", rep2)
	}
	db, err := x2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := db.RunIDs(); err != nil || len(ids) != 3 {
		t.Fatalf("level-3 runs = %v (%v)", ids, err)
	}
}

func TestJournalRequiresStoreDir(t *testing.T) {
	if _, err := New(desc.OneShot(10), Options{Journal: true}); err == nil {
		t.Fatal("Journal without StoreDir accepted")
	}
}

func TestClockSkewIsConditionedAway(t *testing.T) {
	dir := t.TempDir()
	e := desc.OneShot(30)
	opts := Options{StoreDir: dir}
	opts.ClockSkew.MaxOffset = 200 * time.Millisecond
	opts.ClockSkew.MaxDriftPPM = 50
	x, err := New(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil || rep.Completed != 1 {
		t.Fatalf("run: %v, completed=%d", err, rep.Completed)
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	evs, err := db.EventsOfRun(0)
	if err != nil {
		t.Fatal(err)
	}
	// On the common time base, causality must hold: the SM's
	// sd_start_publish precedes the SU's sd_service_add, and the search
	// precedes the discovery.
	var publish, search, add eventlog.Event
	for _, ev := range evs {
		switch ev.Type {
		case sd.EvStartPublish:
			publish = ev
		case sd.EvStartSearch:
			search = ev
		case sd.EvServiceAdd:
			add = ev
		}
	}
	if add.Type == "" || publish.Type == "" || search.Type == "" {
		t.Fatalf("missing events in conditioned DB")
	}
	if add.Time.Before(publish.Time) || add.Time.Before(search.Time) {
		t.Fatalf("causality violated after conditioning: pub=%v search=%v add=%v",
			publish.Time, search.Time, add.Time)
	}
	// The measured skew must be recorded in RunInfos (TimeDiff column).
	rows, err := db.DB.Select(reldb.Query{Table: "RunInfos"})
	if err != nil || len(rows) == 0 {
		t.Fatalf("RunInfos = %d rows, %v", len(rows), err)
	}
	sawSkew := false
	for _, r := range rows {
		if diff := r[3].(float64); diff != 0 {
			sawSkew = true
		}
	}
	if !sawSkew {
		t.Fatal("no nonzero TimeDiff recorded despite clock skew")
	}
}

func TestScmdirOnOneShotTimesOutGracefully(t *testing.T) {
	// Forcing the three-party protocol onto a description without an SCM
	// must not wedge: the SU's wait expires at its deadline, "done" is
	// flagged, and the run completes with one timeout.
	e := desc.OneShot(5)
	e.SetParam("sd_protocol", "scmdir")
	x, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Results[0]
	if rr.Err != nil || rr.Aborted {
		t.Fatalf("err=%v aborted=%v", rr.Err, rr.Aborted)
	}
	if rr.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1 (SU deadline)", rr.Timeouts)
	}
	if _, ok := findEvent(rr.Events, "wait_timeout"); !ok {
		t.Fatal("wait_timeout event missing")
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	e := desc.OneShot(1)
	e.SetParam("sd_protocol", "quantum")
	if _, err := New(e, Options{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestChainTopologyMultiHopDiscovery(t *testing.T) {
	e := desc.OneShot(30)
	// Insert three relay nodes between A and B: chain order A, r0..r2, B
	// comes from the description's node list order.
	e.AbstractNodes = []string{"A", "r0", "r1", "r2", "B"}
	x, err := New(e, Options{Topology: TopoChain})
	if err != nil {
		t.Fatal(err)
	}
	if hc := x.Net.HopCount("A", "B"); hc != 4 {
		t.Fatalf("hop count = %d, want 4", hc)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Results[0]
	if rr.Timeouts != 0 {
		t.Fatalf("multi-hop discovery failed: %d timeouts", rr.Timeouts)
	}
	search, _ := findEvent(rr.Events, sd.EvStartSearch)
	add, _ := findEvent(rr.Events, sd.EvServiceAdd)
	tR := add.Time.Sub(search.Time)
	if tR <= 0 {
		t.Fatalf("t_R = %v", tR)
	}
}

func TestOnRunDoneCallback(t *testing.T) {
	e := desc.OneShot(10)
	e.Repl.Count = 2
	calls := 0
	x, err := New(e, Options{OnRunDone: func(run desc.Run, rr master.RunResult) {
		calls++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("OnRunDone calls = %d", calls)
	}
}

// TestRecordersHoldOnlyTheirRun: over a stored campaign, every node's
// recorder holds the run it is recording and no earlier one, while the
// level-2 store still gets every run's events — the harvest reads a run
// before the next preparation releases it.
func TestRecordersHoldOnlyTheirRun(t *testing.T) {
	const runs = 40
	e := desc.OneShot(10)
	e.Repl.Count = runs
	var x *Experiment
	checked, stale := 0, 0
	x, err := New(e, Options{StoreDir: t.TempDir(),
		OnRunDone: func(run desc.Run, rr master.RunResult) {
			checked++
			for id, mgr := range x.Managers {
				rec := mgr.Recorder()
				if len(rec.RunEvents(run.ID)) == 0 {
					t.Errorf("run %d: node %s holds none of the run's events", run.ID, id)
				}
				for prev := 0; prev < run.ID; prev++ {
					if evs := rec.RunEvents(prev); len(evs) != 0 {
						if stale == 0 {
							t.Errorf("run %d: node %s still holds %d events of run %d", run.ID, id, len(evs), prev)
						}
						stale++
					}
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != runs || checked != runs {
		t.Fatalf("campaign: %d of %d runs completed, %d checked", rep.Completed, runs, checked)
	}
	if stale != 0 {
		t.Fatalf("%d times a node recorder held an earlier run's events", stale)
	}
	for run := 0; run < runs; run++ {
		for id := range x.Managers {
			evs, err := x.Store().ReadEvents(run, id)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) < 2 || evs[0].Type != eventlog.EvRunInit || evs[len(evs)-1].Type != eventlog.EvRunExit {
				t.Fatalf("run %d, node %s: stored %v, want run_init ... run_exit", run, id, evs)
			}
		}
	}
}

// TestOnlyStoredCampaignsCapture: nodes capture packets only for a master
// that harvests them. A campaign without a store leaves every node's
// captures empty at every OnRunDone; the same campaign with one still stores
// packets for every run and node.
func TestOnlyStoredCampaignsCapture(t *testing.T) {
	const runs = 6
	campaign := func(dir string) *Experiment {
		e := desc.OneShot(10)
		e.Repl.Count = runs
		var x *Experiment
		checked := 0
		x, err := New(e, Options{StoreDir: dir,
			OnRunDone: func(run desc.Run, _ master.RunResult) {
				checked++
				if dir != "" {
					return
				}
				for id, mgr := range x.Managers {
					if n := len(mgr.Node().Captures()); n != 0 {
						t.Errorf("unstored run %d: node %s holds %d captures", run.ID, id, n)
					}
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != runs || checked != runs {
			t.Fatalf("campaign: %d of %d runs completed, %d checked", rep.Completed, runs, checked)
		}
		return x
	}
	campaign("")
	x := campaign(t.TempDir())
	for run := 0; run < runs; run++ {
		for id := range x.Managers {
			pkts, err := x.Store().ReadPackets(run, id)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkts) == 0 {
				t.Errorf("stored run %d: node %s has no packets", run, id)
			}
		}
	}
}

func TestHybridProtocolAdaptive(t *testing.T) {
	// The hybrid architecture on the three-party description: the SCM
	// exists, so discovery may complete over either path, exactly once.
	e := builtin(t, "threeparty", 1)
	e.SetParam("sd_protocol", "hybrid")
	x, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Results[0]
	if rr.Err != nil || rr.Aborted || rr.Timeouts != 0 {
		t.Fatalf("run: err=%v aborted=%v timeouts=%d", rr.Err, rr.Aborted, rr.Timeouts)
	}
	adds := 0
	for _, ev := range rr.Events {
		if ev.Type == sd.EvServiceAdd && ev.Node == "B" {
			adds++
		}
	}
	if adds != 1 {
		t.Fatalf("adds = %d, want 1 (hybrid dedup)", adds)
	}
	// The SCM itself booted; whether scm_found lands within the run
	// depends on whether the multicast path wins the race — both
	// outcomes are correct adaptive behaviour (adoption is covered by
	// the hybrid package tests).
	if _, ok := findEvent(rr.Events, sd.EvSCMStarted); !ok {
		t.Fatal("SCM did not start")
	}
}

func TestHybridProtocolWithoutSCM(t *testing.T) {
	// On the two-party description the hybrid agent falls back to pure
	// multicast discovery and still completes.
	e := desc.OneShot(30)
	e.SetParam("sd_protocol", "hybrid")
	x, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Timeouts != 0 {
		t.Fatalf("hybrid two-party fallback timed out")
	}
}

func TestGridTopology(t *testing.T) {
	e := desc.OneShot(30)
	e.AbstractNodes = []string{"A", "r0", "r1", "r2", "B", "r3"}
	x, err := New(e, Options{Topology: TopoGrid, GridWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Row-major 3×2 grid: A r0 r1 / r2 B r3 — A to B is 2 hops.
	if hc := x.Net.HopCount("A", "B"); hc != 2 {
		t.Fatalf("hop count = %d", hc)
	}
	rep, err := x.Run()
	if err != nil || rep.Results[0].Timeouts != 0 {
		t.Fatalf("grid discovery failed: %v / %+v", err, rep.Results[0])
	}
}

func TestGridTopologyRequiresWidth(t *testing.T) {
	if _, err := New(desc.OneShot(1), Options{Topology: TopoGrid}); err == nil {
		t.Fatal("grid without width accepted")
	}
}

func TestGeometricTopologyConnected(t *testing.T) {
	e := desc.OneShot(30)
	e.AbstractNodes = []string{"A", "n1", "n2", "n3", "n4", "n5", "B"}
	e.SetEEParam("geo_radius", "0.3")
	x, err := New(e, Options{Topology: TopoGeometric, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if hc := x.Net.HopCount("A", "B"); hc < 1 {
		t.Fatalf("A-B unreachable: %d", hc)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("completed = %d", rep.Completed)
	}
}

func TestUnknownTopologyRejected(t *testing.T) {
	if _, err := New(desc.OneShot(1), Options{Topology: "torus"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestMultiInstanceActorAllSMsRequired(t *testing.T) {
	// Two SM instances under actor0: the SU's param_dependency over "all"
	// instances requires both to be discovered (Fig. 10 semantics at
	// instance count > 1).
	e := desc.OneShot(30)
	e.AbstractNodes = []string{"A0", "A1", "B"}
	e.Factors[0] = desc.ActorMapFactor("fact_nodes", desc.UsageBlocking, map[string][]string{
		"actor0": {"A0", "A1"},
		"actor1": {"B"},
	})
	x, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Results[0]
	if rr.Err != nil || rr.Timeouts != 0 {
		t.Fatalf("run: err=%v timeouts=%d", rr.Err, rr.Timeouts)
	}
	// Both SMs published and were discovered.
	adds := map[string]bool{}
	for _, ev := range rr.Events {
		if ev.Type == sd.EvServiceAdd && ev.Node == "B" {
			adds[ev.Param("node")] = true
		}
	}
	if !adds["A0"] || !adds["A1"] {
		t.Fatalf("discovered SMs = %v, want both", adds)
	}
	ms := metrics.FromReport(e, rep, "", "")
	if len(ms) != 1 || !ms[0].Complete || ms[0].Expected != 2 || ms[0].Found != 2 {
		t.Fatalf("metric = %+v", ms[0])
	}
}

func TestMaxRunTimeAbortViaCore(t *testing.T) {
	// A description waiting forever on a nonexistent event aborts at
	// MaxRunTime instead of wedging the experiment.
	e := desc.OneShot(30)
	e.NodeProcesses[0].Actions = []desc.Action{
		desc.WaitEvent(desc.WaitSpec{Event: "never_happens"}),
	}
	e.NodeProcesses[1].Actions = []desc.Action{
		desc.WaitEvent(desc.WaitSpec{Event: "never_happens"}),
	}
	x, err := New(e, Options{MaxRunTime: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Results[0].Aborted {
		t.Fatalf("run not aborted: %+v", rep.Results[0])
	}
}

func TestEnvExecValidation(t *testing.T) {
	x, err := New(desc.OneShot(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	x.S.Go("t", func() {
		if err := x.Env.Execute("env_warp", nil); err == nil {
			t.Error("unknown env action accepted")
		}
		if err := x.Env.Execute("env_traffic_start", map[string]string{"bw": "x"}); err == nil {
			t.Error("bad bw accepted")
		}
		if err := x.Env.Execute("env_traffic_start", map[string]string{"bw": "10", "random_pairs": "x"}); err == nil {
			t.Error("bad pairs accepted")
		}
		if err := x.Env.Execute("env_traffic_start", map[string]string{"bw": "10", "choice": "9"}); err == nil {
			t.Error("bad choice accepted")
		}
		// A malformed number is never read as its default: "1O" for a
		// switch amount would silently mean "no switching".
		for _, key := range []string{"choice", "random_seed", "random_switch_amount", "random_switch_seed", "__run"} {
			err := x.Env.Execute("env_traffic_start", map[string]string{"bw": "10", key: "1O"})
			if err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%s=1O: err = %v, want an error naming the parameter", key, err)
			}
			if x.Env.Traffic() != nil {
				t.Errorf("%s=1O: traffic started", key)
			}
		}
		// Drop-all start/stop cycle.
		if err := x.Env.Execute("env_drop_all_start", nil); err != nil {
			t.Error(err)
		}
		if err := x.Env.Execute("env_drop_all_stop", nil); err != nil {
			t.Error(err)
		}
		// Stop without start is a no-op.
		if err := x.Env.Execute("env_traffic_stop", nil); err != nil {
			t.Error(err)
		}
	})
	if err := x.S.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEnvTrafficFallsBackToAllNodes(t *testing.T) {
	// OneShot has no environment nodes: traffic between env nodes (choice
	// 0) falls back to the actor set so minimal descriptions still work.
	x, err := New(desc.OneShot(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	x.S.Go("t", func() {
		if err := x.Env.Execute("env_traffic_start", map[string]string{
			"bw": "10", "random_pairs": "1", "random_seed": "1",
		}); err != nil {
			t.Error(err)
		}
		if x.Env.Traffic() == nil {
			t.Error("no traffic running")
		}
		x.S.Sleep(time.Second)
		x.Env.Reset()
	})
	if err := x.S.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestPluginMeasurementReachesLevel3(t *testing.T) {
	// A registered plugin action records a custom measurement; it must
	// travel run store → conditioning → ExtraRunMeasurements (§IV-B5).
	e := desc.OneShot(30)
	e.NodeProcesses[1].Actions = append(e.NodeProcesses[1].Actions,
		desc.Act("measure_rssi", "samples", "3"))
	dir := t.TempDir()
	x, err := New(e, Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mgr := x.Managers["B"]
	mgr.RegisterPlugin("measure_rssi", func(params map[string]string) error {
		mgr.AddExtra("rssi.txt", []byte("-42dBm x"+params["samples"]))
		return nil
	})
	rep, err := x.Run()
	if err != nil || rep.Completed != 1 {
		t.Fatalf("run: %v completed=%d err=%v", err, rep.Completed, rep.Results[0].Err)
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.DB.Select(reldb.Query{Table: "ExtraRunMeasurements"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("ExtraRunMeasurements rows = %d, %v", len(rows), err)
	}
	if rows[0][1] != "B" || rows[0][2] != "rssi.txt" ||
		string(rows[0][3].([]byte)) != "-42dBm x3" {
		t.Fatalf("row = %v", rows[0])
	}
}

func TestTimedInterfaceFaultDelaysDiscovery(t *testing.T) {
	// A manipulation process arms a timed interface fault on the SM as
	// soon as publishing starts; its ~10 s active block covers the SU's
	// search start (at t ≈ 5 s), so the first queries go unanswered and
	// discovery only succeeds through retry backoff after the fault
	// lifts — t_R far beyond the fault-free baseline of ~40 ms.
	e := desc.OneShot(30)
	e.ManipProcesses = []desc.ManipulationProcess{{
		Actor: "actor0", NodesRef: "fact_nodes",
		Actions: []desc.Action{
			desc.WaitEvent(desc.WaitSpec{
				Event: "sd_start_publish", FromActor: "actor0", FromInstance: "all",
			}),
			desc.Act("fault_interface",
				"direction", "both", "duration_s", "10", "rate", "0.99", "randomseed", "1"),
			desc.WaitEvent(desc.WaitSpec{Event: "done"}),
			desc.Act("fault_stop", "kind", "fault_interface"),
		},
	}}
	x, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Results[0]
	if rr.Err != nil || rr.Aborted {
		t.Fatalf("run: err=%v aborted=%v", rr.Err, rr.Aborted)
	}
	ms := metrics.FromReport(e, rep, "", "")
	if !ms[0].Complete {
		t.Fatal("discovery never completed after the fault lifted")
	}
	if ms[0].TR < 3*time.Second {
		t.Fatalf("t_R = %v; the ~10 s interface fault should dominate", ms[0].TR)
	}
	// The fault start/stop events were recorded on the SM (§IV-D3).
	if _, ok := findEvent(rr.Events, "fault_interface_start"); !ok {
		t.Fatal("no fault_interface_start event")
	}
}

func TestEEParamsConfigurePlatform(t *testing.T) {
	// A description alone configures topology, link quality and the run
	// bound through eeparams (§IV-E); explicit Options still win.
	e := desc.OneShot(30)
	e.AbstractNodes = []string{"A", "r0", "B"}
	e.EEParams = []desc.Param{
		{Key: "topology", Value: "chain"},
		{Key: "link_delay_ms", Value: "4"},
		{Key: "link_loss", Value: "0"},
		{Key: "radio_rate_bps", Value: "1000000"},
		{Key: "max_run_time_s", Value: "45"},
	}
	x, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hc := x.Net.HopCount("A", "B"); hc != 2 {
		t.Fatalf("eeparam topology ignored: hops = %d", hc)
	}
	if lp := x.Net.Link("A", "r0"); lp == nil || lp.Delay != 4*time.Millisecond || lp.Loss != 0 {
		t.Fatalf("eeparam link ignored: %+v", lp)
	}
	rep, err := x.Run()
	if err != nil || rep.Completed != 1 {
		t.Fatalf("run: %v, completed=%d", err, rep.Completed)
	}

	// Explicit option overrides the document.
	x2, err := New(e, Options{Topology: TopoFull})
	if err != nil {
		t.Fatal(err)
	}
	if hc := x2.Net.HopCount("A", "B"); hc != 1 {
		t.Fatalf("explicit option lost: hops = %d", hc)
	}

	// The link_burst_* keys switch the links to Gilbert–Elliott loss.
	e.EEParams = append(e.EEParams,
		desc.Param{Key: "link_burst_p_gb", Value: "0.04"},
		desc.Param{Key: "link_burst_p_bg", Value: "0.1"},
		desc.Param{Key: "link_burst_loss_good", Value: "0.01"},
		desc.Param{Key: "link_burst_loss_bad", Value: "0.85"})
	x3, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := netem.BurstLoss{PGoodToBad: 0.04, PBadToGood: 0.1, LossGood: 0.01, LossBad: 0.85}
	if lp := x3.Net.Link("A", "r0"); lp == nil || lp.Burst == nil || *lp.Burst != want || lp.Delay != 4*time.Millisecond {
		t.Fatalf("eeparam burst loss ignored: %+v", lp)
	}

	// Bad values are rejected.
	bad := desc.OneShot(1)
	bad.EEParams = []desc.Param{{Key: "link_loss", Value: "often"}}
	if _, err := New(bad, Options{}); err == nil {
		t.Fatal("bad eeparam accepted")
	}
}
