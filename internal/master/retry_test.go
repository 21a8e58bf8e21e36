package master

import (
	"errors"
	"strings"
	"testing"

	"excovery/internal/eventlog"
	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/store"
)

// sickNode wraps a stub with a controllable health probe and per-run
// transport-error reporting, mimicking noderpc.RemoteNode.
type sickNode struct {
	*stubNode
	healthErr  error
	healthFail int // fail the first n probes, then succeed
	probes     int
	runErr     error
}

func (n *sickNode) Health() error {
	n.probes++
	if n.healthFail > 0 {
		n.healthFail--
		return errors.New("probe failed")
	}
	return n.healthErr
}

func (n *sickNode) Err() error { return n.runErr }

func TestRunLevelRetryRecoversTransientFailure(t *testing.T) {
	m, f := newFixture(t, twoNodeExp(1), func(c *Config) {
		c.Retry = RetryPolicy{MaxAttempts: 3}
	})
	f.a.failN["alpha"] = 1 // first attempt fails, second succeeds
	rep := runMaster(t, m, f.s)
	if rep.Completed != 1 || rep.Retried != 1 {
		t.Fatalf("report: completed=%d retried=%d", rep.Completed, rep.Retried)
	}
	rr := rep.Results[0]
	if rr.Err != nil || rr.Attempts != 2 {
		t.Fatalf("result: err=%v attempts=%d", rr.Err, rr.Attempts)
	}
	// The retried attempt announced itself on the bus.
	if _, ok := f.bus.FindFirst(eventlog.Match{Type: "run_retry"}); !ok {
		t.Fatal("no run_retry event")
	}
}

func TestRunLevelRetryExhausted(t *testing.T) {
	m, f := newFixture(t, twoNodeExp(1), func(c *Config) {
		c.Retry = RetryPolicy{MaxAttempts: 2}
	})
	f.a.fail["alpha"] = true // every attempt fails
	rep := runMaster(t, m, f.s)
	if rep.Completed != 0 || rep.Retried != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if rr := rep.Results[0]; rr.Err == nil || rr.Attempts != 2 {
		t.Fatalf("result: err=%v attempts=%d", rr.Err, rr.Attempts)
	}
	// Each attempt ran the full three phases.
	joined := strings.Join(f.a.calls, ",")
	if strings.Count(joined, "prepare:0") != 2 || strings.Count(joined, "cleanup:0") != 2 {
		t.Fatalf("calls = %s", joined)
	}
}

func TestPreflightHealthFailureRetries(t *testing.T) {
	e := twoNodeExp(1)
	s, bus := newFixtureParts()
	sick := &sickNode{stubNode: newStub("A", s, bus), healthFail: 1}
	b := newStub("B", s, bus)
	m, err := New(Config{Exp: e, S: s, Bus: bus,
		Nodes: map[string]NodeHandle{"A": sick, "B": b},
		Env:   &stubEnv{},
		Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	rep := runMaster(t, m, s)
	// Attempt 1 fails preflight (probe error, no phases run); attempt 2
	// probes healthy and completes.
	if rep.Completed != 1 || rep.HealthFailures != 1 || rep.HealthProbes != 2 {
		t.Fatalf("report: completed=%d probes=%d failures=%d",
			rep.Completed, rep.HealthProbes, rep.HealthFailures)
	}
	if got := strings.Count(strings.Join(sick.calls, ","), "prepare:0"); got != 1 {
		t.Fatalf("unhealthy attempt still prepared the node: %v", sick.calls)
	}
}

// TestDeadNodeProbedAtEveryAttempt: under the default policy a node that
// never answers is probed at every attempt — there is no state in which the
// master stops asking. Every run fails as unhealthy, keeps a partial
// harvest for the post-mortem and stays not-done, so a resumed session
// re-executes it; /status counts the consecutive failures.
func TestDeadNodeProbedAtEveryAttempt(t *testing.T) {
	st, err := store.NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := twoNodeExp(3)
	s, bus := newFixtureParts()
	sick := &sickNode{stubNode: newStub("A", s, bus), healthErr: errors.New("dead")}
	b := newStub("B", s, bus)
	status := obs.NewStatus(s.Now)
	m, err := New(Config{Exp: e, S: s, Bus: bus,
		Nodes:  map[string]NodeHandle{"A": sick, "B": b},
		Env:    &stubEnv{},
		Store:  st,
		Status: status})
	if err != nil {
		t.Fatal(err)
	}
	rep := runMaster(t, m, s)
	if rep.Completed != 0 || rep.Failed != 3 {
		t.Fatalf("completed=%d failed=%d with a dead node, want 0/3", rep.Completed, rep.Failed)
	}
	if sick.probes != 3 || rep.HealthProbes != 3 || rep.HealthFailures != 3 {
		t.Fatalf("node probed %d times, report %d/%d; want one probe per attempt (3)",
			sick.probes, rep.HealthFailures, rep.HealthProbes)
	}
	for _, rr := range rep.Results {
		if rr.Err == nil || !strings.Contains(rr.Err.Error(), "node A unhealthy") {
			t.Fatalf("run %d err = %v", rr.Run.ID, rr.Err)
		}
		if rr.NodeErrs["A"] == "" {
			t.Fatalf("run %d NodeErrs = %v, want node A implicated", rr.Run.ID, rr.NodeErrs)
		}
		if !rr.Partial || st.RunDone(rr.Run.ID) {
			t.Fatalf("run %d partial=%v done=%v, want a partial harvest and not done",
				rr.Run.ID, rr.Partial, st.RunDone(rr.Run.ID))
		}
	}
	if ns := status.Snapshot().Nodes["A"]; ns.Health != "failing" || ns.ConsecutiveFailures != 3 || ns.LastErr != "dead" {
		t.Fatalf("status node A = %+v", ns)
	}
}

func TestControlChannelErrorFailsRun(t *testing.T) {
	// A node that swallows transport errors (lost emits) must fail the
	// run so the data is not silently incomplete.
	e := twoNodeExp(1)
	s, bus := newFixtureParts()
	sick := &sickNode{stubNode: newStub("A", s, bus), runErr: errors.New("lost emit")}
	b := newStub("B", s, bus)
	m, err := New(Config{Exp: e, S: s, Bus: bus,
		Nodes: map[string]NodeHandle{"A": sick, "B": b}, Env: &stubEnv{}})
	if err != nil {
		t.Fatal(err)
	}
	rep := runMaster(t, m, s)
	rr := rep.Results[0]
	if rr.Err == nil || !strings.Contains(rr.Err.Error(), "control channel") {
		t.Fatalf("err = %v", rr.Err)
	}
	if rr.NodeErrs["A"] != "lost emit" {
		t.Fatalf("NodeErrs = %v", rr.NodeErrs)
	}
}

func TestPartialHarvestOfFailedRun(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, f := newFixture(t, twoNodeExp(1), func(c *Config) {
		c.Store = st
		c.Retry = RetryPolicy{MaxAttempts: 2}
	})
	f.a.fail["omega"] = true // fails late: alpha already produced events
	rep := runMaster(t, m, f.s)
	if rep.Completed != 0 {
		t.Fatal("failed run counted completed")
	}
	if !rep.Results[0].Partial {
		t.Fatal("result not marked partial")
	}
	// The run is not done — resume must re-execute it.
	if st.RunDone(0) {
		t.Fatal("partial run marked done")
	}
	info, err := st.ReadRunInfo(0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Partial || info.Attempts != 2 || !strings.Contains(info.Err, "stub failure") {
		t.Fatalf("runinfo = %+v", info)
	}
	// Salvaged events are present for post-mortems.
	evs, err := st.ReadEvents(0, "A")
	if err != nil || len(evs) == 0 {
		t.Fatalf("salvaged events = %d, %v", len(evs), err)
	}
	found := false
	for _, ev := range evs {
		if ev.Type == "alpha_done" {
			found = true
		}
	}
	if !found {
		t.Fatalf("alpha_done missing from salvaged events: %v", evs)
	}
}

func TestAbortedRunPartialHarvest(t *testing.T) {
	dir := t.TempDir()
	st, _ := store.NewRunStore(dir)
	m, f := newFixture(t, twoNodeExp(1), func(c *Config) {
		c.Store = st
		c.MaxRunTime = 5 * 1e9 // 5 s virtual
	})
	f.a.hang["alpha"] = true
	rep := runMaster(t, m, f.s)
	if !rep.Results[0].Aborted || !rep.Results[0].Partial {
		t.Fatalf("result: %+v", rep.Results[0])
	}
	info, err := st.ReadRunInfo(0)
	if err != nil || !info.Partial || !info.Aborted {
		t.Fatalf("runinfo = %+v, %v", info, err)
	}
	if st.RunDone(0) {
		t.Fatal("aborted run marked done")
	}
}

// TestDeadNodeAnsweringAgainRejoinsNextRun: a node whose probe fails in
// run 0 and succeeds from then on costs exactly that run. The next
// attempt's probe is all it takes to use the node again — one probe per
// run, no knob.
func TestDeadNodeAnsweringAgainRejoinsNextRun(t *testing.T) {
	e := twoNodeExp(5)
	s, bus := newFixtureParts()
	sick := &sickNode{stubNode: newStub("A", s, bus), healthFail: 1}
	b := newStub("B", s, bus)
	status := obs.NewStatus(s.Now)
	m, err := New(Config{Exp: e, S: s, Bus: bus,
		Nodes:  map[string]NodeHandle{"A": sick, "B": b},
		Env:    &stubEnv{},
		Status: status})
	if err != nil {
		t.Fatal(err)
	}
	rep := runMaster(t, m, s)
	if rep.Completed != 4 || rep.Failed != 1 || rep.Results[0].Err == nil {
		t.Fatalf("completed=%d failed=%d run 0 err=%v, want 4/1 with run 0 failed",
			rep.Completed, rep.Failed, rep.Results[0].Err)
	}
	if sick.probes != 5 {
		t.Fatalf("probes = %d, want 5", sick.probes)
	}
	if ns := status.Snapshot().Nodes["A"]; ns != (obs.NodeState{Health: "ok"}) {
		t.Fatalf("status node A = %+v, want ok with no failures", ns)
	}
}

// newFixtureParts builds just the scheduler and bus for tests that need
// custom node handles.
func newFixtureParts() (*sched.Scheduler, *eventlog.Bus) {
	s := sched.NewVirtual()
	return s, eventlog.NewBus(s)
}
