package master

import (
	"errors"
	"strings"
	"testing"

	"excovery/internal/eventlog"
	"excovery/internal/obs"
)

// scriptedFleet answers each Failover with the next placement of a script.
type scriptedFleet struct {
	script []Placement
	calls  int
}

func (f *scriptedFleet) Failover(run int, nodeErrs map[string]string) (Placement, error) {
	f.calls++
	if len(f.script) == 0 {
		return Placement{}, errors.New("no host left")
	}
	p := f.script[0]
	f.script = f.script[1:]
	return p, nil
}

// TestFailoverPlacementContract pins what the master does with the
// placement a fleet hands back. A placement that lacks a handle for one of
// the run's nodes is a failed failover: counted, announced, and the old
// handles stay in charge. A complete one is driven from the very next
// attempt, with the dead host's /status health record wiped.
func TestFailoverPlacementContract(t *testing.T) {
	s, bus := newFixtureParts()
	dead := &sickNode{stubNode: newStub("A", s, bus), healthErr: errors.New("host down")}
	oldB, oldEnv := newStub("B", s, bus), &stubEnv{}
	halfA := newStub("A", s, bus)
	newA, newB, newEnv := newStub("A", s, bus), newStub("B", s, bus), &stubEnv{}
	fleet := &scriptedFleet{script: []Placement{
		{HostID: "h-half", Nodes: map[string]NodeHandle{"A": halfA}, Env: &stubEnv{}},
		{HostID: "h-new", Nodes: map[string]NodeHandle{"A": newA, "B": newB}, Env: newEnv},
	}}
	reg := obs.NewRegistry()
	status := obs.NewStatus(s.Now)
	m, err := New(Config{Exp: twoNodeExp(1), S: s, Bus: bus,
		Nodes:   map[string]NodeHandle{"A": dead, "B": oldB},
		Env:     oldEnv,
		Retry:   RetryPolicy{MaxAttempts: 3},
		Fleet:   fleet,
		Metrics: reg,
		Status:  status})
	if err != nil {
		t.Fatal(err)
	}
	rep := runMaster(t, m, s)

	if rr := rep.Results[0]; rep.Completed != 1 || rr.Attempts != 3 || rr.Err != nil {
		t.Fatalf("completed=%d attempts=%d err=%v, want the third attempt to complete", rep.Completed, rr.Attempts, rr.Err)
	}
	if fleet.calls != 2 {
		t.Fatalf("fleet asked %d times, want 2", fleet.calls)
	}
	// Attempt 2 still probed the old handle: the short placement changed nothing.
	if dead.probes != 2 || len(halfA.calls) != 0 {
		t.Errorf("old handle probed %d times, short placement's handle saw %v; want 2 and nothing", dead.probes, halfA.calls)
	}
	if got := reg.CounterTotal(obs.MMasterFailoverErrors); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MMasterFailoverErrors, got)
	}
	// The bus forgets at each attempt; the master's own recorder does not.
	announced := map[string]map[string]string{}
	for _, ev := range m.rec.RunEvents(0) {
		announced[ev.Type] = ev.Params
	}
	if p, ok := announced[eventlog.EvFleetFailoverFailed]; !ok || !strings.Contains(p["err"], `no handle for node "B"`) {
		t.Errorf("%s event = %v (emitted %v), want it to name node B", eventlog.EvFleetFailoverFailed, p, ok)
	}
	// Attempt 3 ran on the complete placement, and only there.
	if got := reg.CounterTotal(obs.MMasterFailovers); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MMasterFailovers, got)
	}
	if p, ok := announced[eventlog.EvRunReplaced]; !ok || p["host"] != "h-new" {
		t.Errorf("%s event = %v (emitted %v), want host h-new", eventlog.EvRunReplaced, p, ok)
	}
	for name, calls := range map[string][]string{"new A": newA.calls, "new B": newB.calls} {
		if joined := strings.Join(calls, ","); !strings.Contains(joined, "prepare:0") || !strings.Contains(joined, "cleanup:0") {
			t.Errorf("%s calls = %s, want the whole run", name, joined)
		}
	}
	if len(dead.calls)+len(oldB.calls) != 0 || oldEnv.resets != 0 {
		t.Errorf("old placement was driven: A %v, B %v, env resets %d", dead.calls, oldB.calls, oldEnv.resets)
	}
	if newEnv.resets == 0 {
		t.Error("new placement's environment was never reset")
	}
	// Two failed probes marked A failing; the failover cleared that, and
	// nothing on the new host probes it again.
	if ns := status.Snapshot().Nodes["A"]; ns != (obs.NodeState{Health: "ok"}) {
		t.Errorf("status node A = %+v after failover, want a clean ok record", ns)
	}
}
