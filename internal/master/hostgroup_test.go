package master

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"excovery/internal/obs"
)

// fakeHost is one backing host of hostedNodes: it counts its host-level
// calls per phase and can refuse every ping or prepare.
type fakeHost struct {
	key         string
	calls       map[string]int
	failPing    bool
	failPrepare bool
}

// hostedNode is a stub node served by a fakeHost. Like noderpc.RemoteNode
// it implements the host-group extension and keeps a per-run error window
// that opens at prepare.
type hostedNode struct {
	*stubNode
	host   *fakeHost
	offset time.Duration // local clock minus the reference clock
	runErr error
}

func (n *hostedNode) ObsSource() string { return n.host.key }
func (n *hostedNode) Err() error        { return n.runErr }

func (n *hostedNode) GroupHealth(group []NodeHandle) error {
	n.host.calls["ping "+groupIDs(group)]++
	if n.host.failPing {
		return errors.New("connection refused")
	}
	return nil
}

func (n *hostedNode) GroupPrepareRun(group []NodeHandle, run int) {
	n.host.calls["prepare "+groupIDs(group)]++
	for _, h := range group {
		m := h.(*hostedNode)
		m.runErr = nil
		if n.host.failPrepare {
			m.runErr = errors.New("host " + n.host.key + " refused prepare")
			continue
		}
		m.stubNode.PrepareRun(run)
	}
}

func (n *hostedNode) GroupLocalTime(group []NodeHandle) ([]time.Time, error) {
	n.host.calls["localtime "+groupIDs(group)]++
	out := make([]time.Time, len(group))
	for i, h := range group {
		m := h.(*hostedNode)
		out[i] = m.s.Now().Add(m.offset)
	}
	return out, nil
}

func (n *hostedNode) GroupCleanupRun(group []NodeHandle, run int) {
	n.host.calls["cleanup "+groupIDs(group)]++
	for _, h := range group {
		h.(*hostedNode).stubNode.CleanupRun(run)
	}
}

func groupIDs(group []NodeHandle) string {
	ids := make([]string, len(group))
	for i, h := range group {
		ids[i] = h.ID()
	}
	return strings.Join(ids, ",")
}

// hostGroupFixture serves A and C from host h1, B and D from host h2 —
// interleaved in node order — and E from a plain handle with a health
// probe. Every clock runs ahead of the reference by its node's offset.
type hostGroupFixture struct {
	h1, h2 *fakeHost
	e      *sickNode
	status *obs.Status
	m      *Master
}

func newHostGroupFixture(t *testing.T, reps, fanout int) *hostGroupFixture {
	t.Helper()
	s, bus := newFixtureParts()
	f := &hostGroupFixture{
		h1:     &fakeHost{key: "http://h1", calls: map[string]int{}},
		h2:     &fakeHost{key: "http://h2", calls: map[string]int{}},
		e:      &sickNode{stubNode: newStub("E", s, bus)},
		status: obs.NewStatus(s.Now),
	}
	handles := map[string]NodeHandle{"E": f.e}
	for i, id := range []string{"A", "B", "C", "D"} {
		h := f.h1
		if id == "B" || id == "D" {
			h = f.h2
		}
		handles[id] = &hostedNode{stubNode: newStub(id, s, bus), host: h,
			offset: time.Duration(i+1) * time.Millisecond}
	}
	m, err := New(Config{Exp: twoNodeExp(reps), S: s, Bus: bus, Nodes: handles,
		Env: &stubEnv{}, Fanout: fanout, Status: f.status})
	if err != nil {
		t.Fatal(err)
	}
	f.m = m
	return f
}

func (f *hostGroupFixture) run(t *testing.T) *Report {
	t.Helper()
	return runMaster(t, f.m, f.m.cfg.S)
}

// TestHostGroupsOneCallPerHostPerPhase: with two hosts behind the
// extension and one plain handle, every broadcast phase makes exactly one
// call per host, naming its nodes in node order, while the plain handle
// keeps its per-node calls; clock offsets land slot-ordered.
func TestHostGroupsOneCallPerHostPerPhase(t *testing.T) {
	for _, fanout := range []int{1, 4} {
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			f := newHostGroupFixture(t, 2, fanout)
			rep := f.run(t)
			if rep.Completed != 2 {
				t.Fatalf("completed %d of 2: %+v", rep.Completed, rep.Results)
			}
			for _, h := range []struct {
				host *fakeHost
				ids  string
			}{{f.h1, "A,C"}, {f.h2, "B,D"}} {
				want := map[string]int{"ping " + h.ids: 2, "prepare " + h.ids: 2,
					"localtime " + h.ids: 6, "cleanup " + h.ids: 2}
				if fmt.Sprint(h.host.calls) != fmt.Sprint(want) {
					t.Errorf("host %s calls = %v, want %v", h.host.key, h.host.calls, want)
				}
			}
			if got := strings.Join(f.e.calls, ","); got != "prepare:0,cleanup:0,prepare:1,cleanup:1" || f.e.probes != 2 {
				t.Errorf("plain handle E: calls %s, %d probes; want its own per-node calls and 2 probes", got, f.e.probes)
			}
			if rep.HealthProbes != 10 {
				t.Errorf("health probes = %d, want 10 (five nodes, two runs)", rep.HealthProbes)
			}
			for _, rr := range rep.Results {
				var got []string
				for _, ms := range rr.Offsets {
					got = append(got, fmt.Sprintf("%s=%v", ms.Node, ms.Offset))
				}
				// E's clock is the reference clock itself.
				if want := "A=1ms B=2ms C=3ms D=4ms E=0s"; strings.Join(got, " ") != want {
					t.Errorf("run %d offsets = %v, want %s", rr.Run.ID, got, want)
				}
			}
		})
	}
}

// TestHostGroupFailureFailsEveryMember: when one host refuses prepare,
// NodeErrs names exactly that host's nodes, and /status marks only those
// nodes failing.
func TestHostGroupFailureFailsEveryMember(t *testing.T) {
	for _, fanout := range []int{1, 4} {
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			f := newHostGroupFixture(t, 1, fanout)
			f.h2.failPrepare = true
			rep := f.run(t)
			rr := rep.Results[0]
			if rep.Failed != 1 || rr.Err == nil || !strings.Contains(rr.Err.Error(), "control channel to node B") {
				t.Fatalf("failed=%d err=%v, want the run failed on node B", rep.Failed, rr.Err)
			}
			var implicated []string
			for id := range rr.NodeErrs {
				implicated = append(implicated, id)
			}
			sort.Strings(implicated)
			if fmt.Sprint(implicated) != "[B D]" {
				t.Errorf("NodeErrs = %v, want exactly host h2's nodes B and D", rr.NodeErrs)
			}
			snap := f.status.Snapshot()
			for _, id := range []string{"A", "B", "C", "D", "E"} {
				want := "ok"
				if id == "B" || id == "D" {
					want = "failing"
				}
				if got := snap.Nodes[id].Health; got != want {
					t.Errorf("/status node %s = %q, want %q", id, got, want)
				}
			}
		})
	}
}

// TestHostGroupPreflightFailure: a host whose ping fails makes its nodes
// unhealthy together — every member counted, implicated and failing — and
// the error keeps its per-node shape, naming the first of them.
func TestHostGroupPreflightFailure(t *testing.T) {
	f := newHostGroupFixture(t, 1, 1)
	f.h1.failPing = true
	rep := f.run(t)
	rr := rep.Results[0]
	if rr.Err == nil || rr.Err.Error() != "master: run 0: node A unhealthy: connection refused" {
		t.Fatalf("err = %v, want node A unhealthy", rr.Err)
	}
	if len(rr.NodeErrs) != 2 || rr.NodeErrs["A"] == "" || rr.NodeErrs["C"] == "" {
		t.Errorf("NodeErrs = %v, want exactly host h1's nodes A and C", rr.NodeErrs)
	}
	if rep.HealthProbes != 5 || rep.HealthFailures != 2 {
		t.Errorf("health probes %d, failures %d; want 5 and 2", rep.HealthProbes, rep.HealthFailures)
	}
	snap := f.status.Snapshot()
	for _, id := range []string{"A", "C"} {
		if ns := snap.Nodes[id]; ns.Health != "failing" || ns.LastErr != "connection refused" {
			t.Errorf("/status node %s = %+v, want failing", id, ns)
		}
	}
	if n := f.h1.calls["prepare A,C"] + f.h2.calls["prepare B,D"]; n != 0 {
		t.Errorf("%d prepares after a failed preflight, want none", n)
	}
}
