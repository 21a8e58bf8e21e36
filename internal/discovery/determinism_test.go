package discovery_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/discovery"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/sched"
	"excovery/internal/store"
)

// The virtual-time determinism harness: two full platform replicas share
// one virtual scheduler and event bus, standing in for two node hosts
// whose emulators would otherwise live in separate processes. A
// registry-backed fleet places the campaign on replica A and — when A is
// "killed" — re-places it on replica B, exactly like the distributed
// failover path but with every source of nondeterminism pinned.

// vhost is one virtual node host: a platform replica plus the fencing
// state a real noderpc.Host keeps (accepted epoch high-water mark).
type vhost struct {
	id  string
	x   *core.Experiment
	hnd map[string]master.NodeHandle

	mu     sync.Mutex
	epoch  int64
	killed bool
}

func (h *vhost) setMaster(epoch int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if epoch < h.epoch {
		return fmt.Errorf("set_master: fenced: stale epoch %d (host claimed at epoch %d)", epoch, h.epoch)
	}
	h.epoch = epoch
	return nil
}

func (h *vhost) kill() {
	h.mu.Lock()
	h.killed = true
	h.mu.Unlock()
}

func (h *vhost) dead() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.killed
}

// vfleet implements master.FleetManager over a discovery.Registry and the
// in-memory vhosts, mirroring discovery.Fleet's claim/adopt/failover
// choreography without the wire.
type vfleet struct {
	reg      *discovery.Registry
	masterID string
	byID     map[string]*vhost
	nodes    map[string]master.NodeHandle // vnodes, one per platform node

	mu     sync.Mutex
	act    *vhost
	spares []discovery.Host
}

func (f *vfleet) connect(t *testing.T) {
	t.Helper()
	claimed := f.reg.Claim(f.masterID, 0, "")
	if len(claimed) == 0 {
		t.Fatal("vfleet: nothing claimable")
	}
	if err := f.byID[claimed[0].ID].setMaster(claimed[0].Epoch); err != nil {
		t.Fatal(err)
	}
	f.act, f.spares = f.byID[claimed[0].ID], claimed[1:]
}

// handoff is the reference campaign's planned migration: adopt the next
// spare at a run boundary with no failure involved. It consumes the same
// claims at the same boundary as a failover, so the two campaigns stay
// PRNG-for-PRNG comparable.
func (f *vfleet) handoff() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.byID[f.spares[0].ID]
	if err := h.setMaster(f.spares[0].Epoch); err != nil {
		return err
	}
	f.act, f.spares = h, f.spares[1:]
	return nil
}

// Failover implements master.FleetManager. Its placement is the vnode and
// venv handles the campaign started with: they resolve the active host per
// call, so the failover campaign keeps driving the very handles the
// planned-handoff reference does.
func (f *vfleet) Failover(run int, nodeErrs map[string]string) (master.Placement, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reg.ReportDown(f.masterID, f.act.id)
	for len(f.spares) > 0 {
		h := f.byID[f.spares[0].ID]
		epoch := f.spares[0].Epoch
		f.spares = f.spares[1:]
		if h.dead() {
			f.reg.Release(f.masterID, h.id)
			continue
		}
		if err := h.setMaster(epoch); err != nil {
			return master.Placement{}, err
		}
		f.act = h
		return master.Placement{HostID: h.id, Nodes: f.nodes, Env: venv{f}}, nil
	}
	return master.Placement{}, fmt.Errorf("vfleet: no replacement for run %d", run)
}

func (f *vfleet) active() *vhost {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.act
}

// vnode is a handle that follows the fleet: it resolves the active host
// per call, which is what lets the reference campaign migrate at a run
// boundary without a failover.
type vnode struct {
	id string
	f  *vfleet
}

func (n *vnode) h() master.NodeHandle { return n.f.active().hnd[n.id] }

func (n *vnode) ID() string                                  { return n.id }
func (n *vnode) PrepareRun(run int)                          { n.h().PrepareRun(run) }
func (n *vnode) CleanupRun(run int)                          { n.h().CleanupRun(run) }
func (n *vnode) Execute(a string, p map[string]string) error { return n.h().Execute(a, p) }
func (n *vnode) Emit(t string, p map[string]string)          { n.h().Emit(t, p) }
func (n *vnode) LocalTime() time.Time                        { return n.h().LocalTime() }
func (n *vnode) HarvestEvents(run int) []eventlog.Event      { return n.h().HarvestEvents(run) }
func (n *vnode) HarvestPackets() []store.PacketRecord        { return n.h().HarvestPackets() }
func (n *vnode) HarvestExtras() []store.ExtraMeasurement     { return n.h().HarvestExtras() }

// Health implements master.HealthChecker: the preflight probe is where a
// dead host surfaces — before any platform activity, so a killed attempt
// consumes zero virtual time.
func (n *vnode) Health() error {
	if n.f.active().dead() {
		return fmt.Errorf("vnode %s: host %s is dead", n.id, n.f.active().id)
	}
	return nil
}

// venv is the environment executor counterpart of vnode.
type venv struct{ f *vfleet }

func (v venv) Execute(a string, p map[string]string) error { return v.f.active().x.Env.Execute(a, p) }
func (v venv) Reset()                                      { v.f.active().x.Env.Reset() }

type campaignResult struct {
	rep    *master.Report
	events map[int][]eventlog.Event
	pkts   map[int][]store.PacketRecord
	replay store.Replay
	fleet  *vfleet
}

// runVirtualCampaign executes one deterministic dual-replica campaign.
// kill=false performs a planned handoff to replica B after the second
// run; kill=true murders replica A at the same boundary and lets the
// master's failover path recover. Everything else is identical.
func runVirtualCampaign(t *testing.T, kill bool) campaignResult {
	t.Helper()
	s := sched.New(sched.Virtual, time.Unix(0, 0))
	bus := eventlog.NewBus(s)

	mkHost := func(id string) *vhost {
		x, err := core.New(desc.OneShot(30), core.Options{S: s, Bus: bus, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		hnd := make(map[string]master.NodeHandle, len(x.Managers))
		for nid, mgr := range x.Managers {
			hnd[nid] = mgr
		}
		return &vhost{id: id, x: x, hnd: hnd}
	}
	a := mkHost("h-a")
	b := mkHost("h-b")

	nodeIDs := make([]string, 0, len(a.hnd))
	for id := range a.hnd {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Strings(nodeIDs)

	reg := discovery.NewRegistry()
	reg.Register("h-a", "mem://a", nodeIDs, "", time.Hour, 0)
	reg.Register("h-b", "mem://b", nodeIDs, "", time.Hour, 0)
	vf := &vfleet{reg: reg, masterID: "m-det", byID: map[string]*vhost{"h-a": a, "h-b": b}}
	vf.connect(t)
	if vf.active() != a {
		t.Fatalf("initial placement on %s, want h-a", vf.active().id)
	}

	vf.nodes = make(map[string]master.NodeHandle, len(nodeIDs))
	for _, id := range nodeIDs {
		vf.nodes[id] = &vnode{id: id, f: vf}
	}

	e := desc.OneShot(30)
	e.Repl.Count = 4
	dir := t.TempDir()
	st, err := store.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}

	completed := 0
	moved := false
	m, err := master.New(master.Config{
		Exp: e, S: s, Bus: bus,
		Nodes:   vf.nodes,
		Env:     venv{vf},
		Store:   st,
		Journal: j,
		Retry:   master.RetryPolicy{MaxAttempts: 2},
		Fleet:   vf,
		OnRunDone: func(run desc.Run, rr master.RunResult) {
			completed++
			if completed != 2 || moved {
				return
			}
			moved = true
			if kill {
				a.kill()
			} else if err := vf.handoff(); err != nil {
				t.Errorf("handoff: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var rep *master.Report
	var runErr error
	s.Go("experimaster", func() { rep, runErr = m.RunAll() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !moved {
		t.Fatal("boundary hook never fired")
	}
	if vf.active() != b {
		t.Fatalf("campaign ended on %s, want h-b", vf.active().id)
	}

	j.Close()
	j2, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	rp := j2.Replay()
	j2.Close()

	db, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res := campaignResult{rep: rep, replay: rp, fleet: vf,
		events: map[int][]eventlog.Event{}, pkts: map[int][]store.PacketRecord{}}
	for _, rr := range rep.Results {
		id := rr.Run.ID
		if res.events[id], err = db.EventsOfRun(id); err != nil {
			t.Fatal(err)
		}
		if res.pkts[id], err = db.PacketsOfRun(id); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// nodeScoped drops master/env-recorder events ("env" node) and rebases
// the bus sequence numbers, leaving exactly the platform nodes' telemetry
// in arrival order.
func nodeScoped(evs []eventlog.Event) []eventlog.Event {
	out := make([]eventlog.Event, 0, len(evs))
	for _, ev := range evs {
		if ev.Node == "env" {
			continue
		}
		out = append(out, ev)
	}
	if len(out) > 0 {
		base := out[0].Seq
		for i := range out {
			out[i].Seq -= base
		}
	}
	return out
}

// TestFailoverReplayIsByteIdentical pins the strongest robustness claim:
// a campaign that loses its backing host mid-flight produces *the same
// level-3 artifacts* as one that migrated on purpose at the same run
// boundary. The killed attempt fails in preflight (zero virtual time),
// the journal shows exactly-once re-execution, and every unaffected run
// is byte-identical — events and packets. The interrupted run is
// byte-identical in its node-scoped telemetry; it differs only by the
// master's own retry/failover markers.
func TestFailoverReplayIsByteIdentical(t *testing.T) {
	ref := runVirtualCampaign(t, false)
	chaos := runVirtualCampaign(t, true)

	if ref.rep.Completed != 4 || chaos.rep.Completed != 4 {
		t.Fatalf("completed: ref %d, chaos %d, want 4", ref.rep.Completed, chaos.rep.Completed)
	}
	if ref.rep.Retried != 0 || chaos.rep.Retried != 1 {
		t.Fatalf("retried: ref %d, chaos %d, want 0/1", ref.rep.Retried, chaos.rep.Retried)
	}

	// The journal pins exactly-once re-execution of exactly one run.
	killRun := -1
	for id, n := range chaos.replay.Attempts {
		if !chaos.replay.Done[id] || chaos.replay.InDoubt(id) {
			t.Errorf("run %d not durably done after failover", id)
		}
		if n > 1 {
			if killRun != -1 {
				t.Fatalf("runs %d and %d both re-executed", killRun, id)
			}
			if n != 2 {
				t.Fatalf("run %d took %d attempts, want 2", id, n)
			}
			killRun = id
		}
	}
	if killRun != 2 {
		t.Fatalf("re-executed run = %d, want 2 (the one after the kill boundary)", killRun)
	}

	for _, rr := range ref.rep.Results {
		id := rr.Run.ID
		if !bytes.Equal(mustJSON(t, ref.pkts[id]), mustJSON(t, chaos.pkts[id])) {
			t.Errorf("run %d: packet records diverge between planned handoff and failover", id)
		}
		if id == killRun {
			refN := nodeScoped(ref.events[id])
			chaosN := nodeScoped(chaos.events[id])
			if !bytes.Equal(mustJSON(t, refN), mustJSON(t, chaosN)) {
				t.Errorf("run %d: node-scoped events of the re-executed run diverge", id)
			}
			sawRetry := false
			for _, ev := range chaos.events[id] {
				if ev.Type == eventlog.EvRunRetry {
					sawRetry = true
				}
			}
			if !sawRetry {
				t.Errorf("run %d: no %s marker in the failover campaign", id, eventlog.EvRunRetry)
			}
			continue
		}
		if !bytes.Equal(mustJSON(t, ref.events[id]), mustJSON(t, chaos.events[id])) {
			t.Errorf("run %d: events diverge between planned handoff and failover", id)
		}
	}

	// Fencing survives in the virtual harness too: after the failover the
	// survivor was claimed at a higher epoch and refuses the old one.
	stale := chaos.fleet.byID["h-b"].epoch - 1
	if err := chaos.fleet.byID["h-b"].setMaster(stale); err == nil {
		t.Fatal("survivor accepted a stale fencing epoch")
	}
	// The registry marked the dead host; only a re-registration revives it.
	for _, h := range chaos.fleet.reg.Snapshot() {
		if h.ID == "h-a" && h.Alive {
			t.Fatalf("dead host still alive in the registry: %+v", h)
		}
	}
}
