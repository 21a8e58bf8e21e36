package node

import (
	"strings"
	"testing"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/sd/zeroconf"
	"excovery/internal/vclock"
)

// rig builds two connected managers with zeroconf agents and a shared bus.
type rig struct {
	s    *sched.Scheduler
	nw   *netem.Network
	bus  *eventlog.Bus
	mgrs map[string]*Manager
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := sched.NewVirtual()
	nw := netem.New(s, 3)
	bus := eventlog.NewBus(s)
	r := &rig{s: s, nw: nw, bus: bus, mgrs: map[string]*Manager{}}
	for _, id := range []string{"a", "b"} {
		id := id
		nd := nw.AddNode(netem.NodeID(id), netem.NodeParams{})
		rec := eventlog.NewRecorder(id, vclock.Perfect{S: s}, func(ev eventlog.Event) { bus.Publish(ev) })
		agent := zeroconf.New(s, nd, "", func(typ string, p map[string]string) {
			rec.Emit(typ, p)
		}, int64(len(id)))
		mgr := New(s, nd, rec, agent)
		nd.SetHandler(func(p *netem.Packet) {
			if p.Proto == zeroconf.Proto {
				agent.HandlePacket(p)
			}
		})
		r.mgrs[id] = mgr
	}
	nw.AddLink("a", "b", netem.LinkParams{Delay: time.Millisecond})
	return r
}

func (r *rig) run(t *testing.T, fn func()) {
	t.Helper()
	r.s.Go("test", fn)
	if err := r.s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestSDActionDispatch(t *testing.T) {
	r := newRig(t)
	a, b := r.mgrs["a"], r.mgrs["b"]
	r.run(t, func() {
		a.PrepareRun(0)
		b.PrepareRun(0)
		must(t, a.Execute("sd_init", map[string]string{"role": "SM"}))
		must(t, b.Execute("sd_init", map[string]string{"role": "SU"}))
		must(t, a.Execute("sd_start_publish", map[string]string{}))
		must(t, b.Execute("sd_start_search", map[string]string{}))
		r.s.Sleep(5 * time.Second)
		must(t, b.Execute("sd_stop_search", map[string]string{}))
		must(t, a.Execute("sd_stop_publish", map[string]string{}))
		must(t, a.Execute("sd_exit", nil))
		must(t, b.Execute("sd_exit", nil))
	})
	// Discovery events flowed through the managers' recorders.
	if _, ok := r.bus.FindFirst(eventlog.Match{Type: sd.EvServiceAdd, Nodes: []string{"b"}}); !ok {
		t.Fatal("no sd_service_add recorded")
	}
	if _, ok := r.bus.FindFirst(eventlog.Match{Type: sd.EvStopPublish, Nodes: []string{"a"}}); !ok {
		t.Fatal("no sd_stop_publish recorded")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSDInitValidation(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	r.run(t, func() {
		if err := a.Execute("sd_init", map[string]string{}); err == nil {
			t.Error("sd_init without role accepted")
		}
		if err := a.Execute("sd_init", map[string]string{"role": "DJ"}); err == nil {
			t.Error("unknown role accepted")
		}
	})
}

func TestUnknownActionErrors(t *testing.T) {
	r := newRig(t)
	r.run(t, func() {
		err := r.mgrs["a"].Execute("warp_drive", nil)
		if err == nil || !strings.Contains(err.Error(), "unknown action") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestPluginDispatch(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	got := map[string]string{}
	a.RegisterPlugin("measure_cpu", func(params map[string]string) error {
		got = params
		return nil
	})
	r.run(t, func() {
		must(t, a.Execute("measure_cpu", map[string]string{"interval": "5"}))
	})
	if got["interval"] != "5" {
		t.Fatalf("plugin params = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate plugin registration should panic")
		}
	}()
	a.RegisterPlugin("measure_cpu", func(map[string]string) error { return nil })
}

func TestFaultActionLifecycle(t *testing.T) {
	r := newRig(t)
	a, b := r.mgrs["a"], r.mgrs["b"]
	delivered := 0
	b.Node().SetHandler(func(p *netem.Packet) { delivered++ })
	r.run(t, func() {
		must(t, a.Execute("fault_msg_loss", map[string]string{
			"prob": "1.0", "direction": "transmit", "proto": "sd",
		}))
		if a.ActiveFaults() != 1 {
			t.Errorf("active faults = %d", a.ActiveFaults())
		}
		a.Node().Send(netem.Unicast("b"), "sd", nil)
		r.s.Sleep(50 * time.Millisecond)
		must(t, a.Execute("fault_stop", map[string]string{"kind": "fault_msg_loss"}))
		if a.ActiveFaults() != 0 {
			t.Errorf("faults after stop = %d", a.ActiveFaults())
		}
		a.Node().Send(netem.Unicast("b"), "sd", nil)
		r.s.Sleep(50 * time.Millisecond)
	})
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	// The stop action emitted its event (§IV-D3).
	if _, ok := r.bus.FindFirst(eventlog.Match{Type: "fault_msg_loss_stop"}); !ok {
		t.Fatal("no fault stop event")
	}
}

func TestFaultTimedActivation(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	r.run(t, func() {
		must(t, a.Execute("fault_interface", map[string]string{
			"duration_s": "10", "rate": "0.5", "randomseed": "3",
		}))
		r.s.Sleep(time.Minute)
		if a.ActiveFaults() == 0 {
			t.Error("fault bookkeeping lost the injection")
		}
	})
	// Both start and stop events occurred within the window.
	if _, ok := r.bus.FindFirst(eventlog.Match{Type: "fault_interface_start"}); !ok {
		t.Fatal("no start event")
	}
	if _, ok := r.bus.FindFirst(eventlog.Match{Type: "fault_interface_stop"}); !ok {
		t.Fatal("no stop event")
	}
}

func TestFaultStopAllAndUnknownKind(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	r.run(t, func() {
		must(t, a.Execute("fault_msg_delay", map[string]string{"delay_ms": "10"}))
		must(t, a.Execute("fault_path_loss", map[string]string{"peer": "b", "prob": "0.5"}))
		if a.ActiveFaults() != 2 {
			t.Errorf("active = %d", a.ActiveFaults())
		}
		if err := a.Execute("fault_stop", map[string]string{"kind": "fault_interface"}); err == nil {
			t.Error("stopping absent kind should error")
		}
		must(t, a.Execute("fault_stop", map[string]string{}))
		if a.ActiveFaults() != 0 {
			t.Errorf("active after stop-all = %d", a.ActiveFaults())
		}
	})
}

func TestFaultBadParams(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	r.run(t, func() {
		if err := a.Execute("fault_msg_loss", map[string]string{"prob": "2.0"}); err == nil {
			t.Error("probability 2.0 accepted")
		}
		if err := a.Execute("fault_msg_loss", map[string]string{"direction": "sideways"}); err == nil {
			t.Error("bad direction accepted")
		}
	})
}

func TestPrepareRunResetsState(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	var run0 []eventlog.Event
	r.run(t, func() {
		a.PrepareRun(0)
		must(t, a.Execute("fault_msg_delay", map[string]string{"delay_ms": "5"}))
		a.Emit("custom", nil)
		a.Node().Send(netem.Unicast("b"), "sd", []byte("x"))
		r.s.Sleep(10 * time.Millisecond)
		run0 = a.Recorder().RunEvents(0) // the harvest, before the next run
		a.PrepareRun(1)
		if a.ActiveFaults() != 0 {
			t.Error("faults survived PrepareRun")
		}
		if len(a.Node().Captures()) != 0 {
			t.Error("captures survived PrepareRun")
		}
		if a.Recorder().Run() != 1 {
			t.Errorf("run id = %d", a.Recorder().Run())
		}
	})
	// Events are scoped per run, and the node holds only the run it is in.
	if len(run0) < 2 {
		t.Fatalf("run 0 events = %d", len(run0))
	}
	if evs := a.Recorder().RunEvents(0); len(evs) != 0 {
		t.Fatalf("run 0 still held after PrepareRun(1): %v", evs)
	}
	for _, ev := range a.Recorder().RunEvents(1) {
		if ev.Type == "custom" {
			t.Fatal("run 0 event leaked into run 1")
		}
	}
}

func TestCleanupRunExitsAgentAndFaults(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	r.run(t, func() {
		a.PrepareRun(0)
		must(t, a.Execute("sd_init", map[string]string{"role": "SM"}))
		must(t, a.Execute("sd_start_publish", nil))
		must(t, a.Execute("fault_msg_delay", map[string]string{"delay_ms": "5"}))
		a.CleanupRun(0)
		if a.ActiveFaults() != 0 {
			t.Error("faults survived CleanupRun")
		}
	})
	if _, ok := r.bus.FindFirst(eventlog.Match{Type: sd.EvExitDone, Nodes: []string{"a"}}); !ok {
		t.Fatal("CleanupRun did not exit the agent")
	}
	if _, ok := r.bus.FindFirst(eventlog.Match{Type: "run_exit"}); !ok {
		t.Fatal("no run_exit event")
	}
}

// TestRunEventsNameTheirRun: run_init and run_exit carry the run they
// belong to, also when a run is cleaned up that this node never prepared.
func TestRunEventsNameTheirRun(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	r.run(t, func() {
		a.PrepareRun(3)
		a.CleanupRun(3)
		a.CleanupRun(4)
		a.PrepareRun(5)
		a.CleanupRun(5)
	})
	var got []string
	for _, ev := range r.bus.Events() {
		if ev.Node == "a" && (ev.Type == eventlog.EvRunInit || ev.Type == eventlog.EvRunExit) {
			got = append(got, ev.Type+"="+ev.Param("run"))
		}
	}
	want := "run_init=3 run_exit=3 run_exit=4 run_init=5 run_exit=5"
	if strings.Join(got, " ") != want {
		t.Fatalf("run events %v, want %s", got, want)
	}
}

func TestHarvestRunPackets(t *testing.T) {
	r := newRig(t)
	a, b := r.mgrs["a"], r.mgrs["b"]
	r.run(t, func() {
		a.PrepareRun(0)
		b.PrepareRun(0)
		a.Node().Send(netem.Unicast("b"), "sd", []byte("ping"))
		r.s.Sleep(10 * time.Millisecond)
	})
	pkts := a.HarvestPackets()
	if len(pkts) != 1 || pkts[0].Dir != "tx" || string(pkts[0].Data) != "ping" {
		t.Fatalf("a packets = %+v", pkts)
	}
	// Tagging was enabled by PrepareRun.
	if pkts[0].Tag == 0 {
		t.Fatal("packet tagger inactive")
	}
	if got := b.HarvestPackets(); len(got) != 1 || got[0].Dir != "rx" {
		t.Fatalf("b packets = %+v", got)
	}
	// Harvest clears.
	if len(a.HarvestPackets()) != 0 {
		t.Fatal("harvest did not clear captures")
	}
}

func TestInstanceDefaults(t *testing.T) {
	r := newRig(t)
	a := r.mgrs["a"]
	r.run(t, func() {
		a.PrepareRun(0)
		must(t, a.Execute("sd_init", map[string]string{"role": "SM"}))
		must(t, a.Execute("sd_start_publish", map[string]string{}))
	})
	ev, ok := r.bus.FindFirst(eventlog.Match{Type: sd.EvStartPublish})
	if !ok {
		t.Fatal("no publish event")
	}
	if ev.Param("service") != "a._expproc._udp" {
		t.Fatalf("default instance name = %q", ev.Param("service"))
	}
	if ev.Param("node") != "a" {
		t.Fatalf("node param = %q", ev.Param("node"))
	}
}

func TestLocalTimeUsesNodeClock(t *testing.T) {
	s := sched.NewVirtual()
	nw := netem.New(s, 1)
	nd := nw.AddNode("x", netem.NodeParams{Clock: vclock.NewSkewed(s, time.Second, 0)})
	rec := eventlog.NewRecorder("x", nd.Clock(), nil)
	mgr := New(s, nd, rec, nil)
	s.Go("t", func() {
		if got := mgr.LocalTime().Sub(s.Now()); got != time.Second {
			t.Errorf("LocalTime skew = %v", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
