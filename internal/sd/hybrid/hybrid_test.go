package hybrid

import (
	"testing"
	"time"

	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/sd/scmdir"
)

type rig struct {
	s      *sched.Scheduler
	nw     *netem.Network
	ids    []netem.NodeID
	agents []*Agent
	events map[netem.NodeID][]string
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	s := sched.NewVirtual()
	nw := netem.New(s, 21)
	ids := netem.BuildFull(nw, "h", n, netem.NodeParams{}, netem.LinkParams{Delay: time.Millisecond})
	r := &rig{s: s, nw: nw, ids: ids, events: map[netem.NodeID][]string{}}
	for i, id := range ids {
		id := id
		sink := func(typ string, p map[string]string) {
			r.events[id] = append(r.events[id], typ)
		}
		a := New(s, nw.Node(id), "", sink, int64(300+i))
		nw.Node(id).SetHandler(func(p *netem.Packet) {
			if p.Proto == "sd" {
				a.HandlePacket(p)
			}
		})
		r.agents = append(r.agents, a)
	}
	return r
}

func (r *rig) count(id netem.NodeID, typ string) int {
	n := 0
	for _, e := range r.events[id] {
		if e == typ {
			n++
		}
	}
	return n
}

func inst(name string) sd.Instance {
	return sd.Instance{Name: name, Type: "_exp._udp", Address: "10.0.0.1", Port: 1}
}

func TestHybridWorksWithoutSCM(t *testing.T) {
	// No SCM anywhere: the hybrid agent must behave like a plain
	// two-party agent.
	r := newRig(t, 2)
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if r.count(r.ids[1], sd.EvServiceAdd) != 1 {
		t.Fatalf("adds = %d, want exactly 1", r.count(r.ids[1], sd.EvServiceAdd))
	}
	if su.SCM() != "" {
		t.Fatalf("phantom SCM %q", su.SCM())
	}
	if len(su.Discovered("_exp._udp")) != 1 {
		t.Fatal("Discovered() empty")
	}
}

func TestHybridDeduplicatesAcrossPaths(t *testing.T) {
	// With an SCM present, the SU learns the instance over multicast AND
	// through the directory, but must report sd_service_add exactly once.
	r := newRig(t, 3)
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(30 * time.Second)
	})
	if err := r.s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := r.count(r.ids[2], sd.EvServiceAdd); got != 1 {
		t.Fatalf("adds = %d, want 1 (deduplicated)", got)
	}
	if r.count(r.ids[2], sd.EvSCMFound) == 0 {
		t.Fatal("hybrid SU did not find the SCM")
	}
	if r.count(r.ids[0], sd.EvSCMRegAdd) == 0 {
		t.Fatal("hybrid SM did not register on the SCM")
	}
	if su.SCM() != r.ids[0] {
		t.Fatalf("SCM() = %q", su.SCM())
	}
}

func TestHybridDelOnlyWhenGoneFromBothPaths(t *testing.T) {
	s := sched.NewVirtual()
	nw := netem.New(s, 5)
	ids := netem.BuildFull(nw, "h", 3, netem.NodeParams{}, netem.LinkParams{Delay: time.Millisecond})
	events := map[netem.NodeID][]string{}
	var agents []*Agent
	for i, id := range ids {
		id := id
		a := New(s, nw.Node(id), "", func(typ string, p map[string]string) {
			events[id] = append(events[id], typ)
		}, int64(400+i))
		nw.Node(id).SetHandler(func(p *netem.Packet) { a.HandlePacket(p) })
		agents = append(agents, a)
	}
	scm, sm, su := agents[0], agents[1], agents[2]
	s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		// Run beyond the zeroconf TTL (75 s): announcements stop being
		// refreshed (only the initial burst is sent), so the zeroconf
		// cache entry may expire, but the directory path keeps the
		// instance alive via renewals — no sd_service_del may fire.
		s.Sleep(100 * time.Second)
	})
	if err := s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	del := 0
	for _, e := range events[ids[2]] {
		if e == sd.EvServiceDel {
			del++
		}
	}
	if del != 0 {
		t.Fatalf("sd_service_del fired %d times while directory path alive", del)
	}
	if len(su.Discovered("_exp._udp")) != 1 {
		t.Fatal("instance lost")
	}
}

func TestHybridSCMAppearsLate(t *testing.T) {
	// Adaptive switching: discovery starts two-party; when an SCM boots
	// later, the agents adopt it (scm_found) without interrupting the
	// running search.
	r := newRig(t, 3)
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(20 * time.Second)
		scm.Init(sd.RoleSCM)
		r.s.Sleep(40 * time.Second)
	})
	if err := r.s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if r.count(r.ids[2], sd.EvSCMFound) == 0 {
		t.Fatal("late SCM not adopted by SU")
	}
	if r.count(r.ids[1], sd.EvSCMFound) == 0 {
		t.Fatal("late SCM not adopted by SM")
	}
	if r.count(r.ids[0], sd.EvSCMRegAdd) == 0 {
		t.Fatal("SM did not register on the late SCM")
	}
	if got := r.count(r.ids[2], sd.EvServiceAdd); got != 1 {
		t.Fatalf("adds = %d", got)
	}
}

func TestHybridStopPublishRemovesEverywhere(t *testing.T) {
	r := newRig(t, 3)
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(10 * time.Second)
		sm.StopPublish("svc1")
		r.s.Sleep(5 * time.Second)
		if n := len(su.Discovered("_exp._udp")); n != 0 {
			t.Errorf("still discovered: %d", n)
		}
	})
	if err := r.s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := r.count(r.ids[2], sd.EvServiceDel); got != 1 {
		t.Fatalf("dels = %d, want 1 (gone from both paths)", got)
	}
}

func TestHybridLifecycleEventsEmittedOnce(t *testing.T) {
	r := newRig(t, 2)
	su := r.agents[1]
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		r.s.Sleep(time.Second)
		su.StopSearch("_exp._udp")
		su.Exit()
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{sd.EvInitDone, sd.EvStartSearch, sd.EvStopSearch, sd.EvExitDone} {
		if got := r.count(r.ids[1], typ); got != 1 {
			t.Errorf("%s emitted %d times", typ, got)
		}
	}
}

func TestHybridSCMRoleDegradesToDirectory(t *testing.T) {
	r := newRig(t, 2)
	scm := r.agents[0]
	r.s.Go("t", func() {
		if err := scm.Init(sd.RoleSCM); err != nil {
			t.Error(err)
		}
		scm.Exit()
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if r.count(r.ids[0], sd.EvSCMStarted) != 1 {
		t.Fatal("no scm_started")
	}
	if r.count(r.ids[0], sd.EvExitDone) != 1 {
		t.Fatal("no exit")
	}
}

func TestHybridVsDirAgentsInterop(t *testing.T) {
	// A hybrid SU must find services registered by a pure scmdir SM.
	s := sched.NewVirtual()
	nw := netem.New(s, 9)
	ids := netem.BuildFull(nw, "m", 3, netem.NodeParams{}, netem.LinkParams{Delay: time.Millisecond})
	adds := 0
	scm := scmdir.New(s, nw.Node(ids[0]), nil, 1)
	sm := scmdir.New(s, nw.Node(ids[1]), nil, 2)
	su := New(s, nw.Node(ids[2]), "", func(typ string, p map[string]string) {
		if typ == sd.EvServiceAdd {
			adds++
		}
	}, 3)
	nw.Node(ids[0]).SetHandler(func(p *netem.Packet) { scm.HandlePacket(p) })
	nw.Node(ids[1]).SetHandler(func(p *netem.Packet) { sm.HandlePacket(p) })
	nw.Node(ids[2]).SetHandler(func(p *netem.Packet) { su.HandlePacket(p) })
	s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc-dir"))
		su.StartSearch("_exp._udp")
		s.Sleep(10 * time.Second)
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if adds != 1 {
		t.Fatalf("adds = %d", adds)
	}
}

func TestHybridUpdateAndDiscoveredUnion(t *testing.T) {
	r := newRig(t, 3)
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(10 * time.Second)
		upd := inst("svc1")
		upd.TXT = map[string]string{"v": "2"}
		sm.UpdatePublish(upd)
		r.s.Sleep(5 * time.Second)
		got := su.Discovered("_exp._udp")
		if len(got) != 1 {
			t.Errorf("union = %d instances", len(got))
		} else if got[0].TXT["v"] != "2" {
			t.Errorf("update not visible: %+v", got[0])
		}
	})
	if err := r.s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if r.count(r.ids[1], sd.EvServiceUpd) == 0 {
		t.Fatal("no sd_service_upd from hybrid SM")
	}
}

func TestHybridIdempotentLifecycle(t *testing.T) {
	r := newRig(t, 2)
	su := r.agents[1]
	r.s.Go("t", func() {
		su.Exit() // exit before init is a no-op
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		su.StartSearch("_exp._udp") // duplicate search
		su.StopSearch("_exp._udp")
		su.Exit()
		su.Exit() // double exit
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := r.count(r.ids[1], sd.EvExitDone); got != 1 {
		t.Fatalf("exit events = %d", got)
	}
}
