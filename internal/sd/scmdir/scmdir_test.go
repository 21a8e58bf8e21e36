package scmdir

import (
	"testing"
	"time"

	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/sd"
)

type rig struct {
	s      *sched.Scheduler
	nw     *netem.Network
	ids    []netem.NodeID
	agents []*Agent
	events map[netem.NodeID][]string
}

func newRig(t *testing.T, n int, link netem.LinkParams) *rig {
	t.Helper()
	s := sched.NewVirtual()
	nw := netem.New(s, 11)
	ids := netem.BuildFull(nw, "n", n, netem.NodeParams{}, link)
	r := &rig{s: s, nw: nw, ids: ids, events: map[netem.NodeID][]string{}}
	for i, id := range ids {
		id := id
		sink := func(typ string, p map[string]string) {
			r.events[id] = append(r.events[id], typ)
		}
		a := New(s, nw.Node(id), sink, int64(200+i))
		nw.Node(id).SetHandler(func(p *netem.Packet) {
			if p.Proto == Proto {
				a.HandlePacket(p)
			}
		})
		r.agents = append(r.agents, a)
	}
	return r
}

func (r *rig) has(id netem.NodeID, typ string) bool {
	for _, e := range r.events[id] {
		if e == typ {
			return true
		}
	}
	return false
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
	return sd.Instance{Name: name, Type: "_exp._udp", Address: "10.0.0.9", Port: 99}
}

func TestThreePartyDiscovery(t *testing.T) {
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
	})
	if err := r.s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[0], sd.EvSCMStarted) {
		t.Fatal("no scm_started")
	}
	if !r.has(r.ids[1], sd.EvSCMFound) || !r.has(r.ids[2], sd.EvSCMFound) {
		t.Fatal("SM/SU did not find the SCM")
	}
	if !r.has(r.ids[0], sd.EvSCMRegAdd) {
		t.Fatal("no scm_registration_add on SCM")
	}
	if !r.has(r.ids[2], sd.EvServiceAdd) {
		t.Fatal("SU did not discover the service")
	}
	if sm.SCM() != r.ids[0] || su.SCM() != r.ids[0] {
		t.Fatalf("SCM() = %s / %s", sm.SCM(), su.SCM())
	}
}

func TestPublishBeforeSCMFoundIsPended(t *testing.T) {
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		// SM and SU start before any SCM exists.
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(10 * time.Second)
		scm.Init(sd.RoleSCM) // SCM appears late
	})
	if err := r.s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[2], sd.EvServiceAdd) {
		t.Fatal("pended search did not complete after SCM appeared")
	}
	if !r.has(r.ids[0], sd.EvSCMRegAdd) {
		t.Fatal("pended registration did not reach SCM")
	}
}

func TestNotificationPush(t *testing.T) {
	// SU subscribes first; a service registered later must be pushed
	// without SU polling.
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	var addAt, regAt time.Time
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		r.s.Sleep(5 * time.Second)
		sm.Init(sd.RoleSM)
		r.s.Sleep(2 * time.Second)
		regAt = r.s.Now()
		sm.StartPublish(inst("svc-late"))
		for su.Cache().Len() == 0 {
			r.s.Sleep(time.Millisecond)
		}
		addAt = r.s.Now()
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if lat := addAt.Sub(regAt); lat <= 0 || lat > time.Second {
		t.Fatalf("notification latency = %v, want push within 1s", lat)
	}
}

func TestDeregistrationNotifiesDel(t *testing.T) {
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(5 * time.Second)
		sm.StopPublish("svc1")
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[0], sd.EvSCMRegDel) {
		t.Fatal("no scm_registration_del")
	}
	if !r.has(r.ids[2], sd.EvServiceDel) {
		t.Fatal("SU not notified of removal")
	}
	if su.Cache().Len() != 0 {
		t.Fatal("SU cache still holds removed service")
	}
}

func TestRegistrationExpiryWithoutRenewal(t *testing.T) {
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(3 * time.Second)
		// SM dies silently: interface down stops renewals.
		r.nw.Node(r.ids[1]).SetInterface(false)
	})
	if err := r.s.RunFor(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[0], sd.EvSCMRegDel) {
		t.Fatal("registration did not expire on SCM")
	}
	if !r.has(r.ids[2], sd.EvServiceDel) {
		t.Fatal("SU not notified of expiry")
	}
}

func TestRenewalKeepsRegistrationAlive(t *testing.T) {
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
	})
	if err := r.s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Renewals every 30 s (half the 60 s registration TTL) keep the
	// registration alive for the whole run.
	if r.has(r.ids[2], sd.EvServiceDel) {
		t.Fatal("service expired despite renewals")
	}
	if scm.Registry().Len() != 1 {
		t.Fatalf("registry len = %d", scm.Registry().Len())
	}
}

func TestSCMFailureTriggersReprobe(t *testing.T) {
	r := newRig(t, 4, netem.LinkParams{Delay: time.Millisecond})
	scm1, scm2, sm, su := r.agents[0], r.agents[1], r.agents[2], r.agents[3]
	r.s.Go("t", func() {
		scm1.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(8 * time.Second)
		// First SCM dies; a second one takes over.
		r.nw.Node(r.ids[0]).SetInterface(false)
		scm2.Init(sd.RoleSCM)
	})
	if err := r.s.RunFor(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if sm.SCM() != r.ids[1] {
		t.Fatalf("SM did not fail over: SCM() = %s", sm.SCM())
	}
	if !r.has(r.ids[1], sd.EvSCMRegAdd) {
		t.Fatal("re-registration on second SCM missing")
	}
	if got := r.count(r.ids[2], sd.EvSCMFound); got < 2 {
		t.Fatalf("SM scm_found count = %d, want ≥ 2 (failover)", got)
	}
}

func TestDirectedQueryReturnsExisting(t *testing.T) {
	r := newRig(t, 4, netem.LinkParams{Delay: time.Millisecond})
	scm, sm1, sm2, su := r.agents[0], r.agents[1], r.agents[2], r.agents[3]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm1.Init(sd.RoleSM)
		sm2.Init(sd.RoleSM)
		sm1.StartPublish(inst("svc-a"))
		sm2.StartPublish(inst("svc-b"))
		r.s.Sleep(5 * time.Second)
		// SU arrives late; the directed query must return both at once.
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
	})
	if err := r.s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(su.Discovered("_exp._udp")); got != 2 {
		t.Fatalf("discovered %d, want 2", got)
	}
	if got := r.count(r.ids[3], sd.EvServiceAdd); got != 2 {
		t.Fatalf("sd_service_add count = %d", got)
	}
}

func TestUpdatePropagatesViaSCM(t *testing.T) {
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(5 * time.Second)
		upd := inst("svc1")
		upd.TXT = map[string]string{"v": "2"}
		sm.UpdatePublish(upd)
		r.s.Sleep(2 * time.Second)
		got := su.Discovered("_exp._udp")
		if len(got) != 1 || got[0].TXT["v"] != "2" {
			t.Errorf("update not propagated: %+v", got)
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[0], sd.EvSCMRegUpd) {
		t.Fatal("no scm_registration_upd")
	}
}

func TestStopSearchUnsubscribes(t *testing.T) {
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		r.s.Sleep(3 * time.Second)
		su.StopSearch("_exp._udp")
		r.s.Sleep(time.Second)
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1"))
	})
	if err := r.s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.has(r.ids[2], sd.EvServiceAdd) {
		t.Fatal("SU received notification after unsubscribe")
	}
	if !r.has(r.ids[2], sd.EvStopSearch) {
		t.Fatal("no sd_stop_search")
	}
}

func TestExitDeregisters(t *testing.T) {
	r := newRig(t, 3, netem.LinkParams{Delay: time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1"))
		su.StartSearch("_exp._udp")
		r.s.Sleep(5 * time.Second)
		sm.Exit()
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[1], sd.EvExitDone) {
		t.Fatal("no sd_exit_done")
	}
	if !r.has(r.ids[0], sd.EvSCMRegDel) {
		t.Fatal("Exit did not deregister on SCM")
	}
	if scm.Registry().Len() != 0 {
		t.Fatalf("registry len = %d after SM exit", scm.Registry().Len())
	}
}

func TestColdStartPenaltyVsWarmDirected(t *testing.T) {
	// Three-party cold start pays SCM discovery; once the SCM is known,
	// a directed query answers in about one round trip. This is the
	// architecture trade-off Exp. D measures.
	r := newRig(t, 3, netem.LinkParams{Delay: 2 * time.Millisecond})
	scm, sm, su := r.agents[0], r.agents[1], r.agents[2]
	var cold, warm time.Duration
	r.s.Go("t", func() {
		scm.Init(sd.RoleSCM)
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1"))
		r.s.Sleep(2 * time.Second)

		start := r.s.Now()
		su.Init(sd.RoleSU) // includes SCM discovery
		su.StartSearch("_exp._udp")
		for su.Cache().Len() == 0 {
			r.s.Sleep(time.Millisecond)
		}
		cold = r.s.Now().Sub(start)

		su.StopSearch("_exp._udp")
		su.Cache().Flush()
		start = r.s.Now()
		su.StartSearch("_exp._udp") // SCM already known
		for su.Cache().Len() == 0 {
			r.s.Sleep(time.Millisecond)
		}
		warm = r.s.Now().Sub(start)
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("warm directed search (%v) should beat cold start (%v)", warm, cold)
	}
	if warm > 50*time.Millisecond {
		t.Fatalf("warm directed search took %v", warm)
	}
}
