package zeroconf

import (
	"testing"
	"time"

	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/sd"
)

// rig is a small two-party test fixture: n nodes in a full mesh, one agent
// per node, recorded events per node.
type rig struct {
	s      *sched.Scheduler
	nw     *netem.Network
	ids    []netem.NodeID
	agents []*Agent
	events map[netem.NodeID][]string
	params map[netem.NodeID][]map[string]string
}

func newRig(t *testing.T, n int, scheme sd.Scheme, link netem.LinkParams) *rig {
	t.Helper()
	s := sched.NewVirtual()
	nw := netem.New(s, 7)
	ids := netem.BuildFull(nw, "n", n, netem.NodeParams{}, link)
	r := &rig{s: s, nw: nw, ids: ids,
		events: map[netem.NodeID][]string{},
		params: map[netem.NodeID][]map[string]string{},
	}
	for i, id := range ids {
		id := id
		sink := func(typ string, p map[string]string) {
			r.events[id] = append(r.events[id], typ)
			r.params[id] = append(r.params[id], p)
		}
		a := New(s, nw.Node(id), scheme, sink, int64(100+i))
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

func inst(name string, typ sd.ServiceType) sd.Instance {
	return sd.Instance{Name: name, Type: typ, Address: "10.0.0.1", Port: 4711}
}

func TestActiveDiscoveryQueryResponse(t *testing.T) {
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	var tR time.Duration
	r.s.Go("sm", func() {
		if err := sm.Init(sd.RoleSM); err != nil {
			t.Error(err)
		}
		sm.StartPublish(inst("svc1", "_exp._udp"))
	})
	r.s.Go("su", func() {
		// Let the announcement burst pass so discovery must go through
		// query/response (the Fig. 11 preparation phase does the same).
		r.s.Sleep(5 * time.Second)
		if err := su.Init(sd.RoleSU); err != nil {
			t.Error(err)
		}
		start := r.s.Now()
		su.StartSearch("_exp._udp")
		for su.Cache().Len() == 0 {
			r.s.Sleep(10 * time.Millisecond)
			if r.s.Now().Sub(start) > 30*time.Second {
				t.Error("discovery did not complete within deadline")
				return
			}
		}
		tR = r.s.Now().Sub(start)
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[1], sd.EvServiceAdd) {
		t.Fatal("no sd_service_add on SU")
	}
	// Query → jittered response: t_R must be in (20ms, 200ms).
	if tR < 20*time.Millisecond || tR > 200*time.Millisecond {
		t.Fatalf("t_R = %v, want 20–200 ms for one-hop query/response", tR)
	}
	// Request/response association must record the answered query.
	ql := su.QueryLog()
	if len(ql) == 0 || !ql[0].Answered {
		t.Fatalf("query log = %+v", ql)
	}
	if rtt := ql[0].AnsweredAt.Sub(ql[0].SentAt); rtt != tR {
		t.Logf("per-packet rtt %v vs t_R %v", rtt, tR) // informational
	}
}

func TestPassiveDiscoveryViaAnnouncements(t *testing.T) {
	r := newRig(t, 2, sd.SchemePassive, netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("su", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
	})
	r.s.Go("sm", func() {
		r.s.Sleep(time.Second)
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
	})
	if err := r.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[1], sd.EvServiceAdd) {
		t.Fatal("passive SU did not learn from announcement")
	}
	// A passive searcher sends no queries.
	if len(su.QueryLog()) != 0 {
		t.Fatalf("passive agent sent %d queries", len(su.QueryLog()))
	}
}

func TestCachedInstanceDiscoveredImmediately(t *testing.T) {
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
		r.s.Sleep(time.Second) // announcement fills SU cache
		if su.Cache().Len() != 1 {
			t.Error("cache not primed by announcement")
		}
		su.StartSearch("_exp._udp")
		// Event must fire synchronously from cache.
		if !r.has(r.ids[1], sd.EvServiceAdd) {
			t.Error("cached instance not reported at StartSearch")
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestGoodbyeRemovesAndEmitsDel(t *testing.T) {
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
		r.s.Sleep(2 * time.Second)
		sm.StopPublish("svc1")
		r.s.Sleep(time.Second)
		if su.Cache().Len() != 0 {
			t.Error("goodbye did not purge SU cache")
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[1], sd.EvServiceDel) {
		t.Fatal("no sd_service_del after goodbye")
	}
	if !r.has(r.ids[0], sd.EvStopPublish) {
		t.Fatal("no sd_stop_publish on SM")
	}
}

func TestTTLExpiryEmitsDel(t *testing.T) {
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
		r.s.Sleep(time.Second)
		// SM dies without goodbye: block its interface.
		r.nw.Node(r.ids[0]).SetInterfaceDir(true, true)
	})
	if err := r.s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[1], sd.EvServiceDel) {
		t.Fatal("record did not expire after TTL")
	}
}

func TestKnownAnswerSuppression(t *testing.T) {
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		sm.Init(sd.RoleSM)
		su.Init(sd.RoleSU)
		sm.StartPublish(inst("svc1", "_exp._udp"))
		r.s.Sleep(2 * time.Second) // cache primed via announcements
		su.StartSearch("_exp._udp")
	})
	if err := r.s.RunFor(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	// All queries carried the cached record as known answer, so no
	// query should have been answered.
	for _, q := range su.QueryLog() {
		if q.Answered {
			t.Fatalf("query %d answered despite known-answer suppression", q.QID)
		}
	}
}

func TestQueryBackoffSchedule(t *testing.T) {
	// With no SM present, the searcher keeps querying with exponential
	// backoff: 0, 1s, 3s, 7s, 15s, 31s, 91s... (cumulative with cap 60).
	r := newRig(t, 1, "", netem.LinkParams{Delay: time.Millisecond})
	su := r.agents[0]
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
	})
	if err := r.s.RunFor(200 * time.Second); err != nil {
		t.Fatal(err)
	}
	ql := su.QueryLog()
	if len(ql) < 6 {
		t.Fatalf("only %d queries in 200s", len(ql))
	}
	start := ql[0].SentAt
	offsets := make([]time.Duration, len(ql))
	for i, q := range ql {
		offsets[i] = q.SentAt.Sub(start)
	}
	want := []time.Duration{0, 1 * time.Second, 3 * time.Second, 7 * time.Second,
		15 * time.Second, 31 * time.Second}
	for i, w := range want {
		if offsets[i] != w {
			t.Fatalf("query %d at %v, want %v (offsets %v)", i, offsets[i], w, offsets[:6])
		}
	}
	// Backoff capped at QueryMax: consecutive gaps never exceed 60s.
	for i := 1; i < len(offsets); i++ {
		if gap := offsets[i] - offsets[i-1]; gap > 60*time.Second {
			t.Fatalf("gap %v exceeds cap", gap)
		}
	}
}

func TestMultipleSMsAllDiscovered(t *testing.T) {
	r := newRig(t, 5, "", netem.LinkParams{Delay: time.Millisecond})
	r.s.Go("t", func() {
		for i := 0; i < 4; i++ {
			r.agents[i].Init(sd.RoleSM)
			r.agents[i].StartPublish(inst("svc"+string(rune('0'+i)), "_exp._udp"))
		}
		su := r.agents[4]
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
	})
	if err := r.s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.count(r.ids[4], sd.EvServiceAdd); got != 4 {
		t.Fatalf("discovered %d SMs, want 4", got)
	}
	if got := len(r.agents[4].Discovered("_exp._udp")); got != 4 {
		t.Fatalf("Discovered() = %d", got)
	}
}

func TestUpdatePublishPropagates(t *testing.T) {
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
		r.s.Sleep(2 * time.Second)
		upd := inst("svc1", "_exp._udp")
		upd.TXT = map[string]string{"version": "2"}
		sm.UpdatePublish(upd)
		r.s.Sleep(time.Second)
		got := su.Discovered("_exp._udp")
		if len(got) != 1 || got[0].TXT["version"] != "2" {
			t.Errorf("updated description not propagated: %+v", got)
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// sd_service_upd on the SM (before update, §V) and on the SU (cache
	// change).
	if !r.has(r.ids[0], sd.EvServiceUpd) {
		t.Fatal("no sd_service_upd on SM")
	}
	if !r.has(r.ids[1], sd.EvServiceUpd) {
		t.Fatal("no sd_service_upd on SU")
	}
}

func TestExitSendsGoodbyesAndStopsTimers(t *testing.T) {
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	var exitAt time.Time
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
		r.s.Sleep(2 * time.Second)
		sm.Exit()
		su.Exit()
		exitAt = r.s.Now()
	})
	if err := r.s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[0], sd.EvExitDone) || !r.has(r.ids[1], sd.EvExitDone) {
		t.Fatal("missing sd_exit_done")
	}
	// After Exit no further queries may be sent (timers are
	// epoch-guarded).
	for _, q := range su.QueryLog() {
		if q.SentAt.After(exitAt) {
			t.Fatalf("query sent after Exit at %v", q.SentAt)
		}
	}
}

func TestSCMRoleRejected(t *testing.T) {
	r := newRig(t, 1, "", netem.LinkParams{Delay: time.Millisecond})
	r.s.Go("t", func() {
		if err := r.agents[0].Init(sd.RoleSCM); err == nil {
			t.Error("zeroconf accepted SCM role")
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryUnderLoss(t *testing.T) {
	// With 30% loss, retransmissions (query backoff + announce burst)
	// must still discover, only later.
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond, Loss: 0.3})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
		r.s.Sleep(5 * time.Second)
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
	})
	if err := r.s.RunFor(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.has(r.ids[1], sd.EvServiceAdd) {
		t.Fatal("discovery failed under 30% loss within 3 minutes")
	}
}

func TestCorruptedPacketIgnored(t *testing.T) {
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		// Corrupt everything the SM sends.
		r.nw.Node(r.ids[0]).InstallRule(netem.Rule{
			Dir: netem.DirTx, Proto: Proto,
			Modify: func(p *netem.Packet) { p.Payload = []byte("garbage") },
		})
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
	})
	if err := r.s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.has(r.ids[1], sd.EvServiceAdd) {
		t.Fatal("corrupted records should not be parsed")
	}
}

func TestDeterministicDiscoveryTimes(t *testing.T) {
	run := func() time.Duration {
		r := newRig(t, 3, "", netem.LinkParams{Delay: time.Millisecond, Jitter: time.Millisecond, Loss: 0.05})
		var tR time.Duration
		r.s.Go("t", func() {
			r.agents[0].Init(sd.RoleSM)
			r.agents[0].StartPublish(inst("svc1", "_exp._udp"))
			r.s.Sleep(5 * time.Second)
			su := r.agents[2]
			su.Init(sd.RoleSU)
			start := r.s.Now()
			su.StartSearch("_exp._udp")
			for su.Cache().Len() == 0 {
				r.s.Sleep(time.Millisecond)
			}
			tR = r.s.Now().Sub(start)
		})
		if err := r.s.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
		return tR
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("discovery time differs across identical runs: %v vs %v", a, b)
	}
}

func TestAnnounceBurstCarriesUpdatedDescription(t *testing.T) {
	// An UpdatePublish landing between the ticks of the announce burst
	// must not be shadowed: the remaining burst announcements carry the
	// new description.
	r := newRig(t, 2, "", netem.LinkParams{Delay: time.Millisecond})
	sm, su := r.agents[0], r.agents[1]
	r.s.Go("t", func() {
		su.Init(sd.RoleSU)
		su.StartSearch("_exp._udp")
		sm.Init(sd.RoleSM)
		sm.StartPublish(inst("svc1", "_exp._udp"))
		r.s.Sleep(500 * time.Millisecond) // between burst ticks (0s,1s,2s)
		upd := inst("svc1", "_exp._udp")
		upd.TXT = map[string]string{"gen": "2"}
		sm.UpdatePublish(upd)
		r.s.Sleep(5 * time.Second)
		got := su.Discovered("_exp._udp")
		if len(got) != 1 || got[0].TXT["gen"] != "2" {
			t.Errorf("stale burst announcement won: %+v", got)
		}
	})
	if err := r.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
}
