package fault

import (
	"testing"
	"time"

	"excovery/internal/netem"
	"excovery/internal/sched"
)

func twoNodes(t *testing.T) (*sched.Scheduler, *netem.Network, *netem.Node, *netem.Node) {
	t.Helper()
	s := sched.NewVirtual()
	nw := netem.New(s, 5)
	a := nw.AddNode("a", netem.NodeParams{})
	b := nw.AddNode("b", netem.NodeParams{})
	nw.AddLink("a", "b", netem.LinkParams{Delay: time.Millisecond})
	return s, nw, a, b
}

func TestMessageLossFullDrop(t *testing.T) {
	s, _, a, b := twoNodes(t)
	recv := 0
	b.SetHandler(func(p *netem.Packet) { recv++ })
	s.Go("t", func() {
		inj, err := NewMessageLoss(a, 1.0, DirTx, "sd", 1)
		if err != nil {
			t.Fatal(err)
		}
		inj.Start()
		if !inj.Active() {
			t.Error("not active after Start")
		}
		a.Send(netem.Unicast("b"), "sd", nil)
		a.Send(netem.Unicast("b"), "traffic", nil) // other proto unaffected
		s.Sleep(50 * time.Millisecond)
		inj.Stop()
		inj.Stop() // idempotent
		a.Send(netem.Unicast("b"), "sd", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != 2 {
		t.Fatalf("recv = %d, want 2 (traffic + post-stop sd)", recv)
	}
}

func TestMessageLossProbabilistic(t *testing.T) {
	s, _, a, b := twoNodes(t)
	recv := 0
	b.SetHandler(func(p *netem.Packet) { recv++ })
	s.Go("t", func() {
		inj, _ := NewMessageLoss(a, 0.5, DirBoth, "sd", 1)
		inj.Start()
		for i := 0; i < 400; i++ {
			a.Send(netem.Unicast("b"), "sd", nil)
			s.Sleep(time.Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recv < 120 || recv > 280 {
		t.Fatalf("recv = %d of 400 at 50%% loss", recv)
	}
}

func TestMessageLossValidation(t *testing.T) {
	_, _, a, _ := twoNodes(t)
	if _, err := NewMessageLoss(a, 1.5, DirTx, "sd", 1); err == nil {
		t.Fatal("accepted probability > 1")
	}
	if _, err := NewMessageLoss(a, 0.5, "sideways", "sd", 1); err == nil {
		t.Fatal("accepted bad direction")
	}
	if _, err := NewMessageDelay(a, -time.Second, DirTx, "sd", 1); err == nil {
		t.Fatal("accepted negative delay")
	}
}

func TestMessageDelayAddsLatency(t *testing.T) {
	s, _, a, b := twoNodes(t)
	var recvAt time.Time
	b.SetHandler(func(p *netem.Packet) { recvAt = s.Now() })
	s.Go("t", func() {
		inj, _ := NewMessageDelay(a, 100*time.Millisecond, DirTx, "sd", 1)
		inj.Start()
		start := s.Now()
		a.Send(netem.Unicast("b"), "sd", nil)
		s.Sleep(time.Second)
		if lat := recvAt.Sub(start); lat < 100*time.Millisecond || lat > 110*time.Millisecond {
			t.Errorf("latency = %v, want ≈101ms", lat)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPathLossOnlyAffectsPeer(t *testing.T) {
	s := sched.NewVirtual()
	nw := netem.New(s, 5)
	ids := netem.BuildFull(nw, "n", 3, netem.NodeParams{}, netem.LinkParams{Delay: time.Millisecond})
	recv := map[netem.NodeID]int{}
	for _, id := range ids {
		id := id
		nw.Node(id).SetHandler(func(p *netem.Packet) { recv[id]++ })
	}
	s.Go("t", func() {
		inj, _ := NewPathLoss(nw.Node(ids[0]), ids[1], 1.0, DirBoth, "sd", 1)
		inj.Start()
		nw.Node(ids[0]).Send(netem.Unicast(ids[1]), "sd", nil)
		nw.Node(ids[0]).Send(netem.Unicast(ids[2]), "sd", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recv[ids[1]] != 0 || recv[ids[2]] != 1 {
		t.Fatalf("recv = %v", recv)
	}
}

func TestPathDelaySelective(t *testing.T) {
	s := sched.NewVirtual()
	nw := netem.New(s, 5)
	ids := netem.BuildFull(nw, "n", 3, netem.NodeParams{}, netem.LinkParams{Delay: time.Millisecond})
	at := map[netem.NodeID]time.Time{}
	for _, id := range ids {
		id := id
		nw.Node(id).SetHandler(func(p *netem.Packet) { at[id] = s.Now() })
	}
	s.Go("t", func() {
		inj, _ := NewPathDelay(nw.Node(ids[0]), ids[1], 200*time.Millisecond, DirTx, "sd", 1)
		inj.Start()
		nw.Node(ids[0]).Send(netem.Unicast(ids[1]), "sd", nil)
		nw.Node(ids[0]).Send(netem.Unicast(ids[2]), "sd", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at[ids[1]].Sub(at[ids[2]]) < 150*time.Millisecond {
		t.Fatalf("path delay not selective: %v vs %v", at[ids[1]], at[ids[2]])
	}
}

func TestInterfaceFaultDirections(t *testing.T) {
	for _, dir := range []Direction{DirRx, DirTx, DirBoth} {
		s, _, a, b := twoNodes(t)
		na, nb := 0, 0
		a.SetHandler(func(p *netem.Packet) { na++ })
		b.SetHandler(func(p *netem.Packet) { nb++ })
		dir := dir
		s.Go("t", func() {
			inj, err := NewInterfaceFault(a, dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			inj.Start()
			a.Send(netem.Unicast("b"), "sd", nil) // tx from faulted node
			b.Send(netem.Unicast("a"), "sd", nil) // rx at faulted node
			s.Sleep(100 * time.Millisecond)
			inj.Stop()
			a.Send(netem.Unicast("b"), "sd", nil)
			b.Send(netem.Unicast("a"), "sd", nil)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		switch dir {
		case DirRx:
			if na != 1 || nb != 2 {
				t.Errorf("%s: na=%d nb=%d, want 1/2", dir, na, nb)
			}
		case DirTx:
			if na != 2 || nb != 1 {
				t.Errorf("%s: na=%d nb=%d, want 2/1", dir, na, nb)
			}
		case DirBoth:
			if na != 1 || nb != 1 {
				t.Errorf("%s: na=%d nb=%d, want 1/1", dir, na, nb)
			}
		}
	}
}

func TestDirRandomResolvesDeterministically(t *testing.T) {
	_, _, a, _ := twoNodes(t)
	i1, err := NewInterfaceFault(a, DirRandom, 42)
	if err != nil {
		t.Fatal(err)
	}
	i2, _ := NewInterfaceFault(a, DirRandom, 42)
	// Same seed, same resolution: both must behave identically. Compare
	// via the concrete struct.
	f1 := i1.(*ifaceFault)
	f2 := i2.(*ifaceFault)
	if f1.dir != f2.dir {
		t.Fatalf("same seed resolved differently: %v vs %v", f1.dir, f2.dir)
	}
}

func TestApplyTimingBlock(t *testing.T) {
	s, _, a, b := twoNodes(t)
	recv := 0
	b.SetHandler(func(p *netem.Packet) { recv++ })
	var events []string
	s.Go("t", func() {
		inj, _ := NewMessageLoss(a, 1.0, DirTx, "sd", 1)
		applied := Apply(s, inj, Timing{Duration: 10 * time.Second, Rate: 0.5, Seed: 3},
			func(what string) { events = append(events, what) })
		// The active block covers 5s somewhere within [0,10s].
		if applied.StopAt.Sub(applied.StartAt) != 5*time.Second {
			t.Errorf("block length = %v", applied.StopAt.Sub(applied.StartAt))
		}
		if applied.StartAt.Before(s.Now()) || applied.StopAt.After(s.Now().Add(10*time.Second)) {
			t.Errorf("block [%v,%v] outside window", applied.StartAt, applied.StopAt)
		}
		// Probe every 100ms; sends during the block are dropped.
		for i := 0; i < 100; i++ {
			a.Send(netem.Unicast("b"), "sd", nil)
			s.Sleep(100 * time.Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 100 probes over 10s, 50 fall into the 5s block (±2 boundary).
	if recv < 47 || recv > 53 {
		t.Fatalf("recv = %d, want ≈50", recv)
	}
	if len(events) != 2 || events[0] != "start" || events[1] != "stop" {
		t.Fatalf("events = %v", events)
	}
}

func TestApplyWithoutTimingStartsImmediately(t *testing.T) {
	s, _, a, _ := twoNodes(t)
	s.Go("t", func() {
		inj, _ := NewMessageLoss(a, 1.0, DirTx, "sd", 1)
		applied := Apply(s, inj, Timing{}, nil)
		s.Sleep(time.Millisecond)
		if !inj.Active() {
			t.Error("fault not active after untimed Apply")
		}
		s.Sleep(time.Hour)
		if !inj.Active() {
			t.Error("untimed fault stopped by itself")
		}
		applied.Cancel(inj)
		if inj.Active() {
			t.Error("Cancel did not stop the fault")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// trafficNet is a full mesh of n nodes that swallow what they receive.
func trafficNet(n int) (*sched.Scheduler, *netem.Network, []netem.NodeID) {
	s := sched.NewVirtual()
	nw := netem.New(s, 5)
	ids := netem.BuildFull(nw, "e", n, netem.NodeParams{}, netem.LinkParams{Delay: time.Millisecond})
	for _, id := range ids {
		nw.Node(id).SetHandler(func(p *netem.Packet) {})
	}
	return s, nw, ids
}

func TestTrafficGeneratorLoad(t *testing.T) {
	s, nw, ids := trafficNet(4)
	var tr *Traffic
	s.Go("t", func() {
		var err error
		tr, err = StartTraffic(s, nw, ids, TrafficConfig{
			Pairs: 2, BwKbps: 100, Seed: 7, PacketSize: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Sleep(10 * time.Second)
		tr.Stop()
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// 2 pairs × 2 directions, one 4000-bit packet every 80 ms per
	// direction: sends at 0, 80, …, 9920 ms are 125 per flow. The send
	// slot at 10 s comes after the driver's wake-up and finds the
	// generator stopped.
	if tr.Sent() != 500 {
		t.Fatalf("sent %d packets, want 500", tr.Sent())
	}
	// The generator is event chains, not tasks: the only task switches of
	// the window are the driver's own (its start and its one wake-up).
	if got := s.Switches(); got != 2 {
		t.Fatalf("%d task switches, want 2: the generator must not switch per packet", got)
	}
}

// TestTrafficSendInstants: every flow sends at t0 + k·interval exactly.
func TestTrafficSendInstants(t *testing.T) {
	s, nw, ids := trafficNet(2)
	const interval = 80 * time.Millisecond // 500 B at 50 kbit/s per direction
	var t0 time.Time
	next := map[netem.NodeID]time.Duration{}
	for _, id := range ids {
		nw.Node(id).SetHandler(func(p *netem.Packet) {
			if got := p.SentAt.Sub(t0); got != next[p.Src] {
				t.Errorf("flow from %s sent at t0+%v, want t0+%v", p.Src, got, next[p.Src])
			}
			next[p.Src] += interval
		})
	}
	s.Go("t", func() {
		t0 = s.Now()
		tr, err := StartTraffic(s, nw, ids, TrafficConfig{Pairs: 1, BwKbps: 100, Seed: 1, PacketSize: 500})
		if err != nil {
			t.Fatal(err)
		}
		s.Sleep(2 * time.Second)
		tr.Stop()
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if next[id] != 2*time.Second {
			t.Errorf("flow from %s: next send due at t0+%v, want 25 sends up to t0+1.92s", id, next[id])
		}
	}
}

// TestTrafficRestartAtSameInstant: a generator stopped and replaced at one
// virtual instant sends nothing more, not even from the first-send events
// it had already posted; the replacement counts from zero.
func TestTrafficRestartAtSameInstant(t *testing.T) {
	s, nw, ids := trafficNet(2)
	cfg := TrafficConfig{Pairs: 1, BwKbps: 100, Seed: 1, PacketSize: 500}
	var first, second, third *Traffic
	s.Go("t", func() {
		first, _ = StartTraffic(s, nw, ids, cfg)
		first.Stop() // before its posted first sends ran
		second, _ = StartTraffic(s, nw, ids, cfg)
		s.Sleep(time.Second)
		atStop := second.Sent()
		second.Stop()
		third, _ = StartTraffic(s, nw, ids, cfg)
		if third.Sent() != 0 {
			t.Errorf("replacement starts at %d sent packets, want 0", third.Sent())
		}
		s.Sleep(time.Second)
		third.Stop()
		if second.Sent() != atStop {
			t.Errorf("stopped generator went on sending: %d → %d", atStop, second.Sent())
		}
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Sends at 0, 80, …, 960 ms: 13 per direction and second-long window.
	if first.Sent() != 0 || second.Sent() != 26 || third.Sent() != 26 {
		t.Fatalf("sent %d / %d / %d packets, want 0 / 26 / 26", first.Sent(), second.Sent(), third.Sent())
	}
}

// TestTrafficStartedFromEvent: StartTraffic needs no task context.
func TestTrafficStartedFromEvent(t *testing.T) {
	s, nw, ids := trafficNet(2)
	var tr *Traffic
	s.ScheduleEvent(time.Second, func(time.Time, any) {
		var err error
		tr, err = StartTraffic(s, nw, ids, TrafficConfig{Pairs: 1, BwKbps: 100, Seed: 1, PacketSize: 500})
		if err != nil {
			t.Error(err)
			return
		}
		s.ScheduleEvent(time.Second, func(time.Time, any) { tr.Stop() }, nil)
	}, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The stop event was armed before any flow's timer, so it precedes the
	// send slot at 1 s: 13 sends per direction, as above.
	if tr == nil || tr.Sent() != 26 {
		t.Fatalf("traffic %+v, want 26 packets sent", tr)
	}
	if s.Switches() != 0 {
		t.Fatalf("%d task switches without a task", s.Switches())
	}
}

func TestTrafficStopsCleanly(t *testing.T) {
	s := sched.NewVirtual()
	nw := netem.New(s, 5)
	ids := netem.BuildFull(nw, "e", 2, netem.NodeParams{}, netem.LinkParams{Delay: time.Millisecond})
	for _, id := range ids {
		nw.Node(id).SetHandler(func(p *netem.Packet) {})
	}
	var sentAtStop uint64
	var tr *Traffic
	s.Go("t", func() {
		tr, _ = StartTraffic(s, nw, ids, TrafficConfig{Pairs: 1, BwKbps: 50, Seed: 1})
		s.Sleep(time.Second)
		tr.Stop()
		sentAtStop = tr.Sent()
		s.Sleep(10 * time.Second)
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// At most one more packet per direction can slip out after Stop.
	if tr.Sent() > sentAtStop+2 {
		t.Fatalf("traffic continued after Stop: %d → %d", sentAtStop, tr.Sent())
	}
}

func TestTrafficPairSelectionDeterministicAndSwitching(t *testing.T) {
	candidates := []netem.NodeID{"a", "b", "c", "d", "e"}
	base := TrafficConfig{Pairs: 3, BwKbps: 10, Seed: 11, SwitchAmount: 1, SwitchSeed: 22}
	p0a, err := pickPairs(candidates, base)
	if err != nil {
		t.Fatal(err)
	}
	p0b, _ := pickPairs(candidates, base)
	if fmtPairs(p0a) != fmtPairs(p0b) {
		t.Fatal("same config produced different pairs")
	}
	run1 := base
	run1.Run = 1
	p1, _ := pickPairs(candidates, run1)
	if fmtPairs(p0a) == fmtPairs(p1) {
		t.Fatal("switching did not change pairs between runs")
	}
	// Exactly one pair differs after one switch of amount 1 (the switch
	// may coincidentally redraw the same pair, so allow ≤ 1).
	diff := 0
	for i := range p0a {
		if p0a[i] != p1[i] {
			diff++
		}
	}
	if diff > 1 {
		t.Fatalf("%d pairs changed, want ≤ 1", diff)
	}
}

func fmtPairs(ps [][2]netem.NodeID) string {
	out := ""
	for _, p := range ps {
		out += string(p[0]) + "-" + string(p[1]) + ";"
	}
	return out
}

func TestTrafficValidation(t *testing.T) {
	s := sched.NewVirtual()
	nw := netem.New(s, 5)
	netem.BuildFull(nw, "e", 2, netem.NodeParams{}, netem.LinkParams{})
	if _, err := StartTraffic(s, nw, nw.Nodes(), TrafficConfig{Pairs: 0, BwKbps: 10}); err == nil {
		t.Fatal("accepted zero pairs")
	}
	if _, err := StartTraffic(s, nw, nw.Nodes(), TrafficConfig{Pairs: 1, BwKbps: 0}); err == nil {
		t.Fatal("accepted zero bandwidth")
	}
	if _, err := StartTraffic(s, nw, nw.Nodes()[:1], TrafficConfig{Pairs: 1, BwKbps: 10}); err == nil {
		t.Fatal("accepted single candidate")
	}
}

func TestDropAll(t *testing.T) {
	s, nw, a, b := twoNodes(t)
	recv := 0
	b.SetHandler(func(p *netem.Packet) { recv++ })
	s.Go("t", func() {
		d := NewDropAll(nw, "sd")
		d.Start()
		if !d.Active() {
			t.Error("not active")
		}
		d.Start() // idempotent
		a.Send(netem.Unicast("b"), "sd", nil)
		s.Sleep(50 * time.Millisecond)
		d.Stop()
		if d.Active() {
			t.Error("still active after Stop")
		}
		a.Send(netem.Unicast("b"), "sd", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != 1 {
		t.Fatalf("recv = %d, want 1", recv)
	}
	if a.RuleCount() != 0 || b.RuleCount() != 0 {
		t.Fatal("rules leaked after Stop")
	}
}
