package netem

import (
	"fmt"
	"testing"
	"time"

	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/vclock"
)

// lossless returns link params with no loss and no jitter for exact-timing
// tests.
func lossless(delay time.Duration) LinkParams {
	return LinkParams{Delay: delay}
}

// keep deep-copies a delivered packet: handlers must not retain the pooled
// packet itself (see Handler).
func keep(p *Packet) *Packet {
	q := *p
	q.Path = append([]NodeID(nil), p.Path...)
	return &q
}

func TestUnicastOneHop(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(2*time.Millisecond))
	var got *Packet
	var at time.Time
	b.SetHandler(func(p *Packet) { got = keep(p); at = s.Now() })
	start := s.Now()
	s.Go("send", func() {
		if _, ok := a.Send(Unicast("b"), "test", []byte("hello")); !ok {
			t.Error("Send failed")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if string(got.Payload) != "hello" || got.Src != "a" {
		t.Fatalf("packet = %+v", got)
	}
	// Latency = serialization + link delay. 53 bytes wire at 6 Mbit/s
	// ≈ 70.6 µs, plus 2 ms.
	lat := at.Sub(start)
	if lat < 2*time.Millisecond || lat > 3*time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
	if fmt.Sprint(got.Path) != "[a b]" {
		t.Fatalf("path = %v", got.Path)
	}
}

func TestUnicastMultiHopRoutingAndPath(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	ids := BuildChain(nw, "n", 5, NodeParams{}, lossless(time.Millisecond))
	var got *Packet
	nw.Node(ids[4]).SetHandler(func(p *Packet) { got = keep(p) })
	s.Go("send", func() { nw.Node(ids[0]).Send(Unicast(ids[4]), "t", []byte("x")) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("not delivered over 4 hops")
	}
	if fmt.Sprint(got.Path) != "[n0 n1 n2 n3 n4]" {
		t.Fatalf("path = %v", got.Path)
	}
	if nw.HopCount(ids[0], ids[4]) != 4 {
		t.Fatalf("hop count = %d", nw.HopCount(ids[0], ids[4]))
	}
}

func TestLoopbackUnicast(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	delivered := false
	a.SetHandler(func(p *Packet) { delivered = true })
	s.Go("send", func() { a.Send(Unicast("a"), "t", nil) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("loopback packet not delivered")
	}
}

func TestMulticastFloodReachesGroupOnly(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	ids := BuildChain(nw, "n", 4, NodeParams{}, lossless(time.Millisecond))
	recv := map[NodeID]int{}
	for _, id := range ids {
		id := id
		nw.Node(id).SetHandler(func(p *Packet) { recv[id]++ })
	}
	nw.Join("svc", ids[1])
	nw.Join("svc", ids[3])
	s.Go("send", func() { nw.Node(ids[0]).Send(Multicast("svc"), "t", []byte("q")) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recv[ids[1]] != 1 || recv[ids[3]] != 1 {
		t.Fatalf("group members recv = %v", recv)
	}
	if recv[ids[0]] != 0 || recv[ids[2]] != 0 {
		t.Fatalf("non-members received: %v", recv)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	ids := BuildGrid(nw, "g", 3, 3, NodeParams{}, lossless(time.Millisecond))
	recv := map[NodeID]int{}
	for _, id := range ids {
		id := id
		nw.Node(id).SetHandler(func(p *Packet) { recv[id]++ })
	}
	s.Go("send", func() { nw.Node(ids[0]).Send(Broadcast(), "t", nil) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// All nodes except the sender receive exactly once (dedup).
	for _, id := range ids[1:] {
		if recv[id] != 1 {
			t.Fatalf("recv[%s] = %d, want 1 (dedup)", id, recv[id])
		}
	}
	if recv[ids[0]] != 0 {
		t.Fatalf("sender received own broadcast")
	}
	if nw.Stats().Duplicates == 0 {
		t.Fatal("grid flood should suppress duplicates")
	}
}

func TestFloodTTLLimitsReach(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	nw.DefaultTTL = 2
	ids := BuildChain(nw, "n", 5, NodeParams{}, lossless(time.Millisecond))
	recv := map[NodeID]bool{}
	for _, id := range ids {
		id := id
		nw.Node(id).SetHandler(func(p *Packet) { recv[id] = true })
	}
	s.Go("send", func() { nw.Node(ids[0]).Send(Broadcast(), "t", nil) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !recv[ids[1]] || !recv[ids[2]] {
		t.Fatalf("nodes within TTL not reached: %v", recv)
	}
	if recv[ids[3]] || recv[ids[4]] {
		t.Fatalf("TTL 2 should not reach hop 3+: %v", recv)
	}
}

func TestLinkLossDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		s := sched.NewVirtual()
		nw := New(s, seed)
		a := nw.AddNode("a", NodeParams{})
		b := nw.AddNode("b", NodeParams{})
		nw.AddLink("a", "b", LinkParams{Delay: time.Millisecond, Loss: 0.5})
		delivered := uint64(0)
		b.SetHandler(func(p *Packet) { delivered++ })
		s.Go("send", func() {
			for i := 0; i < 200; i++ {
				a.Send(Unicast("b"), "t", nil)
				s.Sleep(time.Millisecond)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return delivered
	}
	d1, d2, d3 := run(42), run(42), run(7)
	if d1 != d2 {
		t.Fatalf("same seed, different outcomes: %d vs %d", d1, d2)
	}
	if d1 == d3 {
		t.Log("different seeds produced equal outcomes (possible but unlikely)")
	}
	// With 50 % loss, around 100 of 200 should arrive.
	if d1 < 60 || d1 > 140 {
		t.Fatalf("delivered %d of 200 at 50%% loss", d1)
	}
}

func TestRuleDropAll(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	n := 0
	b.SetHandler(func(p *Packet) { n++ })
	s.Go("t", func() {
		r := a.InstallRule(Rule{Dir: DirTx, DropAll: true})
		a.Send(Unicast("b"), "t", nil)
		s.Sleep(10 * time.Millisecond)
		a.RemoveRule(r)
		a.Send(Unicast("b"), "t", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered %d, want 1 (rule removed before second send)", n)
	}
}

func TestRuleProtoFilter(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	var got []string
	b.SetHandler(func(p *Packet) { got = append(got, p.Proto) })
	s.Go("t", func() {
		// Drop only experiment-process ("sd") packets (§IV-D1).
		a.InstallRule(Rule{Dir: DirTx, Proto: "sd", DropAll: true})
		a.Send(Unicast("b"), "sd", nil)
		a.Send(Unicast("b"), "traffic", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[traffic]" {
		t.Fatalf("delivered protos = %v", got)
	}
}

func TestRulePeerFilterPathLoss(t *testing.T) {
	// Path loss: affect only traffic between the target and one peer.
	s := sched.NewVirtual()
	nw := New(s, 1)
	ids := BuildFull(nw, "n", 3, NodeParams{}, lossless(time.Millisecond))
	recv := map[NodeID]int{}
	for _, id := range ids {
		id := id
		nw.Node(id).SetHandler(func(p *Packet) { recv[id]++ })
	}
	s.Go("t", func() {
		nw.Node(ids[0]).InstallRule(Rule{Dir: DirTx, Peer: ids[1], DropAll: true})
		nw.Node(ids[0]).Send(Unicast(ids[1]), "t", nil)
		nw.Node(ids[0]).Send(Unicast(ids[2]), "t", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recv[ids[1]] != 0 || recv[ids[2]] != 1 {
		t.Fatalf("recv = %v, want path to n1 blocked only", recv)
	}
}

func TestRuleRxDirection(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	n := 0
	b.SetHandler(func(p *Packet) { n++ })
	s.Go("t", func() {
		b.InstallRule(Rule{Dir: DirRx, Peer: "a", DropAll: true})
		a.Send(Unicast("b"), "t", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("rx rule did not drop")
	}
}

func TestRuleDelayAddsLatency(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	var base, delayed time.Duration
	var at time.Time
	b.SetHandler(func(p *Packet) { at = s.Now() })
	s.Go("t", func() {
		start := s.Now()
		a.Send(Unicast("b"), "t", nil)
		s.Sleep(100 * time.Millisecond)
		base = at.Sub(start)
		r := a.InstallRule(Rule{Dir: DirTx, Delay: 50 * time.Millisecond})
		start2 := s.Now()
		a.Send(Unicast("b"), "t", nil)
		s.Sleep(200 * time.Millisecond)
		delayed = at.Sub(start2)
		a.RemoveRule(r)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if diff := delayed - base; diff != 50*time.Millisecond {
		t.Fatalf("delay rule added %v, want 50ms", diff)
	}
}

func TestRuleModifyPayload(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	var got string
	b.SetHandler(func(p *Packet) { got = string(p.Payload) })
	s.Go("t", func() {
		a.InstallRule(Rule{Dir: DirTx, Modify: func(p *Packet) { p.Payload = []byte("corrupted") }})
		a.Send(Unicast("b"), "t", []byte("original"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "corrupted" {
		t.Fatalf("payload = %q", got)
	}
}

func TestInterfaceDownExcludesFromRouting(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	ids := BuildChain(nw, "n", 3, NodeParams{}, lossless(time.Millisecond))
	// Add an alternative longer path n0-x-y-n2.
	x := nw.AddNode("x", NodeParams{})
	y := nw.AddNode("y", NodeParams{})
	_ = x
	_ = y
	nw.AddLink(ids[0], "x", lossless(time.Millisecond))
	nw.AddLink("x", "y", lossless(time.Millisecond))
	nw.AddLink("y", ids[2], lossless(time.Millisecond))
	if nw.HopCount(ids[0], ids[2]) != 2 {
		t.Fatalf("initial hop count = %d", nw.HopCount(ids[0], ids[2]))
	}
	var got *Packet
	nw.Node(ids[2]).SetHandler(func(p *Packet) { got = keep(p) })
	s.Go("t", func() {
		nw.Node(ids[1]).SetInterface(false) // midpoint dies
		if hc := nw.HopCount(ids[0], ids[2]); hc != 3 {
			t.Errorf("hop count after failure = %d, want 3 (reroute)", hc)
		}
		nw.Node(ids[0]).Send(Unicast(ids[2]), "t", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not rerouted around dead node")
	}
	if fmt.Sprint(got.Path) != fmt.Sprintf("[%s x y %s]", ids[0], ids[2]) {
		t.Fatalf("path = %v", got.Path)
	}
}

func TestInterfaceDirBlocksOneDirection(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	na, nb := 0, 0
	a.SetHandler(func(p *Packet) { na++ })
	b.SetHandler(func(p *Packet) { nb++ })
	s.Go("t", func() {
		b.SetInterfaceDir(true, false) // b cannot receive, can send
		a.Send(Unicast("b"), "t", nil)
		b.Send(Unicast("a"), "t", nil)
		s.Sleep(50 * time.Millisecond)
		b.SetInterfaceDir(false, false)
		a.Send(Unicast("b"), "t", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if na != 1 || nb != 1 {
		t.Fatalf("na=%d nb=%d, want 1/1", na, nb)
	}
}

func TestQueueTailDrop(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{RateBps: 1000, QueueLen: 4}) // very slow
	nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	sentOK := 0
	s.Go("t", func() {
		for i := 0; i < 20; i++ {
			if _, ok := a.Send(Unicast("b"), "t", make([]byte, 100)); ok {
				sentOK++
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sentOK >= 20 {
		t.Fatal("expected tail drops on full queue")
	}
	if nw.Stats().Dropped[DropQueue] == 0 {
		t.Fatal("DropQueue counter not incremented")
	}
}

func TestSerializationDelayScalesWithLoad(t *testing.T) {
	// Two senders share a relay; the relay's radio serializes, so delivery
	// of a burst takes longer than a single packet. This is the mechanism
	// that makes background traffic inflate t_R in the case study.
	lat := func(burst int) time.Duration {
		s := sched.NewVirtual()
		nw := New(s, 1)
		ids := BuildChain(nw, "n", 3, NodeParams{RateBps: 100_000}, lossless(time.Millisecond))
		var last time.Time
		nw.Node(ids[2]).SetHandler(func(p *Packet) { last = s.Now() })
		start := s.Now()
		s.Go("t", func() {
			for i := 0; i < burst; i++ {
				nw.Node(ids[0]).Send(Unicast(ids[2]), "t", make([]byte, 500))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return last.Sub(start)
	}
	if l1, l10 := lat(1), lat(10); l10 < 2*l1 {
		t.Fatalf("burst of 10 (%v) should be much slower than 1 (%v)", l10, l1)
	}
}

func TestPacketTagger(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	var tags []uint16
	b.SetHandler(func(p *Packet) { tags = append(tags, p.Tag) })
	s.Go("t", func() {
		a.SetTagging(true)
		for i := 0; i < 3; i++ {
			a.Send(Unicast("b"), "t", nil)
			s.Sleep(time.Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tags) != "[1 2 3]" {
		t.Fatalf("tags = %v", tags)
	}
}

func TestCapturesUseLocalClock(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	skew := 250 * time.Millisecond
	b := nw.AddNode("b", NodeParams{Clock: vclock.NewSkewed(s, skew, 0)})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	a.SetCapture(true)
	b.SetCapture(true)
	s.Go("t", func() { a.Send(Unicast("b"), "t", []byte("x")) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.Captures()) != 1 || len(b.Captures()) != 1 {
		t.Fatalf("captures: a=%d b=%d", len(a.Captures()), len(b.Captures()))
	}
	txc, rxc := a.Captures()[0], b.Captures()[0]
	if txc.Dir != CaptureTx || rxc.Dir != CaptureRx {
		t.Fatalf("directions: %v %v", txc.Dir, rxc.Dir)
	}
	// The rx capture carries b's skewed local time: it should appear
	// ~skew later than the true arrival (which is ~1ms after tx).
	gap := rxc.Time.Sub(txc.Time)
	if gap < skew || gap > skew+10*time.Millisecond {
		t.Fatalf("capture gap = %v, want ≈ %v (skewed clock)", gap, skew)
	}
	if txc.ID != rxc.ID {
		t.Fatal("capture IDs differ")
	}
}

func TestStatsCounters(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	b.SetHandler(func(p *Packet) {})
	b.SetCapture(true)
	var ids [3]uint64
	s.Go("t", func() {
		ids[0], _ = a.Send(Unicast("b"), "t", nil)
		ids[1], _ = a.Send(Unicast("c"), "t", nil) // no route
		ids[2], _ = b.Send(Unicast("a"), "t", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Sent != 3 || st.Delivered != 2 || st.Dropped[DropNoRoute] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Packet IDs count the network's sends, refused ones included, whichever
	// node sends; a capture carries the ID Send returned.
	if ids != [3]uint64{1, 2, 3} {
		t.Fatalf("packet IDs = %v, want [1 2 3]", ids)
	}
	caps := b.Captures()
	if len(caps) != 2 {
		t.Fatalf("captures on b = %d, want 2 (tx of 3, rx of 1)", len(caps))
	}
	want := map[CaptureDir]uint64{CaptureRx: 1, CaptureTx: 3}
	for _, c := range caps {
		if c.ID != want[c.Dir] {
			t.Fatalf("%s capture on b has ID %d, want %d", c.Dir, c.ID, want[c.Dir])
		}
	}
}

func TestGridHopCounts(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	ids := BuildGrid(nw, "g", 4, 4, NodeParams{}, lossless(time.Millisecond))
	// Corner to corner: Manhattan distance 6.
	if hc := nw.HopCount(ids[0], ids[15]); hc != 6 {
		t.Fatalf("corner-corner hops = %d, want 6", hc)
	}
	m := nw.HopMatrix()
	if m[ids[0]][ids[0]] != 0 || m[ids[0]][ids[1]] != 1 {
		t.Fatalf("hop matrix wrong: %v", m[ids[0]])
	}
}

func TestResetRunStateClearsDedupAndQueue(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	ids := BuildFull(nw, "n", 2, NodeParams{RateBps: 1000}, lossless(time.Millisecond))
	a := nw.Node(ids[0])
	s.Go("t", func() {
		for i := 0; i < 10; i++ {
			a.Send(Unicast(ids[1]), "t", make([]byte, 200))
		}
		a.ResetRunState()
	})
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if a.queueLen() != 0 {
		t.Fatalf("queued = %d after reset", a.queueLen())
	}
	if len(a.seen) != 0 {
		t.Fatalf("seen = %d after reset", len(a.seen))
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	s := sched.NewVirtual()
	nw := New(s, 1)
	nw.AddNode("a", NodeParams{})
	nw.AddNode("a", NodeParams{})
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self link")
		}
	}()
	s := sched.NewVirtual()
	nw := New(s, 1)
	nw.AddNode("a", NodeParams{})
	nw.AddLink("a", "a", DefaultLink())
}

func TestAsymmetricLink(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddDirectedLink("a", "b", lossless(time.Millisecond))
	na, nb := 0, 0
	a.SetHandler(func(p *Packet) { na++ })
	b.SetHandler(func(p *Packet) { nb++ })
	s.Go("t", func() {
		a.Send(Unicast("b"), "t", nil)
		b.Send(Unicast("a"), "t", nil) // no reverse link
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if nb != 1 || na != 0 {
		t.Fatalf("na=%d nb=%d; reverse direction should fail", na, nb)
	}
}

func TestDropReasonStrings(t *testing.T) {
	want := map[DropReason]string{
		DropLoss: "loss", DropRule: "rule", DropQueue: "queue",
		DropNoRoute: "noroute", DropTTL: "ttl", DropIfDown: "ifdown",
	}
	for r, w := range want {
		if r.String() != w {
			t.Errorf("%d.String() = %s, want %s", r, r, w)
		}
	}
}

func TestFullDeterminismAcrossRuns(t *testing.T) {
	// An entire noisy scenario (grid, loss, jitter, mixed traffic) must
	// produce identical stats when repeated with the same seed.
	run := func() Stats {
		s := sched.NewVirtual()
		nw := New(s, 12345)
		ids := BuildGrid(nw, "g", 3, 3, NodeParams{},
			LinkParams{Delay: time.Millisecond, Jitter: time.Millisecond, Loss: 0.1})
		for _, id := range ids {
			nw.Node(id).SetHandler(func(p *Packet) {})
		}
		nw.Join("m", ids[4])
		s.Go("traffic", func() {
			for i := 0; i < 50; i++ {
				nw.Node(ids[i%9]).Send(Unicast(ids[(i+4)%9]), "t", make([]byte, 100))
				nw.Node(ids[(i+2)%9]).Send(Multicast("m"), "sd", make([]byte, 60))
				s.Sleep(500 * time.Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return nw.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestRuleReorder(t *testing.T) {
	// A reorder rule delays selected packets so later ones overtake:
	// receive order must differ from send order while no packet is lost.
	s := sched.NewVirtual()
	nw := New(s, 1)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	nw.AddLink("a", "b", lossless(time.Millisecond))
	var got []uint16
	b.SetHandler(func(p *Packet) { got = append(got, p.Tag) })
	s.Go("t", func() {
		a.SetTagging(true)
		a.InstallRule(Rule{Dir: DirTx, ReorderProb: 0.5, ReorderDelay: 20 * time.Millisecond})
		for i := 0; i < 40; i++ {
			a.Send(Unicast("b"), "t", nil)
			s.Sleep(2 * time.Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("received %d of 40", len(got))
	}
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no reordering observed")
	}
}

func TestContentionCouplesNeighbors(t *testing.T) {
	// With the shared medium, a busy neighbor delays our transmissions;
	// with contention off, flows are independent. This is the mechanism
	// that lets background traffic inflate SD latency (§ DESIGN.md).
	// Direct comparison: measure probe latency under both settings.
	lat := func(contention bool) time.Duration {
		s := sched.NewVirtual()
		nw := New(s, 3)
		nw.Contention = contention
		ids := BuildFull(nw, "n", 3, NodeParams{RateBps: 100_000}, lossless(time.Millisecond))
		var probeAt, sentAt time.Time
		nw.Node(ids[1]).SetHandler(func(p *Packet) {
			if p.Proto == "probe" {
				probeAt = s.Now()
			}
		})
		s.Go("noise", func() {
			for i := 0; i < 50; i++ {
				nw.Node(ids[0]).Send(Unicast(ids[1]), "noise", make([]byte, 1000))
			}
		})
		s.Go("probe", func() {
			s.Sleep(5 * time.Millisecond)
			sentAt = s.Now()
			nw.Node(ids[2]).Send(Unicast(ids[1]), "probe", make([]byte, 100))
		})
		if err := s.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
		if probeAt.IsZero() {
			t.Fatal("probe not delivered")
		}
		return probeAt.Sub(sentAt)
	}
	with, without := lat(true), lat(false)
	if with <= without {
		t.Fatalf("contention should delay the probe: with=%v without=%v", with, without)
	}
	if with < 10*time.Millisecond {
		t.Fatalf("busy medium barely delayed the probe: %v", with)
	}
}

func TestBurstLossIsBursty(t *testing.T) {
	// Gilbert–Elliott losses must cluster: the conditional loss
	// probability after a loss is much higher than after a delivery.
	s := sched.NewVirtual()
	nw := New(s, 77)
	a := nw.AddNode("a", NodeParams{})
	b := nw.AddNode("b", NodeParams{})
	burst := &BurstLoss{PGoodToBad: 0.02, PBadToGood: 0.2, LossGood: 0.001, LossBad: 0.8}
	nw.AddDirectedLink("a", "b", LinkParams{Delay: time.Millisecond, Burst: burst})
	const n = 20000
	received := make([]bool, n)
	b.SetHandler(func(p *Packet) { received[p.Tag-1] = true })
	s.Go("t", func() {
		a.SetTagging(true)
		for i := 0; i < n; i++ {
			a.Send(Unicast("b"), "t", nil)
			s.Sleep(100 * time.Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	losses, lossAfterLoss, afterLoss, lossAfterOK, afterOK := 0, 0, 0, 0, 0
	for i := 0; i < n; i++ {
		if !received[i] {
			losses++
		}
		if i == 0 {
			continue
		}
		if !received[i-1] {
			afterLoss++
			if !received[i] {
				lossAfterLoss++
			}
		} else {
			afterOK++
			if !received[i] {
				lossAfterOK++
			}
		}
	}
	meanLoss := float64(losses) / n
	want := burst.MeanLoss()
	if meanLoss < want*0.6 || meanLoss > want*1.4 {
		t.Fatalf("mean loss %.4f, stationary model predicts %.4f", meanLoss, want)
	}
	pAfterLoss := float64(lossAfterLoss) / float64(afterLoss)
	pAfterOK := float64(lossAfterOK) / float64(afterOK)
	if pAfterLoss < 3*pAfterOK {
		t.Fatalf("losses not bursty: P(loss|loss)=%.3f P(loss|ok)=%.3f", pAfterLoss, pAfterOK)
	}
}

func TestBurstLossDeterministic(t *testing.T) {
	run := func() uint64 {
		s := sched.NewVirtual()
		nw := New(s, 5)
		a := nw.AddNode("a", NodeParams{})
		b := nw.AddNode("b", NodeParams{})
		nw.AddDirectedLink("a", "b", LinkParams{Delay: time.Millisecond,
			Burst: &BurstLoss{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.9}})
		got := uint64(0)
		b.SetHandler(func(p *Packet) { got++ })
		s.Go("t", func() {
			for i := 0; i < 500; i++ {
				a.Send(Unicast("b"), "t", nil)
				s.Sleep(time.Millisecond)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("burst loss not deterministic: %d vs %d", a, b)
	}
}

func TestBurstLossMeanLossFormula(t *testing.T) {
	b := BurstLoss{PGoodToBad: 0.1, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.81}
	// pBad = 0.1/0.4 = 0.25 → mean = 0.75*0.01 + 0.25*0.81 = 0.21.
	if got := b.MeanLoss(); got < 0.2099 || got > 0.2101 {
		t.Fatalf("MeanLoss = %v", got)
	}
	if got := (BurstLoss{LossGood: 0.05}).MeanLoss(); got != 0.05 {
		t.Fatalf("degenerate MeanLoss = %v", got)
	}
}

// TestDupCascadePooledAliasing is the pooled-packet aliasing regression
// around the DupProb re-enqueue: a relay with certain duplication queues an
// independent clone; if original and copy shared a recycled buffer, paths
// or payloads would cross between packets.
func TestDupCascadePooledAliasing(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 3)
	BuildChain(nw, "n", 3, NodeParams{}, LinkParams{Delay: time.Millisecond})
	relay := nw.Node("n1")
	relay.InstallRule(Rule{Dir: DirTx, DupProb: 1})
	const N = 40
	type rx struct {
		payload string
		path    string
	}
	var got []rx
	nw.Node("n2").SetHandler(func(p *Packet) {
		got = append(got, rx{payload: string(p.Payload), path: fmt.Sprint(p.Path)})
	})
	s.Go("send", func() {
		for i := 0; i < N; i++ {
			nw.Node("n0").Send(Unicast("n2"), "t", []byte(fmt.Sprintf("payload-%02d", i)))
			s.Sleep(2 * time.Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Every packet is relayed twice by n1 (original + rule duplicate); the
	// duplicate bypasses rule evaluation, so exactly 2N deliveries.
	if len(got) != 2*N {
		t.Fatalf("deliveries = %d, want %d", len(got), 2*N)
	}
	count := map[string]int{}
	for _, r := range got {
		if r.path != "[n0 n1 n2]" {
			t.Fatalf("corrupted path %s for %q (pool aliasing)", r.path, r.payload)
		}
		count[r.payload]++
	}
	for i := 0; i < N; i++ {
		key := fmt.Sprintf("payload-%02d", i)
		if count[key] != 2 {
			t.Fatalf("payload %q delivered %d times, want 2", key, count[key])
		}
	}
	if st := nw.Stats(); st.RuleDuplicates != N {
		t.Fatalf("RuleDuplicates = %d, want %d", st.RuleDuplicates, N)
	}
}

// TestRemoveLinkInvalidatesSnapshotNextDelivery checks the fan-out
// snapshot invalidation satellite: after RemoveLink the very next delivery
// must take the surviving path.
func TestRemoveLinkInvalidatesSnapshotNextDelivery(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		nw.AddNode(id, NodeParams{})
	}
	// Diamond: a-b-c (short) and a-d-c (alternative).
	nw.AddLink("a", "b", LinkParams{Delay: time.Millisecond})
	nw.AddLink("b", "c", LinkParams{Delay: time.Millisecond})
	nw.AddLink("a", "d", LinkParams{Delay: time.Millisecond})
	nw.AddLink("d", "c", LinkParams{Delay: time.Millisecond})
	var paths []string
	nw.Node("c").SetHandler(func(p *Packet) { paths = append(paths, fmt.Sprint(p.Path)) })
	s.Go("t", func() {
		nw.Node("a").Send(Unicast("c"), "t", nil)
		s.Sleep(20 * time.Millisecond)
		nw.RemoveLink("a", "b")
		// Very next delivery after the cut must route around it.
		nw.Node("a").Send(Unicast("c"), "t", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("deliveries = %d, want 2 (%v)", len(paths), paths)
	}
	if paths[0] != "[a b c]" && paths[0] != "[a d c]" {
		t.Fatalf("first path = %s", paths[0])
	}
	if paths[1] != "[a d c]" {
		t.Fatalf("path after RemoveLink = %s, want [a d c]", paths[1])
	}
}

// TestLeaveInvalidatesMembershipNextFlood checks the membership snapshot:
// after Leave the very next flood must no longer deliver to the node.
func TestLeaveInvalidatesMembershipNextFlood(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	BuildChain(nw, "n", 3, NodeParams{}, LinkParams{Delay: time.Millisecond})
	nw.Join("svc", "n2")
	recv := 0
	nw.Node("n2").SetHandler(func(p *Packet) { recv++ })
	s.Go("t", func() {
		nw.Node("n0").Send(Multicast("svc"), "sd", nil)
		s.Sleep(20 * time.Millisecond)
		nw.Leave("svc", "n2")
		nw.Node("n0").Send(Multicast("svc"), "sd", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != 1 {
		t.Fatalf("deliveries = %d, want 1 (second flood after Leave must not deliver)", recv)
	}
}

// waitingUnicast builds a-b, c-a and c-d, the last losing every packet,
// and sends a probe a→b that has to wait for the medium: c's 1500-byte
// packet to d, sent just before, holds the channel at c's neighbours, a
// among them, for ~2.1 ms at 6 Mbit/s. during runs 1 ms in, while the
// probe sits in a's radio deferring. It returns the network counters and
// the probe's arrival at b as an offset from the start, -1 if it never
// arrived.
func waitingUnicast(t *testing.T, reg *obs.Registry, during func(nw *Network)) (Stats, time.Duration) {
	t.Helper()
	s := sched.NewVirtual()
	nw := New(s, 1)
	nw.Instrument(reg)
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		nw.AddNode(id, NodeParams{})
	}
	nw.AddLink("a", "b", lossless(time.Millisecond))
	nw.AddLink("c", "a", lossless(time.Millisecond))
	nw.AddLink("c", "d", LinkParams{Delay: time.Millisecond, Loss: 1})
	start := s.Now()
	arrived := time.Duration(-1)
	nw.Node("b").SetHandler(func(p *Packet) {
		if p.Proto == "probe" {
			arrived = s.Now().Sub(start)
		}
	})
	s.Go("t", func() {
		nw.Node("c").Send(Unicast("d"), "busy", make([]byte, 1500))
		nw.Node("a").Send(Unicast("b"), "probe", make([]byte, 100))
		s.Sleep(time.Millisecond)
		if a := nw.Node("a"); a.cur.pkt == nil || a.cur.pkt.Proto != "probe" {
			t.Error("the probe is not waiting in a's radio")
		}
		during(nw)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return nw.Stats(), arrived
}

// TestUnicastHopFollowsLinkChangesWhileWaiting pins what a queued unicast
// does when its link changes before it transmits. Its next hop is resolved
// once, at enqueue, together with the link; a link added, replaced or
// removed in between must still be seen at transmit time.
func TestUnicastHopFollowsLinkChangesWhileWaiting(t *testing.T) {
	st, base := waitingUnicast(t, nil, func(*Network) {})
	if base < 0 || st.DroppedTotal() != 1 || st.Dropped[DropLoss] != 1 {
		t.Fatalf("unchanged link: arrival %v, drops %v (want delivered, c's one loss)", base, st.Dropped)
	}

	st, at := waitingUnicast(t, nil, func(nw *Network) { nw.RemoveLink("a", "b") })
	if at >= 0 || st.Dropped[DropNoRoute] != 1 || st.DroppedTotal() != 2 {
		t.Fatalf("removed link: arrival %v, drops %v (want one noroute)", at, st.Dropped)
	}

	st, at = waitingUnicast(t, nil, func(nw *Network) {
		nw.RemoveLink("a", "b")
		nw.AddLink("a", "b", lossless(5*time.Millisecond))
	})
	if at-base != 4*time.Millisecond || st.DroppedTotal() != 1 {
		t.Fatalf("re-added 5 ms link: arrival %v, %v with the 1 ms link; drops %v", at, base, st.Dropped)
	}

	// A killed relay keeps its link: the packet leaves and the dead node's
	// interface drops it.
	st, at = waitingUnicast(t, nil, func(nw *Network) { nw.Node("b").SetKilled(true) })
	if at >= 0 || st.Dropped[DropIfDown] != 1 || st.Dropped[DropNoRoute] != 0 || st.DroppedTotal() != 2 {
		t.Fatalf("killed next hop: arrival %v, drops %v (want one ifdown)", at, st.Dropped)
	}
}

// TestStaleReceptionCounted checks excovery_netem_stale_rx_total: a packet
// that was already in a node's radio when every node reset its run state
// arrives in the next run, and is counted once; a packet sent after the
// reset is not.
func TestStaleReceptionCounted(t *testing.T) {
	reg := obs.NewRegistry()
	st, at := waitingUnicast(t, reg, func(nw *Network) {
		for _, id := range nw.Nodes() {
			nw.Node(id).ResetRunState()
		}
		nw.Node("a").Send(Unicast("b"), "fresh", nil)
	})
	if at < 0 || st.Delivered != 2 {
		t.Fatalf("arrival %v, delivered %d: the waiting probe and the fresh packet must both arrive", at, st.Delivered)
	}
	if got := reg.CounterTotal(string(obs.MNetemStaleRx)); got != 1 {
		t.Fatalf("stale receptions = %d, want 1", got)
	}
	if got := reg.CounterValue(string(obs.MNetemStaleRx), "node", "b"); got != 1 {
		t.Fatalf("stale receptions at b = %d, want 1", got)
	}
}

// TestResetForgetsFloodsInFlight pins what a reset does to flood duplicate
// suppression: a flood packet a node sent before its reset and receives
// back after it is unseen in the new run — delivered and reflooded — while
// without the reset the same echo is suppressed as a duplicate.
func TestResetForgetsFloodsInFlight(t *testing.T) {
	for _, reset := range []bool{false, true} {
		s := sched.NewVirtual()
		nw := New(s, 1)
		ids := BuildFull(nw, "n", 2, NodeParams{}, lossless(time.Millisecond))
		a, b := nw.Node(ids[0]), nw.Node(ids[1])
		var atA, atB int
		a.SetHandler(func(*Packet) { atA++ })
		// b's reflood of a's broadcast reaches a a link delay after b
		// received it, so a reset here falls between a's send and the echo.
		b.SetHandler(func(*Packet) {
			atB++
			if reset {
				a.ResetRunState()
			}
		})
		s.Go("send", func() { a.Send(Broadcast(), "t", nil) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		wantA := 0
		if reset {
			wantA = 1
		}
		if atA != wantA || atB != 1 {
			t.Errorf("reset=%v: a received its own broadcast %d times (want %d), b %d (want 1)",
				reset, atA, wantA, atB)
		}
		if got := nw.Stats().Duplicates; got != 1 {
			t.Errorf("reset=%v: %d duplicates suppressed, want 1", reset, got)
		}
	}
}
