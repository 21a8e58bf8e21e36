package netem

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"excovery/internal/sched"
)

// buildShardedMesh constructs a two-shard mesh: 8 nodes per shard in a
// chorded ring, two cross-shard links with delay ≥ the lookahead, and a
// multicast group spanning both shards. Node "s<k>n<i>" lives on shard k.
func buildShardedMesh(seed int64) (*sched.Group, *Network) {
	const lookahead = 5 * time.Millisecond
	members := []*sched.Scheduler{sched.NewVirtual(), sched.NewVirtual()}
	g := sched.NewGroup(lookahead, members...)
	nw := NewSharded(g, seed, func(id NodeID) int { return int(id[1] - '0') })
	for k := 0; k < 2; k++ {
		for i := 0; i < 8; i++ {
			n := nw.AddNode(NodeID(fmt.Sprintf("s%dn%d", k, i)), NodeParams{})
			n.SetCapture(true)
			n.SetTagging(true)
		}
		for i := 0; i < 8; i++ {
			a := NodeID(fmt.Sprintf("s%dn%d", k, i))
			b := NodeID(fmt.Sprintf("s%dn%d", k, (i+1)%8))
			nw.AddLink(a, b, LinkParams{Delay: time.Millisecond, Jitter: 300 * time.Microsecond, Loss: 0.02})
		}
		nw.AddLink(NodeID(fmt.Sprintf("s%dn0", k)), NodeID(fmt.Sprintf("s%dn4", k)),
			LinkParams{Delay: time.Millisecond, Loss: 0.01})
	}
	nw.AddLink("s0n0", "s1n0", LinkParams{Delay: lookahead})
	nw.AddLink("s0n4", "s1n2", LinkParams{Delay: lookahead + time.Millisecond, Jitter: time.Millisecond, Loss: 0.05})
	for _, id := range []NodeID{"s0n1", "s0n5", "s1n3", "s1n7"} {
		nw.Join("svc", id)
	}
	return g, nw
}

// shardedDigest runs a mixed unicast/multicast workload on the sharded
// mesh at the given GOMAXPROCS and renders every capture on every node.
func shardedDigest(t *testing.T, procs int, seed int64) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	g, nw := buildShardedMesh(seed)
	members := g.Members()
	// Staggered sends, scheduled on each node's owning shard: multicast
	// floods that cross the cut, unicast same-shard and cross-shard.
	for k := 0; k < 2; k++ {
		m := members[k]
		for i := 0; i < 8; i++ {
			src := nw.Node(NodeID(fmt.Sprintf("s%dn%d", k, i)))
			at := time.Duration(3*i+k) * time.Millisecond
			m.ScheduleFunc(at, "mcast", func() {
				src.Send(Multicast("svc"), "sd", []byte(fmt.Sprintf("q-%s", src.ID())))
			})
			dst := NodeID(fmt.Sprintf("s%dn%d", 1-k, (i+5)%8))
			m.ScheduleFunc(at+20*time.Millisecond, "ucast", func() {
				src.Send(Unicast(dst), "traffic", []byte("x"))
			})
		}
	}
	if err := g.Run(); err != nil {
		t.Fatalf("group run: %v", err)
	}
	var sb strings.Builder
	for _, id := range nw.Nodes() {
		n := nw.Node(id)
		fmt.Fprintf(&sb, "== %s (%d captures)\n", id, len(n.Captures()))
		for _, c := range n.Captures() {
			fmt.Fprintf(&sb, "%s %s %s pkt %d tag %d %s->%s %q path %v\n", c.Time.Format(time.RFC3339Nano),
				c.Dir, c.Node, c.ID, c.Tag, c.Src, c.Dst, c.Payload, c.Path)
		}
	}
	fmt.Fprintf(&sb, "stats: %+v\n", nw.Stats())
	return sb.String()
}

// TestShardedDeterministicAcrossGOMAXPROCS is the tentpole determinism
// gate at the emulator level: the same seed and sharding must produce
// byte-identical captures and statistics whether the shards interleave on
// one core or run truly parallel on eight.
func TestShardedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	want := shardedDigest(t, 1, 42)
	if !strings.Contains(want, "captures") || len(want) < 1000 {
		t.Fatalf("implausibly small digest:\n%s", want)
	}
	// The workload must actually cross the shard cut.
	if !strings.Contains(want, "path [s0n0 s1n0") && !strings.Contains(want, "s1n0 s0n0") {
		t.Fatalf("no cross-shard traffic in digest")
	}
	for i := 0; i < 3; i++ {
		if got := shardedDigest(t, 8, 42); got != want {
			t.Fatalf("GOMAXPROCS=8 run %d diverged from GOMAXPROCS=1", i)
		}
	}
	if same := shardedDigest(t, 8, 43); same == want {
		t.Fatal("different seed produced identical digest; workload is not seed-sensitive")
	}
}

// TestShardedStatsMergeAndReset covers the shard-local stats satellite:
// counters accumulate per shard without synchronization and merge on read;
// ResetStats zeroes every shard.
func TestShardedStatsMergeAndReset(t *testing.T) {
	g, nw := buildShardedMesh(7)
	members := g.Members()
	for k := 0; k < 2; k++ {
		src := nw.Node(NodeID(fmt.Sprintf("s%dn1", k)))
		members[k].ScheduleFunc(time.Duration(k)*time.Millisecond, "send", func() {
			src.Send(Multicast("svc"), "sd", []byte("hello"))
		})
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Sent != 2 {
		t.Fatalf("merged Sent = %d, want 2", st.Sent)
	}
	if st.Transmissions == 0 || st.Delivered == 0 {
		t.Fatalf("merged stats missing activity: %+v", st)
	}
	nw.ResetStats()
	if got := nw.Stats(); got != (Stats{}) {
		t.Fatalf("stats after reset = %+v", got)
	}
}

func TestShardedCrossShardLinkBelowLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-shard link below lookahead")
		}
	}()
	members := []*sched.Scheduler{sched.NewVirtual(), sched.NewVirtual()}
	g := sched.NewGroup(5*time.Millisecond, members...)
	nw := NewSharded(g, 1, func(id NodeID) int { return int(id[1] - '0') })
	nw.AddNode("s0n0", NodeParams{})
	nw.AddNode("s1n0", NodeParams{})
	nw.AddLink("s0n0", "s1n0", LinkParams{Delay: time.Millisecond})
}

func TestShardedFrozenTopologyPanics(t *testing.T) {
	g, nw := buildShardedMesh(1)
	members := g.Members()
	var recovered any
	members[0].ScheduleFunc(time.Millisecond, "mutate", func() {
		defer func() { recovered = recover() }()
		nw.RemoveLink("s0n0", "s0n1")
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("mid-run topology mutation on a sharded network must panic")
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
