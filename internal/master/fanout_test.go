package master

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"excovery/internal/obs"
	"excovery/internal/store"
)

// TestFanOutBounds exercises the helper directly: every slot runs exactly
// once, and concurrency never exceeds the limit.
func TestFanOutBounds(t *testing.T) {
	for _, limit := range []int{0, 1, 2, 4, 100} {
		var active, peak, calls atomic.Int32
		done := make([]bool, 17)
		var mu sync.Mutex
		fanOut(limit, len(done), func(slot int) {
			n := active.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			mu.Lock()
			if done[slot] {
				t.Errorf("limit %d: slot %d ran twice", limit, slot)
			}
			done[slot] = true
			mu.Unlock()
			calls.Add(1)
			active.Add(-1)
		})
		if int(calls.Load()) != len(done) {
			t.Fatalf("limit %d: %d calls, want %d", limit, calls.Load(), len(done))
		}
		want := int32(limit)
		if limit <= 1 {
			want = 1
		}
		if limit > len(done) {
			want = int32(len(done))
		}
		if peak.Load() > want {
			t.Fatalf("limit %d: peak concurrency %d exceeds bound %d",
				limit, peak.Load(), want)
		}
	}
}

// runStored executes the stub experiment into a level-2 store directory
// with the given fan-out bound and returns the report.
func runStored(t *testing.T, fanout int, dir string, mut func(*fixture)) *Report {
	t.Helper()
	st, err := store.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, f := newFixture(t, twoNodeExp(3), func(c *Config) {
		c.Fanout = fanout
		c.Store = st
		c.Tracer = obs.NewTracer(c.S.Now)
	})
	if mut != nil {
		mut(f)
	}
	return runMaster(t, m, f.s)
}

// listFiles returns path → content for every regular file under root.
func listFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFanOutMatchesSequential runs the same experiment sequentially and
// with fan-out and requires byte-identical level-2 artifacts and equal
// report accounting: parallel collection must not change what is stored.
func TestFanOutMatchesSequential(t *testing.T) {
	seqDir, fanDir := t.TempDir(), t.TempDir()
	seq := runStored(t, 1, seqDir, nil)
	fan := runStored(t, 4, fanDir, nil)

	if seq.Completed != fan.Completed || seq.Failed != fan.Failed ||
		seq.Retried != fan.Retried || seq.Skipped != fan.Skipped {
		t.Fatalf("report mismatch: sequential %+v fanout %+v", seq, fan)
	}
	for i := range seq.Results {
		so, fo := seq.Results[i].Offsets, fan.Results[i].Offsets
		if len(so) != len(fo) {
			t.Fatalf("run %d: offset count %d vs %d", i, len(so), len(fo))
		}
		for j := range so {
			if so[j].Node != fo[j].Node {
				t.Fatalf("run %d: offset order differs at %d: %s vs %s",
					i, j, so[j].Node, fo[j].Node)
			}
		}
	}

	sf, ff := listFiles(t, seqDir), listFiles(t, fanDir)
	if len(sf) == 0 {
		t.Fatal("sequential run stored no files")
	}
	if len(sf) != len(ff) {
		t.Fatalf("file count differs: %d vs %d", len(sf), len(ff))
	}
	for p, sb := range sf {
		fb, ok := ff[p]
		if !ok {
			t.Fatalf("fan-out store missing %s", p)
		}
		if string(sb) != string(fb) {
			t.Errorf("artifact %s differs between sequential and fan-out:\nseq: %s\nfan: %s",
				p, sb, fb)
		}
	}
}

// errNode wraps a stubNode with a control-channel error, mimicking a
// RemoteNode whose transport failed mid-run (runErrorer extension).
type errNode struct {
	*stubNode
	err error
}

func (n *errNode) Err() error { return n.err }

// TestFanOutErrorAccountingMatchesSequential fails one node's control
// channel and requires the fan-out master to produce the same error,
// retry, and node-health accounting as the sequential baseline.
func TestFanOutErrorAccountingMatchesSequential(t *testing.T) {
	run := func(fanout int) (*Report, obs.NodeState) {
		status := obs.NewStatus(nil)
		m, f := newFixture(t, twoNodeExp(2), func(c *Config) {
			c.Fanout = fanout
			c.Retry = RetryPolicy{MaxAttempts: 2}
			c.Status = status
		})
		// Node B's proxy reports a transport error after every run.
		m.cfg.Nodes["B"] = &errNode{stubNode: f.b,
			err: fmt.Errorf("connection reset")}
		return runMaster(t, m, f.s), status.Snapshot().Nodes["B"]
	}
	seq, seqB := run(1)
	fan, fanB := run(4)
	if seq.Completed != fan.Completed || seq.Failed != fan.Failed ||
		seq.Retried != fan.Retried {
		t.Fatalf("accounting mismatch: sequential %+v fanout %+v", seq, fan)
	}
	if fan.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (every run's node B errored)", fan.Failed)
	}
	for i := range seq.Results {
		se, fe := seq.Results[i].NodeErrs, fan.Results[i].NodeErrs
		if len(se) != len(fe) || se["B"] != fe["B"] {
			t.Fatalf("run %d NodeErrs: sequential %v fanout %v", i, se, fe)
		}
	}
	if seqB != fanB || fanB.ConsecutiveFailures != 4 {
		t.Fatalf("node B health: sequential %+v fanout %+v, want 4 consecutive failures in both", seqB, fanB)
	}
}

// idleNode is a plain handle whose preparation does nothing, so a
// broadcast over it allocates only what the master itself builds.
type idleNode struct {
	NodeHandle
	id string
}

func (n idleNode) ID() string     { return n.id }
func (n idleNode) PrepareRun(int) {}

// TestUntracedBroadcastAllocsFlat: without a tracer, a broadcast over
// in-process groups builds no span names, so it allocates no more for 64
// groups than for 2; with one, it allocates per group.
func TestUntracedBroadcastAllocsFlat(t *testing.T) {
	allocs := func(groups int, tr *obs.Tracer) float64 {
		nodes := map[string]NodeHandle{}
		for i := 0; i < groups; i++ {
			id := fmt.Sprintf("N%03d", i)
			nodes[id] = idleNode{id: id}
		}
		m := &Master{cfg: Config{Nodes: nodes, Tracer: tr}}
		for id := range nodes {
			m.order = append(m.order, id)
		}
		sort.Strings(m.order)
		m.groupByHost()
		op := func(g *hostGroup) { g.prepareRun(1) }
		return testing.AllocsPerRun(50, func() { m.broadcast(0, "prepare", 1, 1, op) })
	}
	if few, many := allocs(2, nil), allocs(64, nil); many > few {
		t.Errorf("untraced broadcast: %.0f allocs over 2 groups, %.0f over 64", few, many)
	}
	clock := func() time.Time { return time.Unix(0, 0) }
	if few, many := allocs(2, obs.NewTracer(clock)), allocs(64, obs.NewTracer(clock)); many <= few {
		t.Errorf("traced broadcast: %.0f allocs over 2 groups, %.0f over 64; the check cannot see span names", few, many)
	}
}
