package master

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/netem"
	"excovery/internal/node"
	"excovery/internal/sched"
	"excovery/internal/store"
)

// TestManagerIsAPlainHandle: the in-process node.Manager is the master's
// NodeHandle as it is, with no adapter. It must implement none of the
// optional extensions, whose presence switches the master onto the
// control-channel paths (health probes, carried events, host groups).
func TestManagerIsAPlainHandle(t *testing.T) {
	var h NodeHandle = (*node.Manager)(nil)
	for name, ok := range map[string]bool{
		"HealthChecker":     is[HealthChecker](h),
		"runErrorer":        is[runErrorer](h),
		"eventCarrier":      is[eventCarrier](h),
		"traceParentSetter": is[traceParentSetter](h),
		"traceHarvester":    is[traceHarvester](h),
		"metricSnapshotter": is[metricSnapshotter](h),
		"hostMember":        is[hostMember](h),
	} {
		if ok {
			t.Errorf("node.Manager implements %s", name)
		}
	}
}

func is[T any](h NodeHandle) bool {
	_, ok := h.(T)
	return ok
}

// TestQueuedHarvestsSurviveLaterRuns is the ownership rule of the capture
// path (DESIGN.md §18) at the place that depends on it: a collected harvest
// waits in the commit pipeline — up to commitQueueDepth of them, plus the
// one being written — while the run loop executes further runs, and those
// overwrite the nodes' recycled capture buffers. What is committed must be
// what was collected, bit for bit.
func TestQueuedHarvestsSurviveLaterRuns(t *testing.T) {
	s := sched.NewVirtual()
	bus := eventlog.NewBus(s)
	nw := netem.New(s, 1)
	mgrs := map[string]*node.Manager{}
	for _, id := range []string{"A", "B"} {
		nd := nw.AddNode(netem.NodeID(id), netem.NodeParams{})
		rec := eventlog.NewRecorder(id, nd.Clock(), func(ev eventlog.Event) { bus.Publish(ev) })
		mgrs[id] = node.New(s, nd, rec, nil)
	}
	nw.AddLink("A", "B", netem.LinkParams{Delay: time.Millisecond})
	nw.Join("g", "B")
	a := mgrs["A"]
	// Every run sends a different number of packets with different
	// payloads, so the next run's records do not land where the last
	// run's were.
	a.RegisterPlugin("alpha", func(map[string]string) error {
		run := a.Recorder().Run()
		for i := 0; i < 2+3*run; i++ {
			a.Node().Send(netem.Unicast("B"), "t", []byte(fmt.Sprintf("run %d unicast %d", run, i)))
		}
		for i := 0; i < 9-run; i++ {
			a.Node().Send(netem.Multicast("g"), "t", []byte(fmt.Sprintf("run %d multicast %d", run, i)))
		}
		a.Emit("alpha_done", nil)
		return nil
	})
	a.RegisterPlugin("omega", func(map[string]string) error {
		s.Sleep(200 * time.Millisecond) // let the packets arrive
		return nil
	})

	st, err := store.NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runs := commitQueueDepth + 3
	m, err := New(Config{
		Exp: twoNodeExp(runs), S: s, Bus: bus, Store: st,
		Nodes: map[string]NodeHandle{"A": mgrs["A"], "B": mgrs["B"]},
	})
	if err != nil {
		t.Fatal(err)
	}

	packetsOf := func(hd *harvestData) string {
		var all [][]store.PacketRecord
		for _, nh := range hd.nodes {
			all = append(all, nh.packets)
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var held []*harvestData
	var collected []string
	s.Go("experimaster", func() {
		if err := m.experimentInit(); err != nil {
			t.Error(err)
			return
		}
		for _, run := range m.plan.Runs {
			rr := m.executeRun(run, 1)
			if rr.Err != nil || rr.Aborted {
				t.Errorf("run %d: %+v", run.ID, rr)
				return
			}
			hd := m.collectHarvest(run, &rr)
			held = append(held, hd)
			collected = append(collected, packetsOf(hd))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(held) != runs {
		t.Fatalf("collected %d harvests of %d", len(held), runs)
	}
	for i, hd := range held {
		if n := len(hd.nodes[0].packets) + len(hd.nodes[1].packets); n < 2*(11+2*i) {
			t.Fatalf("run %d harvested %d records, want tx and rx of %d packets", i, n, 11+2*i)
		}
		if got := packetsOf(hd); got != collected[i] {
			t.Errorf("harvest of run %d changed while later runs executed:\n was %s\n now %s", i, collected[i], got)
		}
		if i > 0 && collected[i] == collected[i-1] {
			t.Fatalf("runs %d and %d captured the same packets; nothing was overwritten", i-1, i)
		}
		// And it reaches the store as collected.
		if err := m.commitHarvest(hd); err != nil {
			t.Fatal(err)
		}
		var stored [][]store.PacketRecord
		for _, id := range m.order {
			pkts, err := st.ReadPackets(hd.run.ID, id)
			if err != nil {
				t.Fatal(err)
			}
			stored = append(stored, pkts)
		}
		if b, _ := json.Marshal(stored); string(b) != collected[i] {
			t.Errorf("run %d: stored packets differ from the harvest:\n harvest %s\n stored  %s", i, collected[i], b)
		}
	}
}
