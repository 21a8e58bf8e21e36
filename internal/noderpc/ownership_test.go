package noderpc

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/sched"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// snapNode is a RemoteNode that keeps, per harvest, the packets exactly as
// the control channel delivered them.
type snapNode struct {
	*RemoteNode
	mu    *sync.Mutex
	snaps map[string][]string // node → one JSON document per harvest
}

func (n snapNode) HarvestPackets() []store.PacketRecord {
	pkts := n.RemoteNode.HarvestPackets()
	b, _ := json.Marshal(pkts)
	n.mu.Lock()
	n.snaps[n.NodeID] = append(n.snaps[n.NodeID], string(b))
	n.mu.Unlock()
	return pkts
}

// TestDistributedHarvestOwnership is the capture path's ownership rule
// (DESIGN.md §18) over the control channel: the node host answers
// node.harvest_packets from buffers the next run overwrites, and the master
// commits each harvest on its pipeline while that next run executes. Every
// run's stored packets must be the ones harvested after that run.
func TestDistributedHarvestOwnership(t *testing.T) {
	e := desc.OneShot(30)
	e.Repl.Count = 4

	var host *Host
	x, err := core.New(e, core.Options{
		RealTime: true, Speed: 0.002,
		OnEvent: func(ev eventlog.Event) { host.ForwardEvent(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	host = NewHost(x)
	defer host.Close()
	hostHTTP := httptest.NewServer(host.Server())
	defer hostHTTP.Close()
	x.S.SetKeepAlive(true)
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()
	defer func() {
		x.S.Stop()
		<-hostDone
	}()

	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(0.002)
	bus := eventlog.NewBus(ms)
	masterHTTP := httptest.NewServer(MasterServer(ms, bus))
	defer masterHTTP.Close()
	if _, err := xmlrpc.NewClient(hostHTTP.URL).Call("host.set_master", masterHTTP.URL); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	snaps := map[string][]string{}
	handles := map[string]master.NodeHandle{}
	for id := range x.Managers {
		handles[id] = snapNode{
			RemoteNode: &RemoteNode{NodeID: id, C: xmlrpc.NewClient(hostHTTP.URL)},
			mu:         &mu, snaps: snaps,
		}
	}
	st, err := store.NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus, Nodes: handles, Store: st,
		Env: &RemoteEnv{C: xmlrpc.NewClient(hostHTTP.URL)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep *master.Report
	var runErr error
	ms.Go("experimaster", func() { rep, runErr = m.RunAll() })
	if err := ms.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil || rep.Completed != e.Repl.Count {
		t.Fatalf("campaign: %v, completed %d of %d", runErr, rep.Completed, e.Repl.Count)
	}

	for id, harvests := range snaps {
		if len(harvests) != e.Repl.Count {
			t.Fatalf("node %s: %d harvests for %d runs", id, len(harvests), e.Repl.Count)
		}
		for run, want := range harvests {
			pkts, err := st.ReadPackets(run, id)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkts) == 0 {
				t.Fatalf("node %s run %d: no packets stored", id, run)
			}
			if got, _ := json.Marshal(pkts); string(got) != want {
				t.Errorf("node %s run %d: stored packets are not the harvested ones:\n harvested %s\n stored    %s",
					id, run, want, got)
			}
		}
	}
}
