package noderpc

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// TestOwnTrafficDecodesInOnePass: every document the control plane writes
// is of the shape the one-pass decoder reads. A stored, traced campaign
// over loopback — host registration under a fence epoch, the broadcast
// phases, execute, the replies that carry node events, every harvest and
// the metric fan-in — then an event pushed to the master, a refused fenced
// call, a handler fault and an unknown method leave the decode-fallback
// counter at zero on both sides.
func TestOwnTrafficDecodesInOnePass(t *testing.T) {
	e := desc.OneShot(30)
	e.Repl.Count = 3

	var host *Host
	x, err := core.New(e, core.Options{
		RealTime: true,
		Speed:    0.002,
		OnEvent:  func(ev eventlog.Event) { host.ForwardEvent(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	host = NewHost(x)
	defer host.Close()
	hostReg := obs.NewRegistry()
	host.Instrument(hostReg)
	hostHTTP := httptest.NewServer(host.Server())
	defer hostHTTP.Close()
	x.S.SetKeepAlive(true)
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()
	defer x.S.Stop()

	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(0.002)
	bus := eventlog.NewBus(ms)
	reg := obs.NewRegistry()
	masterSrv := MasterServer(ms, bus)
	masterSrv.Obs = reg
	masterHTTP := httptest.NewServer(masterSrv)
	defer masterHTTP.Close()

	newClient := func() *xmlrpc.Client {
		c := xmlrpc.NewClient(hostHTTP.URL)
		c.Obs = reg
		return c
	}
	hostClient := newClient()
	const epoch = 5
	if _, err := hostClient.CallMeta("host.set_master", xmlrpc.Meta{FenceEpoch: epoch},
		masterHTTP.URL, "m-codec", 15000); err != nil {
		t.Fatal(err)
	}
	if _, err := hostClient.Call("host.renew_lease", "m-codec", 15000); err != nil {
		t.Fatal(err)
	}
	nodesV, err := hostClient.Call("host.nodes")
	if err != nil {
		t.Fatal(err)
	}
	handles := map[string]master.NodeHandle{}
	for _, v := range nodesV.([]any) {
		rn := &RemoteNode{NodeID: v.(string), C: newClient()}
		rn.SetFenceEpoch(epoch)
		handles[rn.NodeID] = rn
	}
	st, err := store.NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus, Nodes: handles,
		Env:    &RemoteEnv{C: newClient(), Epoch: epoch},
		Store:  st,
		Tracer: obs.NewTracer(ms.Now), Metrics: reg,
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
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Completed != len(rep.Results) {
		t.Fatalf("completed %d of %d runs", rep.Completed, len(rep.Results))
	}

	// Events recorded during a call ride in its reply, and whether one the
	// campaign recorded between calls was pushed depends on timing. One
	// forwarded while no call is in flight is pushed.
	if hostReg.CounterTotal(obs.MHostEventsCarried) == 0 {
		t.Fatal("no reply carried an event")
	}
	batches := hostReg.CounterTotal(obs.MHostEventBatches)
	host.ForwardEvent(eventlog.Event{Run: 2, Node: "A", Time: x.S.Now(), Type: "pushed",
		Params: map[string]string{"note": "a<b & c>\"d\""}})
	for deadline := time.Now().Add(5 * time.Second); hostReg.CounterTotal(obs.MHostEventBatches) == batches; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the event forwarded between calls was not pushed")
		}
	}

	c := newClient()
	if _, err := c.CallMeta("node.ping", xmlrpc.Meta{FenceEpoch: epoch - 1}, []any{"A"}); err == nil ||
		!strings.Contains(err.Error(), "fenced: stale epoch") {
		t.Errorf("stale fenced call = %v, want a refusal", err)
	}
	if _, err := c.Call("node.execute", "nosuch", "sd_init", map[string]string{}); err == nil ||
		!strings.Contains(err.Error(), `no node "nosuch"`) {
		t.Errorf("execute on an unknown node = %v, want a handler fault", err)
	}
	if _, err := c.Call("node.nosuch"); err == nil {
		t.Error("unknown method answered")
	}

	if reg.CounterTotal(obs.MRPCServerRequests) == 0 {
		t.Fatal("the master's event endpoint saw no pushes")
	}
	if hostReg.CounterTotal(obs.MRPCServerRequests) == 0 || hostReg.CounterTotal(obs.MRPCClientCalls) == 0 {
		t.Fatal("the host served or pushed nothing")
	}
	for side, r := range map[string]*obs.Registry{"master": reg, "host": hostReg} {
		for _, doc := range []string{"call", "response"} {
			if got := r.CounterValue(obs.MRPCDecodeFallbacks, "doc", doc); got != 0 {
				t.Errorf("%s: %d %s documents missed the one-pass decoder", side, got, doc)
			}
		}
	}
	x.S.Stop()
	<-hostDone
}
