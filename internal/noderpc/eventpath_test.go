package noderpc

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/master"
	"excovery/internal/metrics"
	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// evKey counts events by run, node and type.
type evKey struct {
	run  int
	node string
	typ  string
}

// loopbackCfg shapes one loopback campaign.
type loopbackCfg struct {
	speed float64
	// store keeps level-2 data, so the master harvests and can Finalize.
	store bool
	// masterDelay holds every request to the master's event endpoint
	// before serving it.
	masterDelay time.Duration
	// holdAfter names an event type. Once the host records one, its
	// emulation stands still until the reply of the call that recorded
	// it has taken it, so what that event sets off is recorded between
	// calls, however the wall-clock timing falls.
	holdAfter string
	// hostSetup, if set, prepares the host before it serves: it may
	// register plugin actions on the platform, and it returns the
	// handler that serves in place of the host's method table.
	hostSetup func(x *core.Experiment, srv http.Handler) http.Handler
	// attempts is the master's Retry.MaxAttempts.
	attempts int
	// failed is the number of runs the campaign fails; every other run
	// must complete.
	failed int
}

// loopback is a campaign run over HTTP loopback, wired as excovery-node and
// excovery-master wire it: the platform behind a Host whose recorded events
// go to ForwardEvent, the master on its own real-time scheduler with its
// event endpoint registered on the host, one retrying client per proxy and
// two concurrent group calls (Fanout 2).
type loopback struct {
	host    *Host
	hostReg *obs.Registry
	m       *master.Master
	rep     *master.Report
	st      *store.RunStore // with loopbackCfg.store

	mu       sync.Mutex
	recorded map[evKey]int // every event the host recorded, as OnEvent saw it
}

func runLoopback(t *testing.T, e *desc.Experiment, cfg loopbackCfg) *loopback {
	t.Helper()
	lb := &loopback{hostReg: obs.NewRegistry(), recorded: map[evKey]int{}}
	x, err := core.New(e, core.Options{
		RealTime: true,
		Speed:    cfg.speed,
		OnEvent: func(ev eventlog.Event) {
			lb.mu.Lock()
			lb.recorded[evKey{ev.Run, ev.Node, ev.Type}]++
			lb.mu.Unlock()
			lb.host.ForwardEvent(ev)
			if ev.Type == cfg.holdAfter {
				lb.host.x.S.Go("hold until replied", func() { lb.awaitReply(t) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lb.host = NewHost(x)
	lb.host.Instrument(lb.hostReg)
	defer lb.host.Close()
	var hostSrv http.Handler = lb.host.Server()
	if cfg.hostSetup != nil {
		hostSrv = cfg.hostSetup(x, hostSrv)
	}
	hostHTTP := httptest.NewServer(hostSrv)
	defer hostHTTP.Close()
	x.S.SetKeepAlive(true)
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()
	defer func() { x.S.Stop(); <-hostDone }()

	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(cfg.speed)
	bus := eventlog.NewBus(ms)
	var endpoint http.Handler = MasterServer(ms, bus)
	if cfg.masterDelay > 0 {
		srv := endpoint
		endpoint = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			time.Sleep(cfg.masterDelay)
			srv.ServeHTTP(w, req)
		})
	}
	masterHTTP := httptest.NewServer(endpoint)
	defer masterHTTP.Close()

	dial := func() *xmlrpc.Client {
		return xmlrpc.NewRetryingClient(hostHTTP.URL, xmlrpc.DefaultRetryPolicy())
	}
	hostClient := dial()
	if _, err := hostClient.Call("host.set_master", masterHTTP.URL); err != nil {
		t.Fatal(err)
	}
	ids, err := FetchNodes(hostClient, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	handles := map[string]master.NodeHandle{}
	for _, id := range ids {
		handles[id] = &RemoteNode{NodeID: id, C: dial()}
	}
	mc := master.Config{Exp: e, S: ms, Bus: bus, Nodes: handles,
		Env: &RemoteEnv{C: dial()}, Fanout: 2,
		Retry: master.RetryPolicy{MaxAttempts: cfg.attempts}}
	if cfg.store {
		if lb.st, err = store.NewRunStore(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		mc.Store = lb.st
	}
	if lb.m, err = master.New(mc); err != nil {
		t.Fatal(err)
	}
	var runErr error
	ms.Go("experimaster", func() { lb.rep, runErr = lb.m.RunAll() })
	if err := ms.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if lb.rep.Failed != cfg.failed || lb.rep.Completed != len(lb.rep.Results)-cfg.failed {
		t.Fatalf("completed %d and failed %d of %d runs, want %d failed",
			lb.rep.Completed, lb.rep.Failed, len(lb.rep.Results), cfg.failed)
	}
	return lb
}

// awaitReply blocks the host's scheduler until its outbox is empty: the
// call in flight has taken what it recorded into its reply. It polls,
// because a reply is not the only way out of the outbox: with no call in
// flight the pump takes it.
func (lb *loopback) awaitReply(t *testing.T) {
	for deadline := time.Now().Add(10 * time.Second); lb.host.Status().OutboxLen > 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Error("the host's outbox never emptied after the held event")
			return
		}
	}
}

// checkSnapshots holds every run's RunResult.Events, less the master's own
// env events, to what the host recorded in that run: the same events by
// (run, node, type), and none of another run. It returns the number of
// runs that differ, reporting the first.
func (lb *loopback) checkSnapshots(t *testing.T) (mismatched int) {
	t.Helper()
	lb.mu.Lock()
	defer lb.mu.Unlock()
	want := map[int]map[evKey]int{}
	for k, n := range lb.recorded {
		if want[k.run] == nil {
			want[k.run] = map[evKey]int{}
		}
		want[k.run][k] = n
	}
	for _, rr := range lb.rep.Results {
		got := map[evKey]int{}
		for _, ev := range rr.Events {
			if ev.Node != "env" {
				got[evKey{ev.Run, ev.Node, ev.Type}]++
			}
		}
		w := want[rr.Run.ID]
		if w == nil {
			w = map[evKey]int{}
		}
		if !reflect.DeepEqual(got, w) {
			if mismatched == 0 {
				t.Errorf("run %d: master's snapshot %v, host recorded %v", rr.Run.ID, got, w)
			}
			mismatched++
		}
	}
	return mismatched
}

// ctl8 is eight publishers with four actions each and no waits.
func ctl8(reps int) *desc.Experiment {
	var nodes []string
	for i := 0; i < 8; i++ {
		nodes = append(nodes, fmt.Sprintf("N%d", i))
	}
	e := &desc.Experiment{
		Name: "ctl-8",
		Params: []desc.Param{
			{Key: "sd_architecture", Value: "two-party"},
			{Key: "sd_protocol", Value: "zeroconf"},
			{Key: "sd_scheme", Value: "active"},
		},
		AbstractNodes: nodes,
		Factors: []desc.Factor{
			desc.ActorMapFactor("fact_nodes", desc.UsageBlocking,
				map[string][]string{"actor0": nodes}),
		},
		Repl: desc.Replication{ID: "fact_replication_id", Count: reps},
		Seed: 8,
	}
	e.NodeProcesses = []desc.NodeProcess{{
		Actor: "actor0", Name: "SM", NodesRef: "fact_nodes",
		Actions: []desc.Action{
			desc.Act("sd_init"),
			desc.Act("sd_start_publish"),
			desc.Act("sd_stop_publish"),
			desc.Act("sd_exit"),
		},
	}}
	return e
}

// TestRunSnapshotsMatchHostRecord: in a control-plane-only campaign every
// event a node records comes back in the reply of the call that caused it,
// so each run's snapshot on the master holds exactly that run's events and
// the host pushes nothing.
func TestRunSnapshotsMatchHostRecord(t *testing.T) {
	lb := runLoopback(t, ctl8(200), loopbackCfg{speed: 0.0005})
	if n := lb.checkSnapshots(t); n != 0 {
		t.Errorf("%d of %d runs: the master's snapshot differs from the host's record", n, len(lb.rep.Results))
	}
	if n := lb.hostReg.CounterTotal(obs.MHostEventBatches); n != 0 {
		t.Errorf("host pushed %d event batches, want 0", n)
	}
	carried := lb.hostReg.CounterTotal(obs.MHostEventsCarried)
	if fwd := lb.hostReg.CounterTotal(obs.MHostEventsForwarded); carried != fwd || fwd == 0 {
		t.Errorf("host carried %d of %d forwarded events in replies, want all", carried, fwd)
	}
}

// TestPushedEventsLandInTheirRun: events recorded between calls — SD
// traffic while the master waits for an event — go by push, and the run's
// clean-up is their barrier: even with the master's event endpoint slow,
// each run's snapshot holds exactly that run's events. The SU searches
// before the SM publishes, so it can learn of the service only from the
// SM's announcement, and the host's emulation holds still after
// sd_start_publish until that call has replied: the SU's sd_service_add is
// recorded with no call in flight in every run. (A real-time scheduler's
// virtual clock stands still while it is idle and then catches up at full
// speed, so on wall-clock timing alone the answer often beat the reply,
// and the SU sometimes had the service cached before it searched.)
func TestPushedEventsLandInTheirRun(t *testing.T) {
	e := desc.OneShot(30)
	e.Repl.Count = 6
	sm, su := &e.NodeProcesses[0], &e.NodeProcesses[1]
	// The SU drops its wait for the SM's publication; the SM waits for
	// the SU's search instead.
	su.Actions = su.Actions[2:]
	awaitSearch := desc.Act("wait_for_event")
	awaitSearch.Wait = &desc.WaitSpec{Event: sd.EvStartSearch, FromActor: su.Actor, FromInstance: "all"}
	sm.Actions = append([]desc.Action{awaitSearch}, sm.Actions...)
	lb := runLoopback(t, e, loopbackCfg{speed: 0.01,
		masterDelay: 20 * time.Millisecond, holdAfter: sd.EvStartPublish})
	if n := lb.hostReg.CounterTotal(obs.MHostEventBatches); n < int64(e.Repl.Count) {
		t.Fatalf("%d event batches pushed in %d runs; the case needs events recorded between calls in every run", n, e.Repl.Count)
	}
	if n := lb.checkSnapshots(t); n != 0 {
		t.Errorf("%d of %d runs: the master's snapshot differs from the host's record", n, len(lb.rep.Results))
	}
}

// TestPrintedRMatchesLevel3: the R and t_R the master prints (from its run
// snapshots) are those of the level-3 file of the same campaign.
func TestPrintedRMatchesLevel3(t *testing.T) {
	e := desc.OneShot(30)
	e.Repl.Count = 5
	lb := runLoopback(t, e, loopbackCfg{speed: 0.002, store: true})
	db, err := lb.m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := metrics.FromDB(db, "", "")
	if err != nil {
		t.Fatal(err)
	}
	printed := metrics.FromReport(e, lb.rep, "", "")
	if len(printed) != len(stored) || len(printed) != e.Repl.Count {
		t.Fatalf("%d runs from the report, %d from level 3, want %d", len(printed), len(stored), e.Repl.Count)
	}
	for i, p := range printed {
		s := stored[i]
		if p.RunID != s.RunID || p.Complete != s.Complete || p.Found != s.Found || p.TR != s.TR {
			t.Errorf("run %d: printed complete=%v found=%d t_R=%v; level 3: run %d complete=%v found=%d t_R=%v",
				p.RunID, p.Complete, p.Found, p.TR, s.RunID, s.Complete, s.Found, s.TR)
		}
	}
}

// TestPumpDropsOnlyTheEventItCannotEncode: an event whose time has no
// event-line form (year 10000, which encoding/json refuses too) is dropped
// and counted as a push error; the event queued beside it still reaches the
// master.
func TestPumpDropsOnlyTheEventItCannotEncode(t *testing.T) {
	host := serveHost(t)
	reg := obs.NewRegistry()
	host.Instrument(reg)
	var mu sync.Mutex
	var received []eventlog.Event
	msrv := xmlrpc.NewServer()
	msrv.Register("master.events", func(params []any) (any, error) {
		evs, err := store.ParseEventLines([]byte(params[0].(string)))
		if err != nil {
			return nil, err
		}
		mu.Lock()
		received = append(received, evs...)
		mu.Unlock()
		return true, nil
	})
	mts := httptest.NewServer(msrv)
	defer mts.Close()
	if _, err := xmlrpc.NewClient(host.url).Call("host.set_master", mts.URL); err != nil {
		t.Fatal(err)
	}

	good := eventlog.Event{Run: 1, Node: "A", Time: time.Unix(5, 0).UTC(), Type: "good"}
	host.ForwardEvent(eventlog.Event{Run: 1, Node: "A", Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Type: "bad"})
	host.ForwardEvent(good)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n > 0 && host.Status().OutboxLen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nothing delivered: status %+v", host.Status())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || !reflect.DeepEqual(received[0], good) {
		t.Errorf("master received %v, want only %v", received, good)
	}
	if n := reg.CounterTotal(obs.MHostEventPushErrors); n != 1 {
		t.Errorf("push errors = %d, want 1", n)
	}
}

// TestRetriedCallCarriesItsEventsOnce: a call whose reply was lost is
// answered again from the idempotency cache, so the events it recorded
// reach the master once.
func TestRetriedCallCarriesItsEventsOnce(t *testing.T) {
	var host *Host
	x, err := core.New(desc.OneShot(30), core.Options{RealTime: true,
		OnEvent: func(ev eventlog.Event) { host.ForwardEvent(ev) }})
	if err != nil {
		t.Fatal(err)
	}
	host = NewHost(x)
	defer host.Close()
	srv := host.Server()
	fp := failpoint.New(1)
	srv.FP = fp
	ts := httptest.NewServer(srv)
	defer ts.Close()
	x.S.SetKeepAlive(true)
	done := make(chan error, 1)
	go func() { done <- x.S.Run() }()
	defer func() { x.S.Stop(); <-done }()

	policy := xmlrpc.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	rn := &RemoteNode{NodeID: "A", C: xmlrpc.NewRetryingClient(ts.URL, policy)}
	fp.Enable(failpoint.SiteServerSend, failpoint.Rule{Prob: 1, Act: failpoint.Drop, Count: 1})
	rn.Emit("flagged", map[string]string{"k": "v"})
	if err := rn.Err(); err != nil {
		t.Fatal(err)
	}
	if evs := rn.TakeEvents(); len(evs) != 1 || evs[0].Node != "A" || evs[0].Type != "flagged" {
		t.Errorf("the retried emit carried %v, want its one event", evs)
	}
	if st := srv.Stats(); st.DedupReplays != 1 || st.HandlerCalls != 1 {
		t.Errorf("server stats = %+v, want one handler call and one replay", st)
	}
	if st := host.Status(); st.OutboxLen != 0 {
		t.Errorf("%d events left in the outbox", st.OutboxLen)
	}
}
