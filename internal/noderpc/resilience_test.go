package noderpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/master"
	"excovery/internal/sched"
	"excovery/internal/xmlrpc"
)

// TestRemoteNodeRecoversAfterTransientError is the regression for the
// sticky-error bug: a single transport failure used to poison the handle
// for the rest of the experiment. Per-run accounting must clear on the
// next PrepareRun.
func TestRemoteNodeRecoversAfterTransientError(t *testing.T) {
	srv := xmlrpc.NewServer()
	srv.Register("node.prepare_run", func(params []any) (any, error) { return "", nil }) // no events
	fp := failpoint.New(1)
	// Sever exactly the first request before it reaches the handler.
	fp.Enable(failpoint.SiteServerRecv, failpoint.Rule{Prob: 1, Act: failpoint.Drop, Count: 1})
	srv.FP = fp
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rn := &RemoteNode{NodeID: "A", C: xmlrpc.NewClient(ts.URL)} // no retries
	rn.PrepareRun(0)
	if rn.Err() == nil {
		t.Fatal("dropped prepare_run did not record an error")
	}
	// Next run starts clean and the channel has healed.
	rn.PrepareRun(1)
	if err := rn.Err(); err != nil {
		t.Fatalf("error stuck across runs: %v", err)
	}
}

// TestFailedEnvResetRetriesRun: an env.reset that fails leaves the
// previous run's traffic or drop rules possibly active, so the run it
// prepared must not be committed. The host refuses the first env.reset;
// the run is retried, and completes on its second attempt.
func TestFailedEnvResetRetriesRun(t *testing.T) {
	e := desc.OneShot(30)
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
	srv := host.Server()
	var mu sync.Mutex
	resets := 0
	hostHTTP := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		if method, _, err := xmlrpc.DecodeCall(body); err == nil && method == "env.reset" {
			mu.Lock()
			resets++
			first := resets == 1
			mu.Unlock()
			if first {
				w.Write(xmlrpc.EncodeFault(&xmlrpc.Fault{Code: 1, String: "env.reset: refused"}))
				return
			}
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		srv.ServeHTTP(w, req)
	}))
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
	handles := map[string]master.NodeHandle{}
	for id := range x.Managers {
		handles[id] = &RemoteNode{NodeID: id, C: xmlrpc.NewClient(hostHTTP.URL)}
	}
	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus, Nodes: handles,
		Env:   &RemoteEnv{C: xmlrpc.NewClient(hostHTTP.URL)},
		Retry: master.RetryPolicy{MaxAttempts: 2},
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
	rr := rep.Results[0]
	if rep.Completed != 1 || rep.Retried != 1 || rr.Attempts != 2 || rr.Err != nil {
		t.Fatalf("completed=%d retried=%d attempts=%d err=%v, want the run retried once and then completed",
			rep.Completed, rep.Retried, rr.Attempts, rr.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if resets != 4 {
		t.Errorf("env.reset calls = %d, want 4 (prepare and clean-up of two attempts)", resets)
	}
}

// TestDistributedResilienceUnderDrops is the acceptance scenario: the
// control channel drops ~30% of master→host calls (15% before the
// handler, 15% on the response path), yet 10 runs all complete because
// the retrying clients replay each call under its idempotency key and
// the server deduplicates re-deliveries. No action may execute twice.
func TestDistributedResilienceUnderDrops(t *testing.T) {
	e := desc.OneShot(30)
	e.Repl.Count = 10

	// --- node host side ---
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

	srv := host.Server()
	fp := failpoint.New(42)
	fp.Enable(failpoint.SiteServerRecv, failpoint.Rule{Prob: 0.15, Act: failpoint.Drop})
	fp.Enable(failpoint.SiteServerSend, failpoint.Rule{Prob: 0.15, Act: failpoint.Drop})
	srv.FP = fp

	// Every handler execution is recorded under its idempotency key;
	// dedup replays bypass OnDispatch, so a key seen twice means a
	// retried call really ran twice.
	var dispatchMu sync.Mutex
	execs := map[string]int{}
	srv.OnDispatch = func(method, key string) {
		dispatchMu.Lock()
		defer dispatchMu.Unlock()
		if key != "" {
			execs[key]++
		}
	}

	hostHTTP := httptest.NewServer(srv)
	defer hostHTTP.Close()
	x.S.SetKeepAlive(true)
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()
	defer x.S.Stop()

	// --- master side ---
	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(0.002)
	bus := eventlog.NewBus(ms)
	masterHTTP := httptest.NewServer(MasterServer(ms, bus))
	defer masterHTTP.Close()

	policy := xmlrpc.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Seed:        7,
	}
	hostClient := xmlrpc.NewRetryingClient(hostHTTP.URL, policy)
	if _, err := hostClient.Call("host.set_master", masterHTTP.URL); err != nil {
		t.Fatal(err)
	}
	nodesV, err := hostClient.Call("host.nodes")
	if err != nil {
		t.Fatal(err)
	}
	handles := map[string]master.NodeHandle{}
	clients := []*xmlrpc.Client{hostClient}
	for _, v := range nodesV.([]any) {
		id := v.(string)
		c := xmlrpc.NewRetryingClient(hostHTTP.URL, policy)
		clients = append(clients, c)
		handles[id] = &RemoteNode{NodeID: id, C: c}
	}
	envClient := xmlrpc.NewRetryingClient(hostHTTP.URL, policy)
	clients = append(clients, envClient)

	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus, Nodes: handles,
		Env:   &RemoteEnv{C: envClient},
		Retry: master.RetryPolicy{MaxAttempts: 3},
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

	if want := len(rep.Results); rep.Completed != want || want != 10 {
		t.Fatalf("completed %d/%d runs under 30%% drop rate", rep.Completed, want)
	}
	// The drops were real: the clients had to retry...
	var retries int64
	for _, c := range clients {
		retries += c.Stats().Retries
	}
	if retries == 0 {
		t.Fatal("no retries recorded — failpoints never fired?")
	}
	// ...and some response-path drops forced dedup replays.
	if st := srv.Stats(); st.DedupReplays == 0 {
		t.Fatalf("no dedup replays (server stats: %+v)", st)
	}
	// At-most-once: no idempotency key's handler ran twice.
	dispatchMu.Lock()
	defer dispatchMu.Unlock()
	dups := 0
	for _, n := range execs {
		if n > 1 {
			dups++
		}
	}
	if dups > 0 {
		t.Fatalf("%d of %d calls executed more than once", dups, len(execs))
	}
	x.S.Stop()
	<-hostDone
}
