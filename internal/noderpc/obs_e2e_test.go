package noderpc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// TestObservabilityEndToEndUnderDrops is the acceptance scenario of the
// observability layer: a distributed experiment under ~30% control-channel
// drop rate is watched live through the obs HTTP endpoints while it runs,
// the final /metrics exposition must agree with the run report's
// ControlSummary, and every run must leave a trace.json artifact whose
// span tree covers prepare → execute → clean-up and converts to a valid
// Chrome trace.
func TestObservabilityEndToEndUnderDrops(t *testing.T) {
	e := desc.OneShot(30)
	e.Repl.Count = 6

	// --- node host side, with failpoints on both server paths ---
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
	srv := host.Server()
	fp := failpoint.New(42)
	fp.Enable(failpoint.SiteServerRecv, failpoint.Rule{Prob: 0.15, Act: failpoint.Drop})
	fp.Enable(failpoint.SiteServerSend, failpoint.Rule{Prob: 0.15, Act: failpoint.Drop})
	srv.FP = fp

	hostHTTP := httptest.NewServer(srv)
	defer hostHTTP.Close()
	hostObsHTTP := httptest.NewServer(obs.NewMux(hostReg, func() any { return host.Status() }))
	defer hostObsHTTP.Close()
	x.S.SetKeepAlive(true)
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()
	defer x.S.Stop()

	// --- master side, fully instrumented ---
	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(0.002)
	bus := eventlog.NewBus(ms)
	reg := obs.NewRegistry()
	status := obs.NewStatus(nil)
	tracer := obs.NewTracer(ms.Now)
	bus.Instrument(reg)
	masterHTTP := httptest.NewServer(MasterServer(ms, bus))
	defer masterHTTP.Close()
	obsHTTP := httptest.NewServer(obs.NewMux(reg, func() any { return status.Snapshot() }))
	defer obsHTTP.Close()

	policy := xmlrpc.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Seed:        7,
	}
	newClient := func() *xmlrpc.Client {
		c := xmlrpc.NewRetryingClient(hostHTTP.URL, policy)
		c.Obs = reg
		return c
	}
	hostClient := newClient()
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
		c := newClient()
		clients = append(clients, c)
		handles[id] = &RemoteNode{NodeID: id, C: c}
	}
	envClient := newClient()
	clients = append(clients, envClient)

	st, err := store.NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus, Nodes: handles,
		Env:    &RemoteEnv{C: envClient},
		Store:  st,
		Retry:  master.RetryPolicy{MaxAttempts: 4},
		Tracer: tracer, Status: status, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Live watcher: poll /status while the experiment executes, the way an
	// operator's dashboard would.
	getJSON := func(url string, into any) error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != 200 {
			return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
		}
		return json.Unmarshal(body, into)
	}
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	var sawRunning, sawRun, sawPhase, sawNode bool
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-pollStop:
				return
			default:
			}
			var snap obs.Snapshot
			if err := getJSON(obsHTTP.URL+"/status", &snap); err != nil {
				continue
			}
			if snap.State == "running" {
				sawRunning = true
			}
			if snap.Run >= 0 {
				sawRun = true
			}
			switch snap.Phase {
			case "prepare", "execute", "cleanup":
				sawPhase = true
			}
			if len(snap.Nodes) > 0 {
				sawNode = true
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var rep *master.Report
	var runErr error
	ms.Go("experimaster", func() { rep, runErr = m.RunAll() })
	if err := ms.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	close(pollStop)
	<-pollDone

	if want := len(rep.Results); rep.Completed != want || want != 6 {
		t.Fatalf("completed %d/%d runs under 30%% drop rate", rep.Completed, want)
	}
	if !sawRunning || !sawRun || !sawPhase || !sawNode {
		t.Fatalf("live /status never showed running=%v run=%v phase=%v nodes=%v",
			sawRunning, sawRun, sawPhase, sawNode)
	}

	// Final /status: experiment done, run accounting matches the report.
	var final obs.Snapshot
	if err := getJSON(obsHTTP.URL+"/status", &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.RunsCompleted != rep.Completed ||
		final.RunsRetried != rep.Retried || final.RunsTotal != len(rep.Results) {
		t.Fatalf("final /status = %+v vs report completed=%d retried=%d",
			final, rep.Completed, rep.Retried)
	}

	// /metrics must tell the same story as the report's ControlSummary.
	cs := metrics.ControlSummary(rep)
	resp, err := http.Get(obsHTTP.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(body)
	for _, want := range []string{
		fmt.Sprintf("excovery_runs_completed_total %d", cs.Completed),
		fmt.Sprintf("excovery_run_attempts_total %d", cs.Attempts),
		fmt.Sprintf("excovery_health_probes_total %d", cs.HealthProbes),
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if cs.Retried > 0 &&
		!strings.Contains(exposition, fmt.Sprintf("excovery_runs_retried_total %d", cs.Retried)) {
		t.Errorf("/metrics retried series disagrees with summary %d", cs.Retried)
	}
	// The drops were real, and the instrumented clients counted them.
	var retries int64
	for _, c := range clients {
		retries += c.Stats().Retries
	}
	if retries == 0 {
		t.Fatal("no retries recorded — failpoints never fired?")
	}
	if got := reg.CounterTotal("excovery_rpc_client_retries_total"); got != retries {
		t.Fatalf("rpc retry counter = %d, client stats say %d", got, retries)
	}
	if reg.CounterTotal("excovery_eventbus_published_total") == 0 {
		t.Fatal("event bus instrumentation saw no events")
	}

	// Host-side endpoints: health and status documents are live too.
	if resp, err := http.Get(hostObsHTTP.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("host /healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	var hs HostStatus
	if err := getJSON(hostObsHTTP.URL+"/status", &hs); err != nil {
		t.Fatal(err)
	}
	if len(hs.Nodes) == 0 || !hs.MasterSet {
		t.Fatalf("host /status = %+v", hs)
	}
	if hostReg.CounterTotal("excovery_rpc_server_requests_total") == 0 {
		t.Fatal("host server instrumentation saw no requests")
	}

	// Every run's trace artifact reaches level 3 and covers the three
	// phases of every attempt that got past preflight.
	db, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range rep.Results {
		extras, err := db.ExtrasOfRun(rr.Run.ID)
		if err != nil {
			t.Fatal(err)
		}
		var spans []obs.Span
		for _, xm := range extras {
			if xm.Name == "trace.json" {
				spans, err = obs.UnmarshalSpans(xm.Content)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if spans == nil {
			t.Fatalf("run %d has no trace.json artifact", rr.Run.ID)
		}
		byID := map[uint64]obs.Span{}
		for _, sp := range spans {
			byID[sp.ID] = sp
		}
		for attempt := 1; attempt <= rr.Attempts; attempt++ {
			var runSpan *obs.Span
			for i := range spans {
				if spans[i].Cat == "run" && spans[i].Attempt == attempt {
					runSpan = &spans[i]
					break
				}
			}
			if runSpan == nil {
				t.Fatalf("run %d attempt %d: no run span", rr.Run.ID, attempt)
			}
			if runSpan.Args["seed"] == "" {
				t.Fatalf("run %d attempt %d: run span lacks seed annotation", rr.Run.ID, attempt)
			}
			phases := map[string]bool{}
			actions := 0
			for _, sp := range spans {
				if sp.Attempt != attempt {
					continue
				}
				if sp.Cat == "phase" && sp.Parent == runSpan.ID {
					phases[sp.Name] = true
				}
				if sp.Cat == "action" {
					actions++
				}
			}
			// Every attempt at least entered preparation; attempts that
			// passed preflight (always true for the final, successful one)
			// must show the full three-phase tree.
			want := []string{"prepare"}
			if phases["execute"] || attempt == rr.Attempts {
				want = []string{"prepare", "execute", "cleanup"}
			}
			for _, ph := range want {
				if !phases[ph] {
					t.Fatalf("run %d attempt %d: phase %q missing from span tree (have %v)",
						rr.Run.ID, attempt, ph, phases)
				}
			}
			if attempt == rr.Attempts && actions == 0 {
				t.Fatalf("run %d attempt %d: no action spans", rr.Run.ID, attempt)
			}
		}

		// The artifact converts to a loadable Chrome trace.
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(obs.ChromeTrace(spans), &doc); err != nil {
			t.Fatalf("run %d: chrome trace invalid: %v", rr.Run.ID, err)
		}
		if len(doc.TraceEvents) < len(spans) {
			t.Fatalf("run %d: chrome trace has %d events for %d spans",
				rr.Run.ID, len(doc.TraceEvents), len(spans))
		}
	}

	x.S.Stop()
	<-hostDone
}
