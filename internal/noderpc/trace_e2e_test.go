package noderpc

import (
	"encoding/json"
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

	"net/http/httptest"
)

// TestTracePropagationAndFanIn is the acceptance scenario of the
// cross-process data-path observability: a distributed experiment must
// produce, for every run, (a) one merged trace.json whose host-side RPC
// spans parent under the master's span tree via the call's trace-parent
// metadata, rendering as separate per-process tracks in the Chrome
// export, and (b) a campaign_metrics.json fan-in artifact carrying the
// host's emulator metrics, re-exported into the master's registry.
func TestTracePropagationAndFanIn(t *testing.T) {
	e := desc.OneShot(30)
	e.Repl.Count = 2

	// --- node host, with the emulator data path instrumented ---
	var host *Host
	hostReg := obs.NewRegistry()
	x, err := core.New(e, core.Options{
		RealTime: true,
		Speed:    0.002,
		OnEvent:  func(ev eventlog.Event) { host.ForwardEvent(ev) },
		Metrics:  hostReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	host = NewHost(x)
	defer host.Close()
	host.Instrument(hostReg)

	hostHTTP := httptest.NewServer(host.Server())
	defer hostHTTP.Close()
	x.S.SetKeepAlive(true)
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()
	defer x.S.Stop()

	// --- master ---
	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(0.002)
	bus := eventlog.NewBus(ms)
	reg := obs.NewRegistry()
	status := obs.NewStatus(nil)
	tracer := obs.NewTracer(ms.Now)
	masterHTTP := httptest.NewServer(MasterServer(ms, bus))
	defer masterHTTP.Close()

	policy := xmlrpc.RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Seed:        3,
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
	var nodeIDs []string
	for _, v := range nodesV.([]any) {
		id := v.(string)
		nodeIDs = append(nodeIDs, id)
		handles[id] = &RemoteNode{NodeID: id,
			C: xmlrpc.NewRetryingClient(hostHTTP.URL, policy)}
	}
	if len(nodeIDs) == 0 {
		t.Fatal("host serves no nodes")
	}

	st, err := store.NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus, Nodes: handles,
		Fanout: len(handles),
		Env:    &RemoteEnv{C: xmlrpc.NewRetryingClient(hostHTTP.URL, policy)},
		Store:  st,
		Tracer: tracer, Status: status, Metrics: reg,
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
		t.Fatalf("completed %d/%d runs", rep.Completed, len(rep.Results))
	}

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
		var campaign []byte
		for _, xm := range extras {
			switch xm.Name {
			case "trace.json":
				if spans, err = obs.UnmarshalSpans(xm.Content); err != nil {
					t.Fatal(err)
				}
			case "campaign_metrics.json":
				campaign = xm.Content
			}
		}
		if spans == nil {
			t.Fatalf("run %d: no trace.json", rr.Run.ID)
		}

		// The merged trace carries both processes.
		byID := map[uint64]obs.Span{}
		masterSpans, hostSpans := 0, 0
		for _, sp := range spans {
			byID[sp.ID] = sp
			switch {
			case sp.Track == "master":
				masterSpans++
			case strings.HasPrefix(sp.Track, "host"):
				hostSpans++
			}
		}
		if masterSpans == 0 || hostSpans == 0 {
			t.Fatalf("run %d: merged trace has %d master and %d host spans",
				rr.Run.ID, masterSpans, hostSpans)
		}

		// Cross-RPC parent links: the one host call of each broadcast phase
		// names every node and parents under the master's rpc span of that
		// call ("prepare A,B"), time sync is one call per sample, and host
		// execute spans parent under the master's execute phase span.
		group := strings.Join(nodeIDs, ",")
		wantParent := map[string]string{
			"node.prepare_run": "rpc prepare " + group,
			"node.local_time":  "rpc timesync " + group,
			"node.cleanup_run": "rpc cleanup " + group,
			"node.execute":     "phase execute",
		}
		linked := map[string]int{}
		for _, sp := range spans {
			want, checked := wantParent[sp.Name]
			if !strings.HasPrefix(sp.Track, "host") || !checked {
				continue
			}
			parent, ok := byID[sp.Parent]
			if got := parent.Cat + " " + parent.Name; !ok || parent.Track != "master" || got != want {
				t.Fatalf("run %d: host span %q parent=%d is %q, want the master's %q",
					rr.Run.ID, sp.Name, sp.Parent, got, want)
			}
			linked[sp.Name]++
		}
		for method, n := range map[string]int{"node.prepare_run": 1,
			"node.local_time": 3, "node.cleanup_run": 1} {
			if linked[method] != n {
				t.Fatalf("run %d: %d linked %s host spans, want %d (one per host call)",
					rr.Run.ID, linked[method], method, n)
			}
		}
		if linked["node.execute"] == 0 {
			t.Fatalf("run %d: no host execute spans linked under the execute phase", rr.Run.ID)
		}

		// The Chrome export keeps the processes on separate tracks.
		var doc struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Ph   string            `json:"ph"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(obs.ChromeTrace(spans), &doc); err != nil {
			t.Fatal(err)
		}
		lanes := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "M" && ev.Name == "thread_name" {
				lanes[ev.Args["name"]] = true
			}
		}
		hostLane := false
		for name := range lanes {
			if strings.HasPrefix(name, "host") {
				hostLane = true
			}
		}
		if !lanes["master"] || !hostLane {
			t.Fatalf("run %d: chrome trace lanes = %v, want master + host", rr.Run.ID, lanes)
		}

		// Fan-in artifact: the host's emulator metrics arrived.
		if campaign == nil {
			t.Fatalf("run %d: no campaign_metrics.json", rr.Run.ID)
		}
		var cd struct {
			Run     int `json:"run"`
			Sources map[string]struct {
				Nodes  []string          `json:"nodes"`
				Points []obs.MetricPoint `json:"points"`
			} `json:"sources"`
			Fleet map[string]float64 `json:"fleet"`
		}
		if err := json.Unmarshal(campaign, &cd); err != nil {
			t.Fatalf("run %d: campaign_metrics.json: %v", rr.Run.ID, err)
		}
		if cd.Run != rr.Run.ID || len(cd.Sources) != 1 {
			t.Fatalf("run %d: campaign doc run=%d sources=%d", rr.Run.ID, cd.Run, len(cd.Sources))
		}
		for _, src := range cd.Sources {
			if len(src.Nodes) != len(nodeIDs) {
				t.Fatalf("run %d: source reports %d nodes, want %d",
					rr.Run.ID, len(src.Nodes), len(nodeIDs))
			}
		}
		if cd.Fleet["netem_packets_sent_total"] <= 0 {
			t.Fatalf("run %d: fleet rollup missing emulator series: %v", rr.Run.ID, cd.Fleet)
		}
	}

	// The fan-in also re-exported into the master's live registry.
	if got := reg.CounterTotal(obs.MCampaignFanins); got != int64(rep.Completed) {
		t.Fatalf("fan-ins = %d, want %d", got, rep.Completed)
	}
	found := false
	for _, p := range reg.Snapshot() {
		if strings.HasPrefix(p.Name, obs.MNodePrefix+"netem_") && p.Value > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("master registry has no re-exported excovery_node_netem_* series")
	}
	if status.Snapshot().NodesReporting != 1 {
		t.Fatalf("status nodes_reporting = %d, want 1", status.Snapshot().NodesReporting)
	}

	x.S.Stop()
	<-hostDone
}
