package discovery_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/discovery"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/fault"
	"excovery/internal/master"
	"excovery/internal/noderpc"
	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// fleetHost is one live node host: emulated platform, RPC server (with a
// failpoint registry so tests can partition it), and registry agent. With
// no registry URL there is no agent: the test registers the host itself.
type fleetHost struct {
	host  *noderpc.Host
	http  *httptest.Server
	fp    *failpoint.Registry
	agent *discovery.Agent
	stop  func()
}

func startFleetHost(t *testing.T, regURL, hostID string, seed int64) *fleetHost {
	t.Helper()
	var host *noderpc.Host
	x, err := core.New(desc.OneShot(30), core.Options{
		RealTime: true,
		Speed:    0.002,
		OnEvent:  func(ev eventlog.Event) { host.ForwardEvent(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	host = noderpc.NewHost(x)
	srv := host.Server()
	fp := failpoint.New(seed)
	srv.FP = fp
	ts := httptest.NewServer(srv)
	x.S.SetKeepAlive(true)
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()

	fh := &fleetHost{host: host, http: ts, fp: fp}
	if regURL != "" {
		ids := make([]string, 0, len(x.Managers))
		for id := range x.Managers {
			ids = append(ids, id)
		}
		fh.agent = &discovery.Agent{
			C:         xmlrpc.NewClient(regURL),
			HostID:    hostID,
			URL:       ts.URL,
			Nodes:     ids,
			Heartbeat: 100 * time.Millisecond,
			Epoch:     host.FenceEpoch,
		}
		if err := fh.agent.Start(); err != nil {
			t.Fatal(err)
		}
	}
	fh.stop = func() {
		if fh.agent != nil {
			fh.agent.Stop()
		}
		host.Close()
		x.S.Stop()
		<-hostDone
		ts.Close()
	}
	t.Cleanup(fh.stop)
	return fh
}

// TestCampaignSurvivesHostDeath is the tentpole acceptance scenario: two
// node hosts register with a discovery registry, a master claims both and
// runs a campaign on the first; mid-campaign the active host is
// partitioned away (a control-plane kill). The campaign must complete by
// re-placing the dead host's runs onto the survivor, the journal must
// show exactly one re-executed attempt and durable completion for every
// run, and the displaced host's fencing epoch must keep refusing the
// stale master after the heal.
func TestCampaignSurvivesHostDeath(t *testing.T) {
	reg := discovery.NewRegistry()
	regHTTP := httptest.NewServer(reg.Server())
	defer regHTTP.Close()

	a := startFleetHost(t, regHTTP.URL, "h-aaa", 11)
	b := startFleetHost(t, regHTTP.URL, "h-bbb", 12)

	// --- master over the fleet ---
	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(0.002)
	bus := eventlog.NewBus(ms)
	masterHTTP := httptest.NewServer(noderpc.MasterServer(ms, bus))
	defer masterHTTP.Close()

	policy := xmlrpc.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        5,
	}
	mreg := obs.NewRegistry()
	fleet := &discovery.Fleet{
		Reg:            xmlrpc.NewClient(regHTTP.URL),
		MasterID:       noderpc.NewID("m-"),
		MasterURL:      masterHTTP.URL,
		LeaseTTL:       time.Hour,
		NewClient:      func(url string) *xmlrpc.Client { return xmlrpc.NewRetryingClient(url, policy) },
		ReplaceTimeout: 10 * time.Second,
		Poll:           50 * time.Millisecond,
		Obs:            mreg,
	}
	if err := fleet.Connect(); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if got := fleet.ActiveHost().ID; got != "h-aaa" {
		t.Fatalf("active host = %s, want h-aaa (deterministic claim order)", got)
	}

	e := desc.OneShot(30)
	e.Repl.Count = 6
	dir := t.TempDir()
	st, err := store.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	part := fault.NewRPCPartition(a.fp)
	killed := false
	placed := fleet.Placement()
	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus,
		Nodes:   placed.Nodes,
		Env:     placed.Env,
		Store:   st,
		Journal: j,
		Retry:   master.RetryPolicy{MaxAttempts: 3},
		Fleet:   fleet,
		Metrics: mreg,
		OnRunDone: func(run desc.Run, rr master.RunResult) {
			// Run boundary two: the active host drops off the network —
			// its RPC server stops answering and its registry heartbeats
			// cease, exactly as if the machine lost power.
			if !killed && rr.Attempts > 0 && run.ID == e.Repl.Count/2 {
				killed = true
				a.agent.Stop()
				part.Start()
			}
		},
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
	if !killed {
		t.Fatal("kill hook never fired")
	}

	// The campaign completed despite losing its backing host mid-flight.
	if rep.Completed != len(rep.Results) || rep.Completed != 6 {
		t.Fatalf("completed %d/%d runs across the host death", rep.Completed, len(rep.Results))
	}
	if got := fleet.ActiveHost().ID; got != "h-bbb" {
		t.Fatalf("active host after failover = %s, want h-bbb", got)
	}
	if st := b.host.Status(); !st.MasterSet || st.Session != fleet.MasterID {
		t.Fatalf("survivor host not adopted by the master: %+v", st)
	}
	if got := mreg.CounterTotal(obs.MMasterFailovers); got != 1 {
		t.Fatalf("failover counter = %d, want 1", got)
	}

	// Exactly-once re-execution: re-open the journal the way a resuming
	// master would — it must show every run durably done, exactly one run
	// needing a second attempt (the one the death interrupted), and
	// nothing left in doubt.
	j.Close()
	j2, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rp := j2.Replay()
	retriedRuns := 0
	for _, rr := range rep.Results {
		id := rr.Run.ID
		if !rp.Done[id] {
			t.Errorf("run %d has no durable completion record", id)
		}
		if rp.InDoubt(id) {
			t.Errorf("run %d left in doubt", id)
		}
		if rp.Attempts[id] > 1 {
			retriedRuns++
			if rp.Attempts[id] != 2 {
				t.Errorf("run %d took %d attempts, want 2", id, rp.Attempts[id])
			}
		}
	}
	if retriedRuns != 1 {
		t.Fatalf("%d runs were re-executed, want exactly the interrupted one", retriedRuns)
	}

	// Fencing: heal the partition — the displaced host is reachable again
	// but was claimed at epoch 1, which the failover outgrew. Its own
	// state still refuses the stale epoch, and the survivor (claimed at a
	// higher epoch) refuses anything older.
	part.Stop()
	staleEpoch := 1
	if _, err := xmlrpc.NewClient(b.http.URL).CallMeta("host.set_master",
		xmlrpc.Meta{FenceEpoch: int64(staleEpoch)},
		"http://stale-master", "s-stale", 60000); err == nil {
		t.Fatal("survivor accepted a set_master from a fenced epoch")
	} else if !strings.Contains(err.Error(), "stale epoch") {
		t.Fatalf("stale set_master refused with the wrong error: %v", err)
	}
	rn := &noderpc.RemoteNode{NodeID: "A", C: xmlrpc.NewClient(b.http.URL)}
	rn.SetFenceEpoch(int64(staleEpoch))
	rn.PrepareRun(99)
	if err := rn.Err(); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("data-path RPC under a stale epoch = %v, want fenced refusal", err)
	}
	if st := b.host.Status(); st.FencedRejections == 0 {
		t.Fatalf("survivor recorded no fenced rejections: %+v", st)
	}

	// The artifacts are real: every run reaches level 3.
	db, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range rep.Results {
		evs, err := db.EventsOfRun(rr.Run.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 {
			t.Fatalf("run %d committed no events", rr.Run.ID)
		}
	}
}

// TestRegistryPartitionHealRebuild is the crash-tolerance scenario for
// the registry itself: a host's heartbeats are cut off until its
// registration lease expires, then the partition heals. The agent's next
// refused heartbeat must fall back to a full re-registration, the
// registry's fleet view must rebuild, and the host must be claimable
// again — all without restarting anything.
func TestRegistryPartitionHealRebuild(t *testing.T) {
	reg := discovery.NewRegistry()
	srv := reg.Server()
	fp := failpoint.New(3)
	srv.FP = fp
	regHTTP := httptest.NewServer(srv)
	defer regHTTP.Close()

	agent := &discovery.Agent{
		C:         xmlrpc.NewClient(regHTTP.URL),
		HostID:    "h-part",
		URL:       "http://127.0.0.1:1",
		Nodes:     []string{"A"},
		TTL:       300 * time.Millisecond,
		Heartbeat: 60 * time.Millisecond,
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()

	part := fault.NewRPCPartition(fp)
	part.Start()
	waitFor(t, "registration lease expiry", func() bool {
		snap := reg.Snapshot()
		return len(snap) == 1 && !snap[0].Alive
	})

	part.Stop()
	waitFor(t, "re-registration after heal", func() bool {
		_, rebinds, _ := agent.Stats()
		snap := reg.Snapshot()
		return rebinds >= 1 && len(snap) == 1 && snap[0].Alive
	})
	if got := reg.Claim("m-1", 0, ""); len(got) != 1 || got[0].ID != "h-part" {
		t.Fatalf("healed host not claimable: %+v", got)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
