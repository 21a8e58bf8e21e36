// Command excovery-master is the controlling half of the distributed
// deployment (Fig. 12): it connects to an excovery-node host over XML-RPC,
// registers its own event endpoint, generates the treatment plan and
// executes the experiment remotely — every process action becomes a
// synchronous RPC, like the prototype's xmlrpclib-based ExperiMaster.
//
// Usage (with an excovery-node running on :8800):
//
//	excovery-master -host http://127.0.0.1:8800 -listen :8801 -builtin oneshot
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"excovery/internal/desc"
	"excovery/internal/discovery"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/master"
	"excovery/internal/metrics"
	"excovery/internal/noderpc"
	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

func main() {
	var (
		hostURL    = flag.String("host", "http://127.0.0.1:8800", "node host XML-RPC endpoint (static wiring; ignored with -registry)")
		registry   = flag.String("registry", "", "discovery registry XML-RPC endpoint: claim node hosts from the registry instead of -host, and replace dead hosts mid-campaign")
		region     = flag.String("region", "", "preferred placement region when claiming hosts from -registry")
		listen     = flag.String("listen", ":8801", "this master's event endpoint listen address")
		builtin    = flag.String("builtin", "", "embedded description: "+strings.Join(desc.Builtins(), ", "))
		reps       = flag.Int("reps", 0, "override the replication count")
		speed      = flag.Float64("speed", 0.01, "real-time pacing factor")
		storeDir   = flag.String("store", "", "level-2 storage directory")
		dbPath     = flag.String("db", "", "write the level-3 database here (requires -store)")
		resume     = flag.Bool("resume", false, "skip runs already marked done in -store; with -journal, crashed runs are discarded and re-executed")
		journal    = flag.Bool("journal", true, "write-ahead run journal in -store (requires -store; ignored without one)")
		maxAtt     = flag.Int("max-attempts", 1, "run-level retry: attempts per run before it is recorded failed")
		quarantine = flag.Int("quarantine-after", 3, "quarantine a node after this many consecutive control-channel failures (0 disables)")
		probation  = flag.Int("probation", 0, "re-admit a quarantined node after this many consecutive healthy probes (0: quarantine is permanent)")
		leaseTTL   = flag.Duration("lease-ttl", 15*time.Second, "session lease granted to the node host, renewed from a heartbeat; 0 registers without a lease")
		crashAt    = flag.Int("crash-after", 0, "crash the process (exit 3) at the Nth run attempt, after its journal record — durability testing (0 disables)")
		allowFail  = flag.Bool("allow-failed", false, "exit zero even when runs failed or aborted")
		rpcRetries = flag.Int("rpc-retries", 4, "control-channel RPC attempts per call")
		rpcTimeout = flag.Duration("rpc-timeout", 30*time.Second, "control-channel per-attempt timeout")
		rpcSeed    = flag.Int64("rpc-seed", 1, "seed of the retry-backoff jitter PRNG (replayable schedules)")
		fanout     = flag.Int("fanout", 0, "concurrent per-node control-channel operations during the broadcast phases (0: number of nodes, 1: sequential)")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /healthz, /status and pprof on this address (empty disables)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: excovery-master [flags] [description.xml]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	e, err := desc.Load(*builtin, flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *reps > 0 {
		e.Repl.Count = *reps
	}

	s := sched.New(sched.RealTime, time.Unix(0, 0))
	s.SetSpeed(*speed)
	bus := eventlog.NewBus(s)

	// Observability: metrics registry, live status and execution tracer.
	// All are active regardless of -obs-addr (the tracer feeds the per-run
	// trace.json artifact); the flag only controls the HTTP listener.
	reg := obs.NewRegistry()
	status := obs.NewStatus(nil)
	tracer := obs.NewTracer(s.Now)
	bus.Instrument(reg)
	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, reg, func() any { return status.Snapshot() })
		if err != nil {
			fatal(err)
		}
		defer osrv.Close()
		fmt.Printf("excovery-master: observability endpoints at http://%s\n", osrv.Addr())
	}

	// Event endpoint for node pushes.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	go http.Serve(ln, noderpc.MasterServer(s, bus))
	selfURL := "http://" + ln.Addr().String()

	rpcPolicy := xmlrpc.RetryPolicy{
		MaxAttempts: *rpcRetries,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Timeout:     *rpcTimeout,
		Seed:        *rpcSeed,
	}
	dial := func(url string) *xmlrpc.Client {
		c := xmlrpc.NewRetryingClient(url, rpcPolicy)
		c.Obs = reg
		return c
	}
	newClient := func() *xmlrpc.Client { return dial(*hostURL) }
	var handles map[string]master.NodeHandle
	var env master.EnvExecutor
	var fleetMgr master.FleetManager
	if *registry != "" {
		// Registry wiring (DESIGN.md §14): claim node hosts from the
		// discovery registry under a fencing epoch. The first claim backs
		// the campaign, the rest stay warm spares; when the active host
		// dies mid-campaign, the fleet re-places the run's nodes on a
		// survivor (or a host that joined since) and the run replays from
		// its derived seed.
		fleet := &discovery.Fleet{
			Reg:       dial(*registry),
			MasterID:  noderpc.NewSessionID(),
			MasterURL: selfURL,
			Region:    *region,
			LeaseTTL:  *leaseTTL,
			NewClient: dial,
			Obs:       reg,
			OnHostChange: func(event, hostID string) {
				fmt.Printf("excovery-master: fleet %s -> host %s\n", event, hostID)
			},
		}
		if err := fleet.Connect(); err != nil {
			fatal(err)
		}
		defer fleet.Close()
		placed := fleet.Placement()
		handles, env = placed.Nodes, placed.Env
		fleetMgr = fleet
		if *maxAtt < 2 {
			// A failover only helps if a further attempt lands on the
			// replacement host.
			*maxAtt = 2
		}
		active := fleet.ActiveHost()
		fmt.Printf("excovery-master: session %s claimed host %s (%s, epoch %d) via registry %s, events at %s\n",
			fleet.MasterID, active.ID, active.URL, active.Epoch, *registry, selfURL)
	} else {
		// Static wiring: one host, no registry — the graceful-degradation
		// fallback. The fleet machinery is bypassed entirely.
		hostClient := newClient()
		if _, err := hostClient.Call("host.ping"); err != nil {
			fatal(fmt.Errorf("node host unreachable: %w", err))
		}
		// Register under a fresh session id. With a lease TTL the host tracks
		// this master's liveness: a heartbeat renews the lease, a silent master
		// is dropped at the deadline, and a restarted master (new session id)
		// simply re-adopts the host — no manual node restart needed. The
		// heartbeat also heals a restarted node host: its refused renewal
		// triggers re-registration.
		if *leaseTTL > 0 {
			lease := &noderpc.Lease{C: hostClient, MasterURL: selfURL,
				Session: noderpc.NewSessionID(), TTL: *leaseTTL, Obs: reg}
			if err := lease.Register(); err != nil {
				fatal(err)
			}
			lease.Start()
			defer lease.Stop()
			fmt.Printf("excovery-master: session %s, lease ttl %s\n", lease.Session, *leaseTTL)
		} else if _, err := hostClient.Call("host.set_master", selfURL); err != nil {
			fatal(err)
		}
		nodes, err := noderpc.FetchNodes(hostClient, 5, 500*time.Millisecond)
		if err != nil {
			fatal(err)
		}
		handles = map[string]master.NodeHandle{}
		for _, id := range nodes {
			handles[id] = &noderpc.RemoteNode{NodeID: id, C: newClient()}
		}
		env = &noderpc.RemoteEnv{C: newClient()}
		fmt.Printf("excovery-master: %d remote nodes at %s, events at %s\n",
			len(handles), *hostURL, selfURL)
	}
	// The XML-RPC node proxies are goroutine-safe, so the distributed
	// master defaults to full fan-out across the nodes.
	fo := *fanout
	if fo <= 0 {
		fo = len(handles)
	}

	var st *store.RunStore
	var jnl *store.Journal
	if *storeDir != "" {
		st, err = store.NewRunStore(*storeDir)
		if err != nil {
			fatal(err)
		}
		if *journal {
			jnl, err = store.OpenJournal(*storeDir)
			if err != nil {
				fatal(err)
			}
			defer func() {
				if err := jnl.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "journal close:", err)
				}
			}()
		}
	}

	var fp *failpoint.Registry
	if *crashAt > 0 {
		fp = failpoint.New(1)
		fp.Enable(failpoint.SiteMasterAttempt, failpoint.Rule{
			Prob: 1, Act: failpoint.Crash, Skip: *crashAt - 1, Count: 1})
	}

	m, err := master.New(master.Config{
		Exp: e, S: s, Bus: bus, Nodes: handles,
		Fanout:     fo,
		Env:        env,
		Fleet:      fleetMgr,
		Store:      st,
		Journal:    jnl,
		Resume:     *resume,
		Failpoints: fp,
		Retry: master.RetryPolicy{MaxAttempts: *maxAtt,
			QuarantineAfter: *quarantine, ProbationProbes: *probation},
		CrashFn: func() {
			fmt.Fprintln(os.Stderr, "excovery-master: crash failpoint fired, exiting hard")
			os.Exit(3)
		},
		Tracer: tracer, Status: status, Metrics: reg,
		OnRunDone: func(run desc.Run, rr master.RunResult) {
			fmt.Printf("run %4d done in %s (attempts=%d timeouts=%d err=%v)\n",
				run.ID, rr.Duration.Round(time.Millisecond), rr.Attempts, rr.Timeouts, rr.Err)
		},
	})
	if err != nil {
		fatal(err)
	}

	var rep *master.Report
	var runErr error
	s.Go("experimaster", func() { rep, runErr = m.RunAll() })
	if err := s.Run(); err != nil {
		fatal(err)
	}
	if runErr != nil {
		fatal(runErr)
	}
	fmt.Printf("experiment %q: %d/%d runs completed (%d skipped, %d failed, %d recovered)\n",
		e.Name, rep.Completed, len(rep.Results), rep.Skipped, rep.Failed, rep.Recovered)
	cs := metrics.ControlSummary(rep)
	fmt.Printf("control channel: %d attempts for %d runs, %d retried, %d partial harvests, "+
		"%d/%d health probes failed, quarantined=%v readmitted=%v\n",
		cs.Attempts, cs.Runs, cs.Retried, cs.Partial,
		cs.HealthFailures, cs.HealthProbes, cs.Quarantined, cs.Readmitted)

	ms := metrics.FromReport(e, rep, "", "")
	trs := metrics.TRs(ms)
	if len(trs) > 0 {
		sum := metrics.Summarize(metrics.DurationsToSeconds(trs))
		fmt.Printf("t_R: mean=%.4fs p90=%.4fs over %d complete runs\n", sum.Mean, sum.P90, sum.N)
	}
	if *dbPath != "" && st != nil {
		db, err := m.Finalize()
		if err != nil {
			fatal(err)
		}
		if err := db.Save(*dbPath); err != nil {
			fatal(err)
		}
		fmt.Printf("level-3 database written to %s\n", *dbPath)
	}

	// Like excovery-run: incomplete data fails the invocation unless the
	// caller explicitly accepts it.
	if !*allowFail {
		aborted := 0
		for _, rr := range rep.Results {
			if rr.Aborted {
				aborted++
			}
		}
		if rep.Failed > 0 || aborted > 0 {
			fmt.Fprintf(os.Stderr, "error: %d runs failed (%d aborted); pass -allow-failed to exit zero anyway\n",
				rep.Failed, aborted)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
