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
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("excovery-master", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		hostURL    = fs.String("host", "http://127.0.0.1:8800", "node host XML-RPC endpoint (static wiring; ignored with -registry)")
		registry   = fs.String("registry", "", "discovery registry XML-RPC endpoint: claim node hosts from the registry instead of -host, and replace dead hosts mid-campaign")
		region     = fs.String("region", "", "preferred placement region when claiming hosts from -registry")
		listen     = fs.String("listen", ":8801", "this master's event endpoint listen address")
		builtin    = fs.String("builtin", "", "embedded description: "+strings.Join(desc.Builtins(), ", "))
		reps       = fs.Int("reps", 0, "override the replication count")
		speed      = fs.Float64("speed", 0.01, "real-time pacing factor")
		storeDir   = fs.String("store", "", "level-2 storage directory")
		dbPath     = fs.String("db", "", "write the level-3 database here (requires -store)")
		resume     = fs.Bool("resume", false, "skip runs already marked done in -store; with -journal, crashed runs are discarded and re-executed")
		journal    = fs.Bool("journal", true, "write-ahead run journal in -store (requires -store; ignored without one)")
		maxAtt     = fs.Int("max-attempts", 1, "run-level retry: attempts per run before it is recorded failed")
		leaseTTL   = fs.Duration("lease-ttl", 15*time.Second, "session lease granted to the node host, renewed from a heartbeat; 0 registers without a lease")
		crashAt    = fs.Int("crash-after", 0, "crash the process (exit 3) at the Nth run attempt, after its journal record — durability testing (0 disables)")
		allowFail  = fs.Bool("allow-failed", false, "exit zero even when runs failed or aborted")
		rpcRetries = fs.Int("rpc-retries", 4, "control-channel RPC attempts per call")
		rpcTimeout = fs.Duration("rpc-timeout", 30*time.Second, "control-channel per-attempt timeout")
		rpcSeed    = fs.Int64("rpc-seed", 1, "seed of the retry-backoff jitter PRNG (replayable schedules)")
		obsAddr    = fs.String("obs-addr", "", "serve /metrics, /healthz, /status and pprof on this address (empty disables)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: excovery-master [flags] [description.xml]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	if *dbPath != "" && *storeDir == "" {
		return fail(fmt.Errorf("-db requires -store"))
	}

	e, err := desc.Load(*builtin, fs.Arg(0))
	if err != nil {
		return fail(err)
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
			return fail(err)
		}
		defer osrv.Close()
		fmt.Fprintf(stdout, "excovery-master: observability endpoints at http://%s\n", osrv.Addr())
	}

	// Event endpoint for node pushes.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	defer ln.Close()
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
			MasterID:  noderpc.NewID("m-"),
			MasterURL: selfURL,
			Region:    *region,
			LeaseTTL:  *leaseTTL,
			NewClient: dial,
			Obs:       reg,
			OnHostChange: func(event, hostID string) {
				fmt.Fprintf(stdout, "excovery-master: fleet %s -> host %s\n", event, hostID)
			},
		}
		if err := fleet.Connect(); err != nil {
			return fail(err)
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
		fmt.Fprintf(stdout, "excovery-master: session %s claimed host %s (%s, epoch %d) via registry %s, events at %s\n",
			fleet.MasterID, active.ID, active.URL, active.Epoch, *registry, selfURL)
	} else {
		// Static wiring: one host, no registry — the graceful-degradation
		// fallback. The fleet machinery is bypassed entirely.
		hostClient := newClient()
		if _, err := hostClient.Call("host.ping"); err != nil {
			return fail(fmt.Errorf("node host unreachable: %w", err))
		}
		// Register under a fresh session id. With a lease TTL the host tracks
		// this master's liveness: a heartbeat renews the lease, a silent master
		// is dropped at the deadline, and a restarted master (new session id)
		// simply re-adopts the host — no manual node restart needed. The
		// heartbeat also heals a restarted node host: its refused renewal
		// triggers re-registration.
		if *leaseTTL > 0 {
			lease := &noderpc.Lease{C: hostClient, MasterURL: selfURL,
				Session: noderpc.NewID("m-"), TTL: *leaseTTL, Obs: reg}
			if err := lease.Register(); err != nil {
				return fail(err)
			}
			lease.Start()
			defer lease.Stop()
			fmt.Fprintf(stdout, "excovery-master: session %s, lease ttl %s\n", lease.Session, *leaseTTL)
		} else if _, err := hostClient.Call("host.set_master", selfURL); err != nil {
			return fail(err)
		}
		nodes, err := noderpc.FetchNodes(hostClient, 5, 500*time.Millisecond)
		if err != nil {
			return fail(err)
		}
		handles = map[string]master.NodeHandle{}
		for _, id := range nodes {
			handles[id] = &noderpc.RemoteNode{NodeID: id, C: newClient()}
		}
		env = &noderpc.RemoteEnv{C: newClient()}
		fmt.Fprintf(stdout, "excovery-master: %d remote nodes at %s, events at %s\n",
			len(handles), *hostURL, selfURL)
	}
	var st *store.RunStore
	var jnl *store.Journal
	if *storeDir != "" {
		st, err = store.NewRunStore(*storeDir)
		if err != nil {
			return fail(err)
		}
		if *journal {
			jnl, err = store.OpenJournal(*storeDir)
			if err != nil {
				return fail(err)
			}
			defer func() {
				if err := jnl.Close(); err != nil {
					fmt.Fprintln(stderr, "journal close:", err)
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
		// The XML-RPC node proxies are goroutine-safe: fan out fully.
		Fanout:     len(handles),
		Env:        env,
		Fleet:      fleetMgr,
		Store:      st,
		Journal:    jnl,
		Resume:     *resume,
		Failpoints: fp,
		Retry:      master.RetryPolicy{MaxAttempts: *maxAtt},
		CrashFn: func() {
			fmt.Fprintln(stderr, "excovery-master: crash failpoint fired, exiting hard")
			os.Exit(3)
		},
		Tracer: tracer, Status: status, Metrics: reg,
		OnRunDone: func(run desc.Run, rr master.RunResult) {
			fmt.Fprintf(stdout, "run %4d done in %s (attempts=%d timeouts=%d err=%v)\n",
				run.ID, rr.Duration.Round(time.Millisecond), rr.Attempts, rr.Timeouts, rr.Err)
		},
	})
	if err != nil {
		return fail(err)
	}

	var rep *master.Report
	var runErr error
	s.Go("experimaster", func() { rep, runErr = m.RunAll() })
	if err := s.Run(); err != nil {
		return fail(err)
	}
	if runErr != nil {
		return fail(runErr)
	}
	fmt.Fprintf(stdout, "experiment %q: %d/%d runs completed (%d skipped, %d failed, %d recovered)\n",
		e.Name, rep.Completed, len(rep.Results), rep.Skipped, rep.Failed, rep.Recovered)
	cs := metrics.ControlSummary(rep)
	fmt.Fprintf(stdout, "control channel: %d attempts for %d runs, %d retried, %d partial harvests, "+
		"%d/%d health probes failed\n",
		cs.Attempts, cs.Runs, cs.Retried, cs.Partial,
		cs.HealthFailures, cs.HealthProbes)

	ms := metrics.FromReport(e, rep, "", "")
	trs := metrics.TRs(ms)
	if len(trs) > 0 {
		sum := metrics.Summarize(metrics.DurationsToSeconds(trs))
		fmt.Fprintf(stdout, "t_R: mean=%.4fs p90=%.4fs over %d complete runs\n", sum.Mean, sum.P90, sum.N)
	}
	if *dbPath != "" {
		db, err := m.Finalize()
		if err != nil {
			return fail(err)
		}
		if err := db.Save(*dbPath); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "level-3 database written to %s\n", *dbPath)
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
			fmt.Fprintf(stderr, "error: %d runs failed (%d aborted); pass -allow-failed to exit zero anyway\n",
				rep.Failed, aborted)
			return 1
		}
	}
	return 0
}
