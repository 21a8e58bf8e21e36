// Command excovery-run executes an experiment description end to end on
// the emulated platform: it generates the treatment plan, runs every run
// (preparation → execution → clean-up), records events and packets into
// the level-2 store, conditions them into a level-3 database and prints a
// summary with discovery metrics.
//
// Usage:
//
//	excovery-run -builtin oneshot
//	excovery-run -store /tmp/exp1 -db /tmp/exp1.xcdb descriptions/exp-a-load.xml
//	excovery-run -builtin casestudy -reps 50 -topo grid -gridwidth 3
//
// The description configures the platform through its EE parameters
// (topology, link quality, radio rate; see core.Options). The platform
// flags -topo, -gridwidth, -loss, -delay and -proto override them only
// when given, and are written into the description before it runs, so
// the level-3 database stores the document that was actually executed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/failpoint"
	"excovery/internal/master"
	"excovery/internal/metrics"
	"excovery/internal/netem"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("excovery-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin   = fs.String("builtin", "", "run an embedded description: "+strings.Join(desc.Builtins(), ", "))
		reps      = fs.Int("reps", 0, "override the replication count")
		storeDir  = fs.String("store", "", "level-2 storage directory (default: none)")
		dbPath    = fs.String("db", "", "write the level-3 database to this file")
		topo      = fs.String("topo", "", "override the topology eeparam: full, chain, grid, geometric (default full)")
		gridWidth = fs.Int("gridwidth", 0, "override the grid_width eeparam (-topo grid)")
		loss      = fs.Float64("loss", 0, "override the link_loss eeparam: per-link loss probability (default 0.01)")
		delayMs   = fs.Float64("delay", 0, "override the link_delay_ms eeparam, and link_jitter_ms with half of it (default 1 ms, 0.5 ms jitter)")
		proto     = fs.String("proto", "", "override the sd_protocol parameter: zeroconf, scmdir or hybrid")
		seed      = fs.Int64("seed", 0, "override the experiment seed")
		resume    = fs.Bool("resume", false, "skip runs already marked done in -store")
		journal   = fs.Bool("journal", true, "write-ahead run journal in -store: crashed runs are detected and re-executed on -resume (requires -store; ignored without one)")
		maxAtt    = fs.Int("max-attempts", 1, "run-level retry: attempts per run before it is recorded failed")
		crashAt   = fs.Int("crash-after", 0, "crash the process (exit 3) at the Nth run attempt, after its journal record — durability testing (0 disables)")
		allowFail = fs.Bool("allow-failed", false, "exit zero even when runs failed or aborted")
		verbose   = fs.Bool("v", false, "print per-run results")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: excovery-run [flags] [description.xml]\n")
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
	// Only the platform flags given on the command line override the
	// description, and they are written into it, so the stored document
	// (level 3's ExpXML) says which platform the runs really had.
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "topo":
			e.SetEEParam("topology", *topo)
		case "gridwidth":
			e.SetEEParam("grid_width", strconv.Itoa(*gridWidth))
		case "loss":
			e.SetEEParam("link_loss", num(*loss))
		case "delay":
			e.SetEEParam("link_delay_ms", num(*delayMs))
			e.SetEEParam("link_jitter_ms", num(*delayMs/2))
		case "proto":
			e.SetParam("sd_protocol", *proto)
		}
	})

	opts := core.Options{
		Seed:        *seed,
		StoreDir:    *storeDir,
		Resume:      *resume,
		Journal:     *journal && *storeDir != "",
		MaxAttempts: *maxAtt,
	}
	if *crashAt > 0 {
		fp := failpoint.New(1)
		fp.Enable(failpoint.SiteMasterAttempt, failpoint.Rule{
			Prob: 1, Act: failpoint.Crash, Skip: *crashAt - 1, Count: 1})
		opts.Failpoints = fp
		opts.CrashFn = func() {
			fmt.Fprintln(stderr, "excovery-run: crash failpoint fired, exiting hard")
			os.Exit(3)
		}
	}
	if *verbose {
		opts.OnRunDone = func(run desc.Run, rr master.RunResult) {
			status := "ok"
			if rr.Err != nil {
				status = "error: " + rr.Err.Error()
			} else if rr.Aborted {
				status = "aborted"
			} else if rr.Timeouts > 0 {
				status = fmt.Sprintf("%d wait timeout(s)", rr.Timeouts)
			}
			fmt.Fprintf(stdout, "run %4d  treatment %3d rep %4d  %8s  %s\n",
				run.ID, run.TreatmentIndex, run.Replication, rr.Duration.Round(time.Millisecond), status)
		}
	}

	x, err := core.New(e, opts)
	if err != nil {
		return fail(err)
	}
	defer x.Close()
	//lint:ignore walltime operator-facing wall duration in the CLI report, not experiment data
	wall := time.Now()
	rep, err := x.Run()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "experiment %q: %d runs (%d completed, %d skipped, %d failed) in %s wall time\n",
		e.Name, len(rep.Results), rep.Completed, rep.Skipped, rep.Failed,
		time.Since(wall).Round(time.Millisecond))
	if cs := metrics.ControlSummary(rep); cs.Retried > 0 || cs.Partial > 0 || cs.Recovered > 0 {
		fmt.Fprintf(stdout, "recovery: %d attempts for %d runs, %d retried, %d partial harvests, %d crashed runs re-executed\n",
			cs.Attempts, cs.Runs, cs.Retried, cs.Partial, cs.Recovered)
	}

	ms := metrics.FromReport(e, rep, "", "")
	if len(ms) > 0 {
		trs := metrics.TRs(ms)
		fmt.Fprintf(stdout, "discovery: %d/%d runs complete, responsiveness(1s)=%.3f responsiveness(5s)=%.3f\n",
			len(trs), len(ms),
			metrics.Responsiveness(ms, time.Second),
			metrics.Responsiveness(ms, 5*time.Second))
		if len(trs) > 0 {
			s := metrics.Summarize(metrics.DurationsToSeconds(trs))
			fmt.Fprintf(stdout, "t_R: mean=%.4fs p50=%.4fs p90=%.4fs p99=%.4fs max=%.4fs\n",
				s.Mean, s.P50, s.P90, s.P99, s.Max)
		}
	}
	st := x.Net.Stats()
	fmt.Fprintf(stdout, "network: %d packets sent, %d transmissions, %d delivered, %d dropped (%d loss, %d queue)\n",
		st.Sent, st.Transmissions, st.Delivered, st.DroppedTotal(),
		st.Dropped[netem.DropLoss], st.Dropped[netem.DropQueue])

	if *dbPath != "" {
		db, err := x.Finalize()
		if err != nil {
			return fail(err)
		}
		if err := db.Save(*dbPath); err != nil {
			return fail(err)
		}
		nEv, _ := db.DB.Count("Events")
		nPk, _ := db.DB.Count("Packets")
		fmt.Fprintf(stdout, "level-3 database: %s (%d events, %d packets)\n", *dbPath, nEv, nPk)
	}

	// Exit status tells CI and shell scripts whether the data is complete:
	// any failed or aborted run means the level-3 database is missing
	// measurements, which must not pass silently.
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
