// Command campaign is the repository's benchmark: it runs whole ExCovery
// campaigns — description in, runs executed, level-3 database and R / t_R
// out — and prints what a user would see (end to end) and what each layer
// did (per layer). BENCHMARK.json at the repository root names the
// workloads and metrics; bench/README.md explains them.
//
//	campaign --workload W --seed N --seconds S --trace 0|1
//
// measures one workload and prints one JSON object as its last line: the
// end-to-end metrics from an untraced run (--trace 0) or the per-layer
// metrics from a traced one (--trace 1).
//
//	campaign [-seed N] [-seconds S] [-sets K]
//
// runs every workload, untraced then traced, each in a child process of
// its own, and prints every metric as "workload metric value unit"; with
// -sets it does so K times and prints medians, quartiles and spreads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single-workload invocation.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "measure this workload only and print one JSON result line")
		seed    = fs.Int64("seed", 1, "workload seed (becomes core.Options.Seed)")
		seconds = fs.Float64("seconds", refSeconds, "how long the timed part should take on the reference host; sizes the work")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		sets    = fs.Int("sets", 0, "run this many full sets of all workloads and print medians, quartiles and spreads")
		outDir  = fs.String("out", "out", "directory for traces, results and on-disk drivers")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "campaign: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *sets, *outDir, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "campaign: unknown workload %q\n", *name)
		return 2
	}
	return runOne(w, *seed, *seconds, *trace == 1, *outDir, stdout, stderr)
}

// runOne measures one workload in this process.
func runOne(w *workload, seed int64, seconds float64, traced bool, outDir string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "campaign: %s: %v\n", w.name, err)
		return 1
	}
	outDir, err := filepath.Abs(outDir)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	base := scratchBase(outDir)
	scratch, err := newScratch(base, func(msg string) { fmt.Fprintln(stderr, "campaign: warning:", msg) })
	if err != nil {
		return fail(err)
	}
	disk := diskDir(outDir, "driver")
	cleanup := func() {
		os.RemoveAll(scratch)
		os.RemoveAll(disk)
	}
	defer cleanup()
	// Every exit path removes the scratch stores, a signal included. A
	// closed stdout ("| head") is not a signal here: SIGPIPE is ignored, so
	// the write fails with EPIPE and the invocation ends through the
	// deferred clean-up — and a write to a loopback connection whose server
	// a set-up repetition has just stopped cannot end the benchmark.
	signal.Ignore(syscall.SIGPIPE)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan struct{})
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case s := <-sig:
			cleanup()
			fmt.Fprintf(stderr, "campaign: %s: stopped by %v\n", w.name, s)
			os.Exit(130)
		case <-done:
		}
	}()

	cfg := config{seed: seed, seconds: seconds, traced: traced, scratch: scratch, outDir: outDir,
		effort: effort(math.Min(1, seconds/refSeconds))}
	var rp *report
	if w.kind == kindLevel3 {
		rp, err = measureLevel3(w, cfg)
	} else {
		rp, err = measureCampaign(w, cfg)
	}
	if err != nil {
		return fail(err)
	}
	rp.note("store_fs", base)
	if err := finish(rp, traced, stdout, stderr); err != nil {
		return fail(err)
	}
	return 0
}

// refSeconds is BENCHMARK.json's run_seconds: the default run length, and the
// one the isolated drivers are sized for.
const refSeconds = 12

// finish prints an invocation's notes and its result line. A failed output
// check is an error, after the line — which then says "correct": false —
// is out.
func finish(rp *report, traced bool, stdout, stderr io.Writer) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{Correct: len(rp.problems) == 0, Attempted: rp.attempted, Failed: rp.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rp.vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	for _, n := range rp.notes {
		fmt.Fprintf(stdout, "# %s %s\n", n[0], n[1])
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", b); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	for _, p := range rp.problems {
		fmt.Fprintf(stderr, "campaign: output check failed: %v\n", p)
	}
	if !line.Correct {
		return fmt.Errorf("%d output checks failed", len(rp.problems))
	}
	return nil
}
