package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the all-workloads mode reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or above it.
func loadSpec() (*benchmarkSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec benchmarkSpec
			if err := json.Unmarshal(b, &spec); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &spec, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or above")
		}
		dir = parent
	}
}

// childResult is what one child invocation printed.
type childResult struct {
	resultLine
	notes map[string]string
}

// runChild measures one workload in a child process, so every measurement
// starts from a fresh heap.
func runChild(ctx context.Context, w string, seed int64, seconds float64, trace int, outDir string, stderr io.Writer) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace), "--out", outDir)
	// A cancelled set ends its child with SIGTERM, which the child answers
	// by removing its scratch directory; the default would be SIGKILL.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	res := &childResult{notes: map[string]string{}}
	last := ""
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			if k, v, ok := strings.Cut(rest, " "); ok {
				res.notes[k] = v
			}
			continue
		}
		last = line
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s --trace %d: %w", w, trace, runErr)
	}
	if err := json.Unmarshal([]byte(last), &res.resultLine); err != nil {
		return nil, fmt.Errorf("%s --trace %d: result line: %w", w, trace, err)
	}
	return res, nil
}

// setResult is one full set: every workload, untraced and traced.
type setResult map[string]map[string]metricValue // workload → metric → value

// runAll is the all-workloads mode: one set printed metric by metric, or
// -sets K sets summarised.
func runAll(seed int64, seconds float64, sets int, outDir string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()

	n := sets
	if n < 1 {
		n = 1
	}
	var all []setResult
	notes := map[string]map[string]string{}
	for i := 0; i < n; i++ {
		set := setResult{}
		for _, w := range workloads {
			set[w.name] = map[string]metricValue{}
			notes[w.name] = map[string]string{}
			for trace := 0; trace <= 1; trace++ {
				res, err := runChild(ctx, w.name, seed, seconds, trace, outDir, stderr)
				if err != nil {
					return fail(err)
				}
				for k, v := range res.Metrics {
					set[w.name][k] = v
				}
				for k, v := range res.notes {
					notes[w.name][k] = v
				}
				fmt.Fprintf(stderr, "set %d/%d %s --trace %d: attempted %d, failed %d\n",
					i+1, n, w.name, trace, res.Attempted, res.Failed)
			}
		}
		all = append(all, set)
	}

	doc := map[string]any{
		"environment": environment(),
		"seed":        seed,
		"seconds":     seconds,
		"sets":        n,
		"notes":       notes,
	}
	if sets < 1 {
		printSet(stdout, all[0])
		doc["workloads"] = all[0]
	} else {
		doc["workloads"] = summarise(stdout, spec, all)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stderr, "wrote", path)
	return 0
}

// metricOrder lists every metric name, end to end first.
func metricOrder() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

func printSet(w io.Writer, set setResult) {
	for _, wl := range workloads {
		for _, d := range metricOrder() {
			if v, ok := set[wl.name][d.name]; ok {
				fmt.Fprintf(w, "%s %s %.6g %s\n", wl.name, d.name, v.Value, v.Unit)
			}
		}
	}
}

// summary is one metric on one workload over the sets.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
}

// summarise prints, per workload and metric, the median, the quartiles and
// the spread (interquartile distance over the median) beside the metric's
// bound, and returns the same as a document.
func summarise(w io.Writer, spec *benchmarkSpec, all []setResult) map[string]map[string]summary {
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	out := map[string]map[string]summary{}
	fmt.Fprintf(w, "%-17s %-34s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", "unit")
	for _, wl := range workloads {
		out[wl.name] = map[string]summary{}
		for _, d := range metricOrder() {
			var vals []float64
			for _, set := range all {
				if v, ok := set[wl.name][d.name]; ok {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			s := summary{Unit: d.unit, Median: median(vals), Q1: q1, Q3: q3,
				Spread: spread(vals), Bound: bounds[d.name], Values: vals}
			out[wl.name][d.name] = s
			bound := ""
			if s.Bound > 0 {
				bound = fmt.Sprintf("%.2f", s.Bound)
			}
			fmt.Fprintf(w, "%-17s %-34s %12.6g %12.6g %12.6g %8.4f %6s  %s\n",
				wl.name, d.name, s.Median, s.Q1, s.Q3, s.Spread, bound, d.unit)
		}
	}
	return out
}

// environment stamps a recording with what it was taken on.
func environment() map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
	// Best effort: a checkout that is not a git repository has no commit.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(b))
	}
	sizes := map[string]any{}
	for _, w := range workloads {
		sizes[w.name] = map[string]any{
			"treatments": w.treatments, "reps_per_second": w.repsPerSecond, "rounds": w.rounds,
			"store_runs": w.storeRuns, "pass_seconds": w.passSeconds,
		}
	}
	env["sizes"] = sizes
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
