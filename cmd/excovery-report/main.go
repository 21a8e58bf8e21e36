// Command excovery-report extracts metrics from a level-3 experiment
// database: experiment metadata, per-run discovery times, responsiveness
// at configurable deadlines, grouped by a factor, plus packet statistics.
//
// Usage:
//
//	excovery-report exp1.xcdb
//	excovery-report -group fact_bw -deadlines 0.5,1,5 exp1.xcdb
//	excovery-report -events -run 3 exp1.xcdb
//	excovery-report -trace trace3.json -run 3 exp1.xcdb
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"excovery/internal/metrics"
	"excovery/internal/obs"
	"excovery/internal/store"
	"excovery/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// reportFlags carries the parsed CLI configuration into report.
type reportFlags struct {
	group     string
	deadlines string
	events    bool
	run       int
	traceOut  string
	packets   bool
	timeline  bool
	repo      bool
	csvOut    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("excovery-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var rf reportFlags
	fs.StringVar(&rf.group, "group", "", "group metrics by this factor id")
	fs.StringVar(&rf.deadlines, "deadlines", "1,5,30", "responsiveness deadlines in seconds, comma separated")
	fs.BoolVar(&rf.events, "events", false, "dump the event list of -run")
	fs.IntVar(&rf.run, "run", 0, "run id for -events/-timeline/-packets/-trace")
	fs.StringVar(&rf.traceOut, "trace", "", "export the execution trace of -run as Chrome trace_event JSON to this file (- for stdout)")
	fs.BoolVar(&rf.packets, "packets", false, "print packet statistics of -run")
	fs.BoolVar(&rf.timeline, "timeline", false, "render the Fig. 11 style timeline of -run")
	fs.BoolVar(&rf.repo, "repo", false, "treat the argument as a level-4 repository directory and summarize all experiments")
	fs.StringVar(&rf.csvOut, "csv", "", "export per-run metrics as CSV to this file (- for stdout)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: excovery-report [flags] experiment.xcdb\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "" {
		fs.Usage()
		return 2
	}
	if err := report(rf, fs.Arg(0), stdout); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	return 0
}

func report(rf reportFlags, arg string, stdout io.Writer) error {
	if rf.repo {
		return reportRepository(arg, stdout)
	}
	// With -trace the report's own store.open span (rows by table, bytes,
	// duration) joins the exported run trace on a "store" lane.
	var o store.Obs
	if rf.traceOut != "" {
		o.Tracer = obs.NewTracer(nil)
	}
	db, err := o.Open(arg)
	if err != nil {
		return err
	}
	// Trace export runs before the banner: with `-trace -` stdout must
	// carry nothing but the Chrome trace JSON.
	if rf.traceOut != "" {
		return exportTrace(db, rf.run, rf.traceOut, o.Tracer.Spans()[0], stdout)
	}
	info, err := db.Info()
	if err != nil {
		return err
	}
	runs, err := db.RunIDs()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "experiment %q — %s (%d runs, %s)\n", info.Name, info.Comment, len(runs), store.EEVersion)

	if rf.events {
		evs, err := db.EventsOfRun(rf.run)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			fmt.Fprintln(stdout, " ", ev)
		}
		return nil
	}
	if rf.timeline {
		evs, err := db.EventsOfRun(rf.run)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run %d — %s\n\n", rf.run, viz.Phases(evs))
		fmt.Fprint(stdout, viz.Timeline(evs, 72))
		return nil
	}
	if rf.packets {
		pkts, err := db.PacketsOfRun(rf.run)
		if err != nil {
			return err
		}
		st := metrics.AnalyzePackets(pkts)
		fmt.Fprintf(stdout, "run %d packets: tx=%d rx=%d delivered=%d loss=%.3f meandelay=%s\n",
			rf.run, st.TxCount, st.RxCount, st.Delivered, st.LossRate, st.MeanDelay)
		// Per-packet request/response association (§VI): one line per
		// query sent by each node in this run.
		nodes := map[string]bool{}
		for _, p := range pkts {
			nodes[p.Src] = true
		}
		names := make([]string, 0, len(nodes))
		for n := range nodes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			for _, q := range metrics.QueryPairs(pkts, n) {
				status := "unanswered"
				if q.Answered {
					status = q.RTT().String()
				}
				fmt.Fprintf(stdout, "  query qid=%d from %s: %s\n", q.QID, q.Node, status)
			}
		}
		return nil
	}

	ms, err := metrics.FromDB(db, "", "")
	if err != nil {
		return err
	}
	if rf.csvOut != "" {
		if rf.csvOut == "-" {
			return metrics.WriteCSV(stdout, ms)
		}
		f, err := os.Create(rf.csvOut)
		if err != nil {
			return err
		}
		if err := metrics.WriteCSV(f, ms); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d rows to %s\n", len(ms), rf.csvOut)
		return nil
	}
	var dls []time.Duration
	for _, part := range strings.Split(rf.deadlines, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad deadline %q", part)
		}
		dls = append(dls, time.Duration(v*float64(time.Second)))
	}

	printGroup := func(label string, ms []metrics.RunMetric) {
		trs := metrics.TRs(ms)
		line := fmt.Sprintf("%-12s n=%-5d complete=%-5d", label, len(ms), len(trs))
		for _, d := range dls {
			line += fmt.Sprintf(" R(%s)=%.3f", d, metrics.Responsiveness(ms, d))
		}
		if len(trs) > 0 {
			s := metrics.Summarize(metrics.DurationsToSeconds(trs))
			line += fmt.Sprintf("  t_R mean=%.4fs p90=%.4fs", s.Mean, s.P90)
		}
		fmt.Fprintln(stdout, line)
	}

	if rf.group == "" {
		printGroup("all", ms)
		return nil
	}
	groups := metrics.GroupBy(ms, rf.group)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, erra := strconv.Atoi(keys[i])
		b, errb := strconv.Atoi(keys[j])
		if erra == nil && errb == nil {
			return a < b
		}
		return keys[i] < keys[j]
	})
	fmt.Fprintf(stdout, "grouped by %s:\n", rf.group)
	for _, k := range keys {
		printGroup(rf.group+"="+k, groups[k])
	}
	return nil
}

// exportTrace converts one run's trace.json level-2 artifact (recorded by
// the master's tracer, stored as an extra run measurement) into Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto.
func exportTrace(db *store.ExperimentDB, run int, path string, opened obs.Span, stdout io.Writer) error {
	extras, err := db.ExtrasOfRun(run)
	if err != nil {
		return err
	}
	var spans []obs.Span
	found := false
	for _, x := range extras {
		if x.Name != "trace.json" {
			continue
		}
		s, err := obs.UnmarshalSpans(x.Content)
		if err != nil {
			return fmt.Errorf("run %d: bad trace artifact from node %s: %w", run, x.Node, err)
		}
		spans = append(spans, s...)
		found = true
	}
	if !found {
		return fmt.Errorf("run %d has no trace.json artifact (master ran without a tracer?)", run)
	}
	// The run's spans are on the campaign's clock, often a virtual one, the
	// open span on this process's wall clock: it is drawn with its own
	// duration, ending where the run's trace begins.
	first := opened.End
	for i, sp := range spans {
		if i == 0 || sp.Start.Before(first) {
			first = sp.Start
		}
	}
	opened.Start, opened.End = first.Add(-opened.Duration()), first
	out := obs.ChromeTrace(append(spans, opened))
	if path == "-" {
		_, err := stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d spans of run %d to %s\n", len(spans), run, path)
	return nil
}

// reportRepository summarizes a level-4 repository: one line per stored
// experiment with run counts and overall responsiveness — the
// cross-experiment comparison level the paper leaves to future work.
func reportRepository(dir string, stdout io.Writer) error {
	r, err := store.OpenRepository(dir)
	if err != nil {
		return err
	}
	names, err := r.List()
	if err != nil {
		return err
	}
	if len(names) == 0 {
		fmt.Fprintln(stdout, "repository is empty")
		return nil
	}
	fmt.Fprintf(stdout, "%-24s %-8s %-10s %-10s %-8s\n", "experiment", "runs", "t_R mean", "t_R p90", "R(1s)")
	return r.ForEach(func(name string, db *store.ExperimentDB) error {
		ms, err := metrics.FromDB(db, "", "")
		if err != nil {
			return err
		}
		trs := metrics.TRs(ms)
		sum := metrics.Summarize(metrics.DurationsToSeconds(trs))
		fmt.Fprintf(stdout, "%-24s %-8d %-10s %-10s %-8.3f\n", name, len(ms),
			fmt.Sprintf("%.4fs", sum.Mean), fmt.Sprintf("%.4fs", sum.P90),
			metrics.Responsiveness(ms, time.Second))
		return nil
	})
}
