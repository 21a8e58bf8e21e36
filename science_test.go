//go:build !race

// The science gate runs hundreds of virtual-time campaigns on one scheduler
// each; under the race detector they take twenty times as long and check no
// concurrency, so the race pass leaves this file out.

package excovery

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/metrics"
	"excovery/internal/netem"
)

// scienceGolden holds one line per treatment or table row of every result
// series EXPERIMENTS.md reports, as scienceLine writes it.
const scienceGolden = "testdata/science.golden"

// updateScience rewrites scienceGolden after a deliberate change to what a
// campaign measures; the diff of the file is the change's effect on R and
// t_R:
//
//	go test . -run SciencePinned -update
var updateScience = flag.Bool("update", false, "rewrite "+scienceGolden+" from the current code")

// seeds is the number of platform seeds (1..seeds) a figure, Exp. C, Exp. D
// and the contention ablation pool.
const seeds = 30

// TestSciencePinned holds the paper's repeatability promise (§IV-C1): fixed
// descriptions and seeds give identical results. It pins R and t_R of every
// shipped exp-*.xml description (at its own seed and replication count,
// grouped as EXPERIMENTS.md's excovery-report commands group it), of
// Figs. 2, 9/10 and 11, of Exp. C and D and of the contention ablation, and
// counts the causality violations the time-sync ablation finds before and
// after conditioning. Every number is an integer, so equality is exact on
// every architecture.
func TestSciencePinned(t *testing.T) {
	var lines []string
	pinned := map[string]bool{}
	for _, c := range []struct {
		name      string
		group     []string
		deadlines []time.Duration
	}{
		{"exp-a-load", []string{"fact_pairs", "fact_bw"}, []time.Duration{time.Second, 5 * time.Second}},
		{"exp-b-loss", []string{"fact_loss"}, []time.Duration{500 * time.Millisecond, 2 * time.Second, 15 * time.Second}},
		{"exp-e-meshwide", []string{"fact_nodes"}, []time.Duration{time.Second}},
	} {
		e, err := desc.Builtin(c.name)
		if err != nil {
			t.Fatal(err)
		}
		ms := campaign(t, e, core.Options{}, nil)
		lines = append(lines, groupLines(t, c.name, e, ms, c.group, c.deadlines)...)
		pinned[c.name] = true
	}
	for _, name := range desc.Builtins() {
		if strings.HasPrefix(name, "exp-") && !pinned[name] {
			t.Errorf("descriptions/%s.xml has no line in the science gate", name)
		}
	}

	oneShot := func() *desc.Experiment { return desc.OneShot(30) }
	lines = append(lines,
		scienceLine("fig2+11 oneshot", overSeeds(t, oneShot, core.Options{}, nil), time.Second),
		scienceLine("fig2 threeparty", overSeeds(t, func() *desc.Experiment {
			return builtin(t, "threeparty", 1)
		}, core.Options{}, nil), time.Second),
		scienceLine("fig9+10 casestudy pairs=5 bw=50", overSeeds(t, func() *desc.Experiment {
			return caseStudyAt(1, 5, 50)
		}, core.Options{}, nil), time.Second))

	for _, hops := range []int{1, 2, 4} {
		ms := overSeeds(t, func() *desc.Experiment { return chainExperiment(hops) }, core.Options{
			Topology: core.TopoChain,
			Link:     netem.LinkParams{Delay: time.Millisecond, Jitter: time.Millisecond, Loss: 0.05},
		}, nil)
		lines = append(lines, scienceLine(fmt.Sprintf("expC hops=%d", hops), ms, time.Second))
	}

	for _, arch := range []string{"two-party", "three-party"} {
		for _, load := range []int{0, 200, 400} {
			ms := overSeeds(t, func() *desc.Experiment { return archExperiment(t, arch, load, 2) },
				core.Options{Node: netem.NodeParams{RateBps: 1_000_000}}, nil)
			lines = append(lines, scienceLine(fmt.Sprintf("expD %s load=%d", arch, load), ms, 2*time.Second))
		}
	}

	for _, contention := range []bool{true, false} {
		ms := overSeeds(t, func() *desc.Experiment { return caseStudyAt(2, 20, 100) },
			core.Options{Node: netem.NodeParams{RateBps: 1_500_000}},
			func(x *core.Experiment) { x.Net.Contention = contention })
		lines = append(lines, scienceLine(fmt.Sprintf("ablation contention=%v pairs=20 bw=100", contention), ms, time.Second))
	}

	raw, conditioned := timeSyncViolations(t, 8)
	if raw == 0 {
		t.Error("time-sync ablation: no causality violations on raw skewed timestamps")
	}
	if conditioned != 0 {
		t.Errorf("time-sync ablation: conditioning left %d causality violations", conditioned)
	}
	lines = append(lines, fmt.Sprintf("ablation timesync seeds=8 violations uncorrected=%d conditioned=%d", raw, conditioned))

	got := strings.Join(lines, "\n") + "\n"
	if *updateScience {
		if err := os.WriteFile(scienceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scienceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < max(len(lines), len(wantLines)); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// campaign runs one description on the emulated platform and extracts its
// run metrics; setup, when given, adjusts the assembled platform first.
func campaign(t *testing.T, e *desc.Experiment, opts core.Options, setup func(*core.Experiment)) []metrics.RunMetric {
	t.Helper()
	x, err := core.New(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(x)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	return metrics.FromReport(e, rep, "", "")
}

// overSeeds runs a fresh copy of a description at every platform seed
// 1..seeds and pools the run metrics.
func overSeeds(t *testing.T, mk func() *desc.Experiment, opts core.Options, setup func(*core.Experiment)) []metrics.RunMetric {
	t.Helper()
	var all []metrics.RunMetric
	for seed := int64(1); seed <= seeds; seed++ {
		opts.Seed = seed
		all = append(all, campaign(t, mk(), opts, setup)...)
	}
	return all
}

// scienceLine is one golden line: the number of runs and of completed runs,
// for every deadline the runs complete within it (R's numerator), and the
// sum, median and 90th percentile of t_R in nanoseconds.
func scienceLine(name string, ms []metrics.RunMetric, deadlines ...time.Duration) string {
	trs := metrics.TRs(ms)
	var b strings.Builder
	fmt.Fprintf(&b, "%s runs=%d completed=%d", name, len(ms), len(trs))
	for _, d := range deadlines {
		within := 0
		for _, tr := range trs {
			if tr <= d {
				within++
			}
		}
		fmt.Fprintf(&b, " R(%s)=%d", d, within)
	}
	if len(trs) > 0 {
		var sum time.Duration
		for _, tr := range trs {
			sum += tr
		}
		fmt.Fprintf(&b, " tR_sum_ns=%d tR_p50_ns=%d tR_p90_ns=%d",
			sum.Nanoseconds(), quantileNs(trs, 1, 2), quantileNs(trs, 9, 10))
	}
	return b.String()
}

// quantileNs is the num/den quantile of an ascending sample with the linear
// interpolation of metrics.Quantile, in integer nanoseconds.
func quantileNs(sorted []time.Duration, num, den int) int64 {
	pos := num * (len(sorted) - 1)
	lo, rem := pos/den, pos%den
	v := sorted[lo].Nanoseconds()
	if rem > 0 {
		v += (sorted[lo+1] - sorted[lo]).Nanoseconds() * int64(rem) / int64(den)
	}
	return v
}

// groupLines writes one line per combination of the named factors' levels,
// in the order the description declares them, labelled as excovery-report
// labels its groups.
func groupLines(t *testing.T, name string, e *desc.Experiment, ms []metrics.RunMetric, factors []string, deadlines []time.Duration) []string {
	t.Helper()
	labels := []string{""}
	for _, f := range factors {
		var next []string
		for _, l := range labels {
			for _, lv := range e.Factor(f).Levels {
				next = append(next, strings.TrimSpace(l+" "+f+"="+lv.String()))
			}
		}
		labels = next
	}
	groups := map[string][]metrics.RunMetric{}
	for _, m := range ms {
		parts := make([]string, len(factors))
		for i, f := range factors {
			parts[i] = f + "=" + m.Treatment[f]
		}
		l := strings.Join(parts, " ")
		groups[l] = append(groups[l], m)
	}
	var out []string
	for _, l := range labels {
		out = append(out, scienceLine(name+" "+l, groups[l], deadlines...))
		delete(groups, l)
	}
	if len(groups) > 0 {
		t.Fatalf("%s: runs outside the declared levels: %v", name, groups)
	}
	return out
}

// caseStudyAt is the case study narrowed to one treatment.
func caseStudyAt(reps, pairs, bw int) *desc.Experiment {
	e := desc.CaseStudy(reps)
	e.Factors[1] = desc.IntFactor("fact_pairs", desc.UsageConstant, pairs)
	e.Factors[2] = desc.IntFactor("fact_bw", desc.UsageConstant, bw)
	return e
}

// chainExperiment is the one-shot discovery with hops-1 relays between SM
// and SU, for the chain topology of Exp. C.
func chainExperiment(hops int) *desc.Experiment {
	e := desc.OneShot(30)
	nodes := []string{"A"}
	for r := 0; r < hops-1; r++ {
		nodes = append(nodes, fmt.Sprintf("r%d", r))
	}
	e.AbstractNodes = append(nodes, "B")
	return e
}

// timeSyncViolations runs the one-shot discovery under ±2 s node clock skew
// at platform seeds 1..n and counts the runs whose SM reaction
// (sd_stop_publish, about a millisecond after the SU's "done") is
// timestamped before its trigger: in the raw events and in the level-3
// events conditioned with the run's offset measurements.
func timeSyncViolations(t *testing.T, n int) (raw, conditioned int) {
	t.Helper()
	inverted := func(evs []eventlog.Event) bool {
		var cause, effect time.Time
		for _, ev := range evs {
			switch {
			case ev.Type == "done" && ev.Node == "B":
				cause = ev.Time
			case ev.Type == "sd_stop_publish" && ev.Node == "A":
				effect = ev.Time
			}
		}
		return !cause.IsZero() && !effect.IsZero() && effect.Before(cause)
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		opts := core.Options{StoreDir: t.TempDir(), Seed: seed}
		opts.ClockSkew.MaxOffset = 2 * time.Second
		x, err := core.New(desc.OneShot(30), opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if inverted(rep.Results[0].Events) {
			raw++
		}
		db, err := x.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		evs, err := db.EventsOfRun(0)
		if err != nil {
			t.Fatal(err)
		}
		if inverted(evs) {
			conditioned++
		}
	}
	return raw, conditioned
}

// builtin is the embedded description name with reps replications.
func builtin(t *testing.T, name string, reps int) *desc.Experiment {
	t.Helper()
	e, err := desc.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	e.Repl.Count = reps
	return e
}

// archExperiment is Exp. D's description for one architecture at one
// load level: the case study or the three-party description, with the
// case study's environment nodes and traffic generator at 4 pairs ×
// loadKbps; load 0 drops the generator and the wait for it.
func archExperiment(t *testing.T, arch string, loadKbps, reps int) *desc.Experiment {
	var e *desc.Experiment
	if arch == "two-party" {
		e = desc.CaseStudy(reps)
	} else {
		e = builtin(t, "threeparty", reps)
		e.EnvironmentNodes = []string{"E0", "E1", "E2", "E3"}
		e.EnvProcesses = desc.CaseStudy(1).EnvProcesses
	}
	for i := range e.Factors {
		switch e.Factors[i].ID {
		case "fact_pairs":
			e.Factors[i] = desc.IntFactor("fact_pairs", desc.UsageConstant, 4)
		case "fact_bw":
			e.Factors[i] = desc.IntFactor("fact_bw", desc.UsageConstant, max(loadKbps, 1))
		}
	}
	if e.Factor("fact_pairs") == nil {
		e.Factors = append(e.Factors,
			desc.IntFactor("fact_pairs", desc.UsageConstant, 4),
			desc.IntFactor("fact_bw", desc.UsageConstant, max(loadKbps, 1)))
	}
	if loadKbps == 0 {
		e.EnvProcesses = nil
		for pi := range e.NodeProcesses {
			var kept []desc.Action
			for _, a := range e.NodeProcesses[pi].Actions {
				if a.Wait != nil && a.Wait.Event == "ready_to_init" {
					continue
				}
				kept = append(kept, a)
			}
			e.NodeProcesses[pi].Actions = kept
		}
	}
	return e
}
