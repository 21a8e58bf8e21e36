package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/metrics"
	"excovery/internal/netem"
)

// evKey counts one kind of event on one node in one run.
type evKey struct {
	run       int
	node, typ string
}

// phases are the wall-clock cuts of one run, taken from the benchmark's
// own callbacks: the previous run's completion, the last run_init (end of
// preparation), the first run_exit (start of clean-up) and this run's
// completion.
type phases struct {
	run                    int
	start, init, exit, end time.Time
}

// recorder observes one campaign from outside: run completions always,
// node events where a workload or a traced run needs them.
type recorder struct {
	// traced makes onEvent stamp the phase cuts.
	traced bool
	// traffic reads the running traffic generator's packet count.
	traffic func() uint64

	mu          sync.Mutex
	last        time.Time
	gaps        []float64 // ms between consecutive run completions
	treatment   []int     // the treatment of the run each gap ends with
	virtual     time.Duration
	cur         phases
	cuts        []phases
	trafficPkts uint64
	// evCount is set on rpc-loopback, whose digest and per-run event check
	// come from the host side of the wire.
	evCount map[evKey]int
}

func (r *recorder) onRunDone(run desc.Run, rr master.RunResult) {
	now := wallNow()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaps = append(r.gaps, ms(now.Sub(r.last)))
	r.treatment = append(r.treatment, run.TreatmentIndex)
	r.virtual += rr.Duration
	if r.traced {
		r.cur.run, r.cur.start, r.cur.end = run.ID, r.last, now
		r.cuts = append(r.cuts, r.cur)
		r.cur = phases{}
	}
	r.last = now
}

func (r *recorder) onEvent(ev eventlog.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.evCount != nil {
		r.evCount[evKey{ev.Run, ev.Node, ev.Type}]++
	}
	if !r.traced {
		return
	}
	switch ev.Type {
	case eventlog.EvRunInit:
		r.cur.init = wallNow()
	case eventlog.EvRunExit:
		if r.cur.exit.IsZero() {
			r.cur.exit = wallNow()
		}
	case "done":
		// The SU's done flag precedes env_traffic_stop, so the generator
		// of this run is still the current one.
		if r.traffic != nil {
			r.trafficPkts += r.traffic()
		}
	}
}

// result is what the executed rounds of a campaign leave behind: counts and
// times summed over the rounds, the report of the last one.
type result struct {
	rep       *master.Report
	planned   int
	completed int
	// wall is the host time of run() including the final commit drain.
	wall time.Duration
	rec  *recorder
	net  netem.Stats
	// switches and timers are the platform scheduler's counters.
	switches, timers uint64
	// MemStats deltas over the timed part.
	allocBytes, gcPauseNS uint64
	gcCycles              uint32
	digest                string
}

// execute runs the world's plan once under the recorder the world was
// built with.
func execute(w *workload, wd *world, rec *recorder) (*result, error) {
	res := &result{planned: len(wd.plan.Runs), rec: rec}
	if rec.traced && wd.x.Env != nil {
		rec.traffic = func() uint64 {
			if t := wd.x.Env.Traffic(); t != nil {
				return t.Sent()
			}
			return 0
		}
	}
	if rec.evCount != nil {
		rec.evCount = map[evKey]int{}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sw0, tm0 := wd.x.S.Switches(), wd.x.S.FiredTimers()
	begin := wallNow()
	rec.last = begin
	rep, err := wd.run()
	res.wall = wallNow().Sub(begin)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	res.gcCycles = m1.NumGC - m0.NumGC
	res.rep = rep
	res.completed = rep.Completed
	res.net = wd.x.Net.Stats()
	res.switches, res.timers = wd.x.S.Switches()-sw0, wd.x.S.FiredTimers()-tm0
	if w.kind == kindRPC {
		res.digest = digestCounts(rec.evCount)
	} else {
		res.digest = digestReport(rep, res.net)
	}
	return res, nil
}

// add folds a later round into the result.
func (res *result) add(next *result) {
	res.rep = next.rep
	res.planned += next.planned
	res.completed += next.completed
	res.wall += next.wall
	res.switches += next.switches
	res.timers += next.timers
	res.allocBytes += next.allocBytes
	res.gcPauseNS += next.gcPauseNS
	res.gcCycles += next.gcCycles
	res.net.Sent += next.net.Sent
	res.net.Transmissions += next.net.Transmissions
	res.net.Delivered += next.net.Delivered
	res.net.Duplicates += next.net.Duplicates
	res.net.RuleDuplicates += next.net.RuleDuplicates
	for i, n := range next.net.Dropped {
		res.net.Dropped[i] += n
	}
}

// digestReport is the sim_digest of a virtual-time campaign: every run's
// (node, type, virtual time) event sequence in bus order, then the final
// network counters. A change that only makes the program faster leaves it
// identical.
func digestReport(rep *master.Report, st netem.Stats) string {
	h := sha256.New()
	var buf [8]byte
	for _, rr := range rep.Results {
		for _, ev := range rr.Events {
			h.Write([]byte(ev.Node))
			h.Write([]byte{0})
			h.Write([]byte(ev.Type))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(buf[:], uint64(ev.Time.UnixNano()))
			h.Write(buf[:])
		}
		h.Write([]byte{1})
	}
	fmt.Fprintf(h, "%+v", st)
	return hex.EncodeToString(h.Sum(nil))
}

// digestCounts is the sim_digest of a real-time campaign, where neither
// times nor the interleaving across nodes repeat: how many events of each
// type every node emitted in every run.
func digestCounts(counts map[evKey]int) string {
	lines := make([]string, 0, len(counts))
	for k, n := range counts {
		lines = append(lines, strconv.Itoa(k.run)+" "+k.node+" "+k.typ+" "+strconv.Itoa(n))
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// sameDigests is the determinism check: every campaign in the list ran the
// same plan from the same seed, so all digests must be one.
func sameDigests(what string, ds []string) error {
	for i, d := range ds {
		if d == "" || d != ds[0] {
			return fmt.Errorf("%s: sim_digest %d is %.12s, first is %.12s: the simulation does not repeat",
				what, i, d, ds[0])
		}
	}
	return nil
}

// checkRPCEvents verifies that every node saw exactly one run_init and one
// run_exit in every planned run.
func checkRPCEvents(counts map[evKey]int, plan *desc.Plan, nodes []string) error {
	for _, run := range plan.Runs {
		for _, n := range nodes {
			for _, typ := range []string{eventlog.EvRunInit, eventlog.EvRunExit} {
				if c := counts[evKey{run.ID, n, typ}]; c != 1 {
					return fmt.Errorf("run %d: node %s has %d %s events, want 1", run.ID, n, c, typ)
				}
			}
		}
	}
	return nil
}

// treatmentQuantile is the p-quantile of the run gaps taken per treatment,
// then the median over the treatments. A plan is a mixture of treatments
// whose runs cost very different amounts (2000 vs 50 background packets per
// virtual second in the case-study sweep); a quantile of the mixture that
// falls between two treatments' clusters moves by tens of per cent from one
// repeat to the next, while each treatment's own quantile is steady.
func treatmentQuantile(gaps []float64, treatment []int, p float64) float64 {
	by := map[int][]float64{}
	for i, g := range gaps {
		by[treatment[i]] = append(by[treatment[i]], g)
	}
	qs := make([]float64, 0, len(by))
	for _, g := range by {
		qs = append(qs, quantile(g, p))
	}
	return median(qs)
}

// sdStats are the simulated statistics of a campaign: responsiveness at a
// 1 s deadline and the discovery-time distribution. At a fixed seed they
// repeat exactly.
type sdStats struct {
	r1s, trMeanMS, trP90MS float64
	complete               int
}

func sdStatsOf(ms []metrics.RunMetric) sdStats {
	var s sdStats
	for _, m := range ms {
		if m.Complete {
			s.complete++
		}
	}
	s.r1s = metrics.Responsiveness(ms, time.Second)
	if trs := metrics.TRs(ms); len(trs) > 0 {
		sm := metrics.Summarize(metrics.DurationsToSeconds(trs))
		s.trMeanMS, s.trP90MS = sm.Mean*1000, sm.P90*1000
	}
	return s
}

// dirKB sums the file sizes under dir in KiB.
func dirKB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return float64(total) / 1024
}
