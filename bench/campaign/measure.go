package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/metrics"
	"excovery/internal/obs"
	"excovery/internal/xmlrpc"
)

// setupReps is how often one invocation sets the workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 5

// config is one invocation's request.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// scratch holds level-2 stores and level-3 files (tmpfs when there is
	// one); outDir holds traces and the on-disk store drivers.
	scratch string
	outDir  string
	// effort scales the isolated drivers and the pacing guard.
	effort effort
}

// report is what one invocation found.
type report struct {
	vals map[string]float64
	// notes are facts that are not metrics: digests, sample counts, the
	// scratch file system.
	notes [][2]string
	// attempted and failed count operations: planned runs that did not
	// complete, control-channel calls that failed, passes that failed.
	attempted, failed int
	// problems are the output checks that did not hold.
	problems []error
}

func newReport() *report { return &report{vals: map[string]float64{}} }

func (rp *report) note(k string, v any)    { rp.notes = append(rp.notes, [2]string{k, fmt.Sprint(v)}) }
func (rp *report) check(err error)         { rp.problems = append(rp.problems, err) }
func (rp *report) set(k string, v float64) { rp.vals[k] = v }

// count books a campaign's runs as attempted operations.
func (rp *report) count(res *result) {
	rp.attempted += res.planned
	rp.failed += res.planned - res.completed
	if res.completed != res.planned {
		rp.check(fmt.Errorf("%d of %d planned runs completed", res.completed, res.planned))
	}
}

// setupCut are the wall-clock cuts of one set-up repetition: its start and
// end, and how long the three steps of assembling the timed platform took.
type setupCut struct {
	start, end              time.Time
	parse, planning, wiring time.Duration
	runs                    int
}

func cutOf(start, end time.Time, wd *world) setupCut {
	return setupCut{start: start, end: end, parse: wd.parse, planning: wd.planning,
		wiring: wd.wiring, runs: len(wd.plan.Runs)}
}

func encode(e *desc.Experiment) (string, error) {
	text, err := desc.EncodeString(e)
	if err != nil {
		return "", fmt.Errorf("encode description: %w", err)
	}
	return text, nil
}

// newRecorder makes the recorder of one campaign and the hooks that feed
// it.
func newRecorder(w *workload, traced bool) (*recorder, hooks) {
	rec := &recorder{traced: traced}
	hk := hooks{onRunDone: rec.onRunDone}
	if w.kind == kindRPC {
		rec.evCount = map[evKey]int{}
	}
	if traced || w.kind == kindRPC {
		hk.onEvent = rec.onEvent
	}
	return rec, hk
}

// prepared is a workload after set-up: the platform to time, the recorder
// it was built with, its level-2 directory and description document, and
// the cuts of every set-up repetition.
type prepared struct {
	wd   *world
	rec  *recorder
	hk   hooks
	dir  string
	text string
	cuts []setupCut
}

// timed executes the prepared plan w.rounds times, each round on a fresh
// platform (built between rounds, outside the timed part), and folds the
// rounds into one result. The rounds are the same campaign from the same
// seed, so their digests must agree. The last round's platform stays open
// for the caller.
func timed(w *workload, cfg config, p *prepared, rp *report) (*result, error) {
	var total *result
	var digests []string
	for round := 0; round < w.rounds; round++ {
		if round > 0 {
			total.rep = nil // one report in memory at a time
			if err := discard(p.wd, p.dir); err != nil {
				return nil, err
			}
			var err error
			if p.wd, err = build(w, p.text, cfg.seed, p.dir, p.hk); err != nil {
				return nil, err
			}
		}
		res, err := execute(w, p.wd, p.rec)
		if err != nil {
			return nil, err
		}
		digests = append(digests, res.digest)
		if total == nil {
			total = res
		} else {
			total.add(res)
		}
	}
	if err := sameDigests("timed rounds", digests); err != nil {
		rp.check(err)
	}
	rp.count(total)
	return total, nil
}

// repeatSetUp runs one set-up repetition setupReps times and books setup_s
// as the median. once assembles a platform and executes the repetition's
// campaign on it or beside it; the platform of the last repetition is kept,
// the earlier ones are discarded between repetitions, outside the timing.
// All repetitions run the same campaign from the same seed, so their
// digests double as the untraced run's determinism check.
func repeatSetUp(rp *report, what string, once func(i int) (*prepared, *result, error)) (*prepared, *result, error) {
	var (
		p       *prepared
		res     *result
		cuts    []setupCut
		digests []string
		secs    []float64
	)
	for i := 0; i < setupReps; i++ {
		if p != nil {
			if err := discard(p.wd, p.dir); err != nil {
				return nil, nil, err
			}
		}
		t0 := wallNow()
		var err error
		if p, res, err = once(i); err != nil {
			return nil, nil, err
		}
		t1 := wallNow()
		if res.completed != res.planned {
			rp.check(fmt.Errorf("%s %d: %d of %d runs completed", what, i, res.completed, res.planned))
		}
		secs = append(secs, t1.Sub(t0).Seconds())
		digests = append(digests, res.digest)
		cuts = append(cuts, cutOf(t0, t1, p.wd))
	}
	if err := sameDigests(what, digests); err != nil {
		rp.check(err)
	}
	rp.set("setup_s", median(secs))
	rp.note("setup_samples", len(secs))
	rp.note("setup_digest", digests[0])
	p.cuts = cuts
	return p, res, nil
}

// setUp is the set-up of a campaign workload. One repetition takes the
// description document to a platform ready for the timed plan and runs a
// discarded warm-up campaign (5 % of a timed round) on a platform of its
// own, so lazily built state — routes, pools, the HTTP connection pool —
// is part of set-up, not of the first timed runs.
func setUp(w *workload, cfg config, z size, rp *report) (*prepared, error) {
	text, err := encode(w.describe(z.reps))
	if err != nil {
		return nil, err
	}
	warmText, err := encode(w.describe(z.warmReps))
	if err != nil {
		return nil, err
	}
	p, _, err := repeatSetUp(rp, "warm-up campaign", func(i int) (*prepared, *result, error) {
		p := &prepared{text: text, dir: filepath.Join(cfg.scratch, fmt.Sprintf("full-%d", i))}
		p.rec, p.hk = newRecorder(w, false)
		var err error
		if p.wd, err = build(w, text, cfg.seed, p.dir, p.hk); err != nil {
			return nil, nil, err
		}
		warmRec, warmHK := newRecorder(w, false)
		warmDir := filepath.Join(cfg.scratch, fmt.Sprintf("warm-%d", i))
		warm, err := build(w, warmText, cfg.seed, warmDir, warmHK)
		if err != nil {
			return nil, nil, err
		}
		res, err := execute(w, warm, warmRec)
		if err != nil {
			return nil, nil, err
		}
		return p, res, discard(warm, warmDir)
	})
	return p, err
}

// discard closes a world and removes its level-2 directory.
func discard(wd *world, dir string) error {
	if err := wd.close(); err != nil {
		return fmt.Errorf("close platform: %w", err)
	}
	return os.RemoveAll(dir)
}

// bookEndToEnd books the user-visible numbers of a timed campaign.
func bookEndToEnd(rp *report, res *result) {
	rp.set("runs_per_s", ratio(float64(res.completed), res.wall.Seconds()))
	rp.set("run_ms_p50", treatmentQuantile(res.rec.gaps, res.rec.treatment, 0.5))
	rp.set("run_ms_p95", treatmentQuantile(res.rec.gaps, res.rec.treatment, 0.95))
	rp.note("run_samples", len(res.rec.gaps))
	rp.note("sim_digest", res.digest)
}

// measureCampaign is one invocation on a campaign workload.
func measureCampaign(w *workload, cfg config) (*report, error) {
	rp := newReport()
	z := w.sizeFor(cfg.seconds, cfg.traced)
	rp.note("runs", z.runs)

	p, err := setUp(w, cfg, z, rp)
	if err != nil {
		return nil, err
	}
	if w.kind == kindRPC {
		if err := pacingGuard(w, cfg, rp); err != nil {
			return nil, err
		}
	}
	res, err := timed(w, cfg, p, rp)
	if err != nil {
		return nil, err
	}
	bookEndToEnd(rp, res)
	if w.kind == kindRPC {
		checkRPC(rp, p.wd, res)
	}
	if w.durable {
		rp.set("store.level2_kb_per_run", ratio(dirKB(p.dir), float64(len(p.wd.plan.Runs))))
	}
	if err := discard(p.wd, p.dir); err != nil || !cfg.traced {
		return rp, err
	}

	// Second half of a traced invocation: the same plan from the same
	// seed with the benchmark's instruments attached.
	setupLayers(rp, p.cuts)
	untracedRPS := rp.vals["runs_per_s"]
	res.rep = nil // the traced campaign should start from the heap the untraced one did
	tp := &prepared{dir: filepath.Join(cfg.scratch, "traced"), text: p.text}
	tp.rec, tp.hk = newRecorder(w, true)
	tp.hk.metrics = obs.NewRegistry()
	var calls *callLog
	var masterTracer *obs.Tracer
	if w.kind == kindRPC {
		calls = &callLog{}
		masterTracer = obs.NewTracer(wallNow)
		masterTracer.SeedIDs(1 << 40) // disjoint from the benchmark's own span ids
		tp.hk.calls, tp.hk.masterTracer = calls, masterTracer
	}
	if tp.wd, err = build(w, tp.text, cfg.seed, tp.dir, tp.hk); err != nil {
		return nil, err
	}
	rpc0 := tp.wd.rpcStats()
	tres, err := timed(w, cfg, tp, rp)
	if err != nil {
		return nil, err
	}
	twd := tp.wd
	if err := sameDigests("untraced vs traced campaign", []string{res.digest, tres.digest}); err != nil {
		rp.check(err)
	}
	if w.kind == kindRPC {
		checkRPC(rp, twd, tres)
	}
	rp.set("obs.trace_overhead_pct",
		100*ratio(untracedRPS-ratio(float64(tres.completed), tres.wall.Seconds()), untracedRPS))

	campaignLayers(rp, w, twd, tres, rpc0, calls)
	if err := isolatedLayers(rp, w, cfg, twd, tres, calls); err != nil {
		return nil, err
	}
	shares(rp, w, tres)

	sw := newSpanWriter()
	sw.setup(p.cuts)
	sw.campaign(tres.rec.cuts, calls)
	spans := sw.tr.Spans()
	if masterTracer != nil {
		spans = append(spans, masterTracer.Spans()...)
	}
	if err := writeTrace(cfg.outDir, w.name, spans); err != nil {
		return nil, err
	}
	return rp, discard(twd, tp.dir)
}

// checkRPC holds rpc-loopback to its output checks: no retried or failed
// call, and one run_init / run_exit per node per run.
func checkRPC(rp *report, wd *world, res *result) {
	st := wd.rpcStats()
	rp.failed += int(st.Failures)
	if st.Retries != 0 || st.Failures != 0 {
		rp.check(fmt.Errorf("control channel: %d retries, %d failures, want 0", st.Retries, st.Failures))
	}
	nodes := make([]string, 0, len(wd.handles))
	for _, h := range wd.sortedHandles() {
		nodes = append(nodes, h.ID())
	}
	if err := checkRPCEvents(res.rec.evCount, wd.plan, nodes); err != nil {
		rp.check(err)
	}
}

// pacingGuard keeps rpc-loopback RPC-bound: a short campaign at the
// workload's pacing factor and one paced ten times slower must run at the
// same rate. If the slower one loses more than 15 %, the description or the
// real-time scheduler has started to wait for virtual time, and runs_per_s
// no longer measures the control channel. (The slower one running faster is
// not pacing: fewer real-time timer wake-ups leave more of the two cores to
// the RPCs, about 9 % on the reference host.)
func pacingGuard(w *workload, cfg config, rp *report) error {
	text, err := encode(w.describe(cfg.effort.n(pacingRuns)))
	if err != nil {
		return err
	}
	rate := func(speed float64) (float64, error) {
		rec, hk := newRecorder(w, false)
		hk.speed = speed
		wd, err := build(w, text, cfg.seed, "", hk)
		if err != nil {
			return 0, err
		}
		res, err := execute(w, wd, rec)
		if err != nil {
			return 0, err
		}
		if res.completed != res.planned {
			rp.check(fmt.Errorf("pacing guard: %d of %d runs completed", res.completed, res.planned))
		}
		return ratio(float64(res.completed), res.wall.Seconds()), wd.close()
	}
	// Fast, slow, fast, slow: a drift of the host during the guard hits
	// both operating points alike.
	var fast, slow []float64
	for i := 0; i < 2; i++ {
		f, err := rate(rpcSpeed)
		if err != nil {
			return err
		}
		s, err := rate(rpcSpeedSlow)
		if err != nil {
			return err
		}
		fast, slow = append(fast, f), append(slow, s)
	}
	f, s := mean(fast), mean(slow)
	diff := 100 * ratio(f-s, f)
	rp.set("master.pacing_diff_pct", diff)
	if diff > 15 {
		rp.check(fmt.Errorf("pacing guard: %.1f runs/s at speed %g, %.1f at %g (%.1f %% apart, limit 15): the workload is pacing-bound",
			f, rpcSpeed, s, rpcSpeedSlow, diff))
	}
	return nil
}

// pacingRuns is the size of each of the four pacing-guard campaigns.
const pacingRuns = 50

// setupLayers books what set-up says about desc and core: medians over the
// repetitions.
func setupLayers(rp *report, cuts []setupCut) {
	var parse, plan, wiring []float64
	for _, c := range cuts {
		parse = append(parse, ms(c.parse))
		plan = append(plan, us(c.planning)/float64(c.runs))
		wiring = append(wiring, ms(c.wiring))
	}
	rp.set("desc.parse_ms", median(parse))
	rp.set("desc.plan_us_per_run", median(plan))
	rp.set("core.new_ms", median(wiring))
}

// campaignLayers books the per-layer counts and times the traced campaign
// itself yields.
func campaignLayers(rp *report, w *workload, wd *world, res *result, rpc0 xmlrpc.ClientStats, calls *callLog) {
	runs := float64(res.completed)
	wall := res.wall.Seconds()

	rp.set("core.alloc_kb_per_run", ratio(float64(res.allocBytes)/1024, runs))
	rp.set("core.gc_cycles", float64(res.gcCycles))
	rp.set("core.gc_pause_ms", float64(res.gcPauseNS)/1e6)

	var prep, exec, coll []float64
	for _, c := range res.rec.cuts {
		if c.init.IsZero() || c.exit.IsZero() {
			continue
		}
		prep = append(prep, ms(c.init.Sub(c.start)))
		exec = append(exec, ms(c.exit.Sub(c.init)))
		coll = append(coll, ms(c.end.Sub(c.exit)))
	}
	rp.set("master.prepare_ms_p50", median(prep))
	rp.set("master.execute_ms_p50", median(exec))
	rp.set("master.collect_ms_p50", median(coll))
	rp.set("master.virtual_s_per_host_s", ratio(res.rec.virtual.Seconds(), wall))

	rp.set("sched.switches_per_run", ratio(float64(res.switches), runs))
	rp.set("sched.timers_per_run", ratio(float64(res.timers), runs))

	st := res.net
	dropped := float64(st.DroppedTotal())
	rp.set("netem.tx_per_s", ratio(float64(st.Transmissions), wall))
	rp.set("netem.tx_per_run", ratio(float64(st.Transmissions), runs))
	rp.set("netem.delivered_per_run", ratio(float64(st.Delivered), runs))
	rp.set("netem.drop_ratio", ratio(dropped, float64(st.Delivered)+dropped))
	rp.set("netem.dup_suppressed_per_run", ratio(float64(st.Duplicates), runs))

	rp.set("fault.traffic_pkts_per_run", ratio(float64(res.rec.trafficPkts), runs))

	sd := sdStatsOf(metrics.FromReport(wd.exp, res.rep, "", ""))
	rp.set("sd.R_1s", sd.r1s)
	rp.set("sd.t_R_ms_mean", sd.trMeanMS)
	rp.set("sd.t_R_ms_p90", sd.trP90MS)
	rp.note("sd_complete_runs", sd.complete)

	if w.kind != kindRPC {
		return
	}
	rpc := wd.rpcStats()
	rp.set("xmlrpc.calls_per_run", ratio(float64(rpc.Calls-rpc0.Calls), runs))
	rp.set("xmlrpc.retries", float64(rpc.Retries))
	rp.set("xmlrpc.failures", float64(rpc.Failures))
	forwarded := 0
	for _, n := range res.rec.evCount {
		forwarded += n
	}
	rp.set("noderpc.events_forwarded_per_run", ratio(float64(forwarded), runs))
	byOp := make([][]float64, nHandleOps)
	busy := 0.0
	for _, c := range calls.snapshot() {
		d := c.end.Sub(c.start)
		byOp[c.op] = append(byOp[c.op], us(d))
		busy += d.Seconds()
	}
	for op := opPrepare; op <= opCleanup; op++ {
		rp.set("noderpc."+handleOpNames[op]+"_us_p50", median(byOp[op]))
	}
	rp.set("noderpc.rpc_share", ratio(busy, wall))
}

// shares estimates what part of the campaign's wall time two layers
// account for: their counts in the campaign times their unit cost in
// isolation. An estimate, because the isolated cost is a best case.
func shares(rp *report, w *workload, res *result) {
	wallNS := float64(res.wall.Nanoseconds())
	rp.set("sched.share_est", ratio(
		float64(res.switches)*rp.vals["sched.switch_ns"]+float64(res.timers)*rp.vals["sched.timer_ns"], wallNS))
	unit := rp.vals["netem.unicast_ns"]
	if w.flood {
		unit = rp.vals["netem.flood_ns_per_tx"]
	}
	rp.set("netem.share_est", ratio(float64(res.net.Transmissions)*unit, wallNS))
}

// isolatedLayers runs the isolated drivers of the layers the workload
// exercises, with inputs captured from the traced campaign where a driver
// needs one.
func isolatedLayers(rp *report, w *workload, cfg config, wd *world, res *result, calls *callLog) error {
	rp.set("core.peak_rss_mb", peakRSSMB())
	if w.kind == kindRPC {
		return rpcDrivers(rp, cfg, wd, calls)
	}
	for _, d := range []struct {
		name string
		fn   func() (float64, error)
	}{
		{"sched.timer_ns", cfg.effort.schedTimerNS},
		{"sched.switch_ns", cfg.effort.schedSwitchNS},
		{"netem.unicast_ns", cfg.effort.netemUnicastNS},
		{"netem.flood_ns_per_tx", cfg.effort.netemFloodNSPerTx},
		{"fault.traffic_ns_per_pkt", cfg.effort.faultTrafficNSPerPkt},
	} {
		v, err := d.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		rp.set(d.name, v)
	}
	mid := res.rep.Results[len(res.rep.Results)/2]
	roles := desc.RolesFor(wd.exp, mid.Run)
	rp.set("metrics.extract_us_per_run", cfg.effort.metricsExtractUS(mid.Events, roles["actor0"], roles["actor1"]))
	if !w.durable {
		return nil
	}
	h, err := readHarvest(wd.x.Store(), mid.Run.ID)
	if err != nil {
		return err
	}
	return storeDrivers(rp, cfg, h)
}

// rpcDrivers are the isolated drivers of the control plane. Without a store
// the master never harvests, so the benchmark harvests the last run itself,
// through the timed handles, and feeds the codec driver with what came back.
func rpcDrivers(rp *report, cfg config, wd *world, calls *callLog) error {
	p50, p95, err := cfg.effort.xmlrpcRoundtripUS()
	if err != nil {
		return err
	}
	rp.set("xmlrpc.roundtrip_us_p50", p50)
	rp.set("xmlrpc.roundtrip_us_p95", p95)
	last := wd.plan.Runs[len(wd.plan.Runs)-1].ID
	var events []eventlog.Event
	for _, h := range wd.sortedHandles() {
		events = append(events, h.HarvestEvents(last)...)
	}
	var harvests []float64
	for _, c := range calls.snapshot() {
		if c.op == opHarvest {
			harvests = append(harvests, us(c.end.Sub(c.start)))
		}
	}
	rp.set("noderpc.harvest_us_p50", median(harvests))
	enc, dec, err := cfg.effort.xmlrpcCodecUS(events)
	if err != nil {
		return err
	}
	rp.set("xmlrpc.encode_us", enc)
	rp.set("xmlrpc.decode_us", dec)
	return nil
}
