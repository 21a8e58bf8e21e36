package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"excovery/internal/desc"
	"excovery/internal/metrics"
	"excovery/internal/store"
)

// passCut are the wall-clock cuts of one finalize+analyze pass.
type passCut struct {
	start, conditioned, saved, opened, extracted, end time.Time
}

// pass is what one pass over the level-2 store yields.
type pass struct {
	cut passCut
	// perRun is the time of each run's packet analysis, in ms.
	perRun []float64
	// selects is the time of each run's EventsOfRun + PacketsOfRun, in µs
	// (traced passes only).
	selects []float64
	ms      []metrics.RunMetric
	db      *store.ExperimentDB
	fileMB  float64
	// packets and pairs are what the packet analysis saw.
	packets, pairs int
}

// onePass takes the level-2 store to the level-3 file and on to the R / t_R
// table and the per-run packet statistics — the part of a campaign that
// starts when the last run is committed.
func onePass(wd *world, xml, path, suNode string, traced bool) (*pass, error) {
	p := &pass{}
	runtime.GC()
	p.cut.start = wallNow()
	db, err := store.Condition(wd.x.Store(), store.Meta{ExpXML: xml, Name: wd.exp.Name, Comment: wd.exp.Comment})
	if err != nil {
		return nil, fmt.Errorf("condition: %w", err)
	}
	p.cut.conditioned = wallNow()
	if err := db.Save(path); err != nil {
		return nil, fmt.Errorf("save level 3: %w", err)
	}
	p.cut.saved = wallNow()
	if p.db, err = store.OpenExperimentDB(path); err != nil {
		return nil, fmt.Errorf("open level 3: %w", err)
	}
	p.cut.opened = wallNow()
	if p.ms, err = metrics.FromDB(p.db, "", ""); err != nil {
		return nil, fmt.Errorf("metrics from level 3: %w", err)
	}
	p.cut.extracted = wallNow()
	ids, err := p.db.RunIDs()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		t0 := wallNow()
		pkts, err := p.db.PacketsOfRun(id)
		if err != nil {
			return nil, err
		}
		st := metrics.AnalyzePackets(pkts)
		pairs := metrics.QueryPairs(pkts, suNode)
		p.perRun = append(p.perRun, ms(wallNow().Sub(t0)))
		p.packets += st.TxCount + st.RxCount
		p.pairs += len(pairs)
	}
	p.cut.end = wallNow()
	if traced {
		for _, id := range ids {
			t0 := wallNow()
			if _, err := p.db.EventsOfRun(id); err != nil {
				return nil, err
			}
			if _, err := p.db.PacketsOfRun(id); err != nil {
				return nil, err
			}
			p.selects = append(p.selects, us(wallNow().Sub(t0)))
		}
	}
	if fi, err := os.Stat(path); err == nil {
		p.fileMB = float64(fi.Size()) / (1 << 20)
	}
	return p, nil
}

// sameMetrics is level3-analyze's output check: R and t_R read back from
// the level-3 database must be the ones the campaign's report gives.
func sameMetrics(fromDB, fromReport []metrics.RunMetric) error {
	if len(fromDB) != len(fromReport) {
		return fmt.Errorf("level 3 has %d runs, the report %d", len(fromDB), len(fromReport))
	}
	byID := map[int]metrics.RunMetric{}
	for _, m := range fromReport {
		byID[m.RunID] = m
	}
	for _, m := range fromDB {
		r, ok := byID[m.RunID]
		if !ok || r.Complete != m.Complete || r.TR != m.TR || r.Found != m.Found {
			return fmt.Errorf("run %d: level 3 gives complete=%v t_R=%s, the report complete=%v t_R=%s",
				m.RunID, m.Complete, m.TR, r.Complete, r.TR)
		}
	}
	return nil
}

// measureLevel3 is one invocation on level3-analyze. Set-up builds the
// level-2 store (a durable campaign of the light treatment); the timed part
// is passes over it.
func measureLevel3(w *workload, cfg config) (*report, error) {
	rp := newReport()
	z := w.sizeFor(cfg.seconds, false)
	rp.note("store_runs", z.runs)

	// Set-up: the store of the last repetition is the one analysed.
	text, err := encode(w.describe(z.reps))
	if err != nil {
		return nil, err
	}
	p, res, err := repeatSetUp(rp, "store campaign", func(i int) (*prepared, *result, error) {
		p := &prepared{text: text, dir: filepath.Join(cfg.scratch, fmt.Sprintf("store-%d", i))}
		p.rec, p.hk = newRecorder(w, false)
		var err error
		if p.wd, err = build(w, text, cfg.seed, p.dir, p.hk); err != nil {
			return nil, nil, err
		}
		res, err := execute(w, p.wd, p.rec)
		return p, res, err
	})
	if err != nil {
		return nil, err
	}
	wd, dir, cuts := p.wd, p.dir, p.cuts
	rp.note("sim_digest", res.digest)
	fromReport := metrics.FromReport(wd.exp, res.rep, "", "")
	suNode := ""
	if su := desc.RolesFor(wd.exp, wd.plan.Runs[0])["actor1"]; len(su) > 0 {
		suNode = su[0]
	}

	path := filepath.Join(cfg.scratch, "level3.xcdb")
	runPass := func(traced bool) (*pass, error) {
		p, err := onePass(wd, text, path, suNode, traced)
		if err != nil {
			return nil, err
		}
		if err := sameMetrics(p.ms, fromReport); err != nil {
			rp.failed++
			rp.check(err)
		}
		return p, nil
	}
	if _, err := runPass(false); err != nil { // warm-up pass, not timed
		return nil, err
	}

	untraced, traced := z.passes, 0
	if cfg.traced {
		untraced = (z.passes + 1) / 2
		traced = z.passes - untraced
		if traced == 0 {
			traced = 1
		}
	}
	var plain, instr []*pass
	rp.attempted = untraced + traced
	for i := 0; i < untraced; i++ {
		p, err := runPass(false)
		if err != nil {
			return nil, err
		}
		p.db = nil
		plain = append(plain, p)
	}
	rate, perRun := passRate(plain, z.runs)
	rp.set("runs_per_s", rate)
	rp.set("run_ms_p50", quantile(perRun, 0.5))
	rp.set("run_ms_p95", quantile(perRun, 0.95))
	rp.note("run_samples", len(perRun))
	rp.note("passes", len(plain))
	rp.note("packets_per_pass", plain[0].packets)
	rp.note("query_pairs_per_pass", plain[0].pairs)
	if !cfg.traced {
		return rp, discard(wd, dir)
	}

	for i := 0; i < traced; i++ {
		p, err := runPass(true)
		if err != nil {
			return nil, err
		}
		instr = append(instr, p)
	}
	tracedRate, _ := passRate(instr, z.runs)
	rp.set("obs.trace_overhead_pct", 100*ratio(rate-tracedRate, rate))
	setupLayers(rp, cuts)
	level3Layers(rp, instr, z.runs)
	rp.set("store.level2_kb_per_run", ratio(dirKB(dir), float64(z.runs)))
	sd := sdStatsOf(instr[0].ms)
	rp.set("sd.R_1s", sd.r1s)
	rp.set("sd.t_R_ms_mean", sd.trMeanMS)
	rp.set("sd.t_R_ms_p90", sd.trP90MS)

	h, err := readHarvest(wd.x.Store(), wd.plan.Runs[len(wd.plan.Runs)/2].ID)
	if err != nil {
		return nil, err
	}
	if err := storeDrivers(rp, cfg, h); err != nil {
		return nil, err
	}
	ns, err := cfg.effort.reldbInsertNS()
	if err != nil {
		return nil, err
	}
	rp.set("reldb.insert_ns_per_row", ns)
	mid := res.rep.Results[len(res.rep.Results)/2]
	roles := desc.RolesFor(wd.exp, mid.Run)
	rp.set("metrics.extract_us_per_run", cfg.effort.metricsExtractUS(mid.Events, roles["actor0"], roles["actor1"]))
	rp.set("core.peak_rss_mb", peakRSSMB())

	sw := newSpanWriter()
	sw.setup(cuts)
	var pcuts []passCut
	for _, p := range instr {
		pcuts = append(pcuts, p.cut)
	}
	sw.passes(pcuts)
	if err := writeTrace(cfg.outDir, w.name, sw.tr.Spans()); err != nil {
		return nil, err
	}
	return rp, discard(wd, dir)
}

// passRate is the end-to-end rate of a set of passes — level-2 runs taken
// to R / t_R per second — and the per-run analysis times of all of them.
func passRate(ps []*pass, runs int) (float64, []float64) {
	var total time.Duration
	var perRun []float64
	for _, p := range ps {
		total += p.cut.end.Sub(p.cut.start)
		perRun = append(perRun, p.perRun...)
	}
	return ratio(float64(runs*len(ps)), total.Seconds()), perRun
}

// level3Layers books the store, reldb and metrics numbers of the traced
// passes: medians over the passes.
func level3Layers(rp *report, ps []*pass, runs int) {
	var cond, save, open, fin, fromdb, pkts, an, selects []float64
	for _, p := range ps {
		c := p.cut
		cond = append(cond, ms(c.conditioned.Sub(c.start)))
		save = append(save, ms(c.saved.Sub(c.conditioned)))
		open = append(open, ms(c.opened.Sub(c.saved)))
		fin = append(fin, c.opened.Sub(c.start).Seconds())
		fromdb = append(fromdb, ms(c.extracted.Sub(c.opened)))
		pkts = append(pkts, ms(c.end.Sub(c.extracted)))
		an = append(an, c.end.Sub(c.opened).Seconds())
		selects = append(selects, p.selects...)
	}
	rp.set("store.finalize_s", median(fin))
	rp.set("store.condition_ms", median(cond))
	rp.set("store.save_ms", median(save))
	rp.set("store.open_ms", median(open))
	rp.set("metrics.analyze_s", median(an))
	rp.set("metrics.fromdb_ms", median(fromdb))
	rp.set("metrics.packets_ms", median(pkts))
	rp.set("reldb.select_run_us_p50", median(selects))
	last := ps[len(ps)-1]
	rp.set("store.level3_mb", last.fileMB)
	if n, err := last.db.DB.Count("Events"); err == nil {
		rp.set("store.rows_events", float64(n))
	}
	if n, err := last.db.DB.Count("Packets"); err == nil {
		rp.set("store.rows_packets", float64(n))
	}
}

// storeDrivers runs the write-side store drivers on the scratch directory
// and again on a real disk, where every commit pays for its fsyncs.
func storeDrivers(rp *report, cfg config, h *harvest) error {
	for _, at := range []struct {
		suffix, dir string
		n           int
	}{
		{"", filepath.Join(cfg.scratch, "driver"), cfg.effort.n(300)},
		{"_disk", diskDir(cfg.outDir, "driver"), cfg.effort.n(300) / 8},
	} {
		v, err := storeWriteRunUS(filepath.Join(at.dir, "store"), h, at.n)
		if err != nil {
			return err
		}
		rp.set("store.write_run_us_p50"+at.suffix, v)
		if v, err = journalAppendUS(filepath.Join(at.dir, "journal"), at.n); err != nil {
			return err
		}
		rp.set("store.journal_append_us_p50"+at.suffix, v)
		if err := os.RemoveAll(at.dir); err != nil {
			return err
		}
	}
	return nil
}
