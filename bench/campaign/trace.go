package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"excovery/internal/obs"
)

// spanWriter records the benchmark's own spans. The cuts are taken while
// the program runs (two clock reads per boundary, nothing else), and the
// spans are written from them afterwards through a tracer whose clock the
// writer sets, so tracing costs the traced run next to nothing and the
// spans stay in memory until the run is over.
type spanWriter struct {
	tr  *obs.Tracer
	now time.Time
}

func newSpanWriter() *spanWriter {
	sw := &spanWriter{}
	sw.tr = obs.NewTracer(func() time.Time { return sw.now })
	return sw
}

func (sw *spanWriter) span(parent uint64, track, cat, name string, run int, start, end time.Time) uint64 {
	sw.now = start
	id := sw.tr.Begin(parent, track, cat, name, run, 0, nil)
	sw.now = end
	sw.tr.End(id)
	return id
}

const benchTrack = "bench"

// setup writes setup > {desc.parse, desc.plan, core.new, warmup} for every
// set-up repetition.
func (sw *spanWriter) setup(cuts []setupCut) {
	for i, c := range cuts {
		root := sw.span(0, benchTrack, "setup", fmt.Sprintf("setup %d", i), -1, c.start, c.end)
		t := c.start
		for _, part := range []struct {
			name string
			d    time.Duration
		}{{"desc.parse", c.parse}, {"desc.plan", c.planning}, {"core.new", c.wiring}} {
			sw.span(root, benchTrack, "setup", part.name, -1, t, t.Add(part.d))
			t = t.Add(part.d)
		}
		sw.span(root, benchTrack, "setup", "warmup", -1, t, c.end)
	}
}

// campaign writes campaign > run N > {prepare, execute, collect}, and under
// each phase the node-handle calls the decorator timed in it, one lane per
// node because the master fans them out.
func (sw *spanWriter) campaign(cuts []phases, calls *callLog) {
	if len(cuts) == 0 {
		return
	}
	var logged []call
	if calls != nil {
		logged = calls.snapshot()
		sort.Slice(logged, func(i, j int) bool { return logged[i].start.Before(logged[j].start) })
	}
	root := sw.span(0, benchTrack, "campaign", "campaign", -1, cuts[0].start, cuts[len(cuts)-1].end)
	next := 0
	for _, c := range cuts {
		run := sw.span(root, benchTrack, "run", fmt.Sprintf("run %d", c.run), c.run, c.start, c.end)
		if c.init.IsZero() || c.exit.IsZero() {
			continue
		}
		parts := []struct {
			name       string
			start, end time.Time
			id         uint64
		}{
			{name: "prepare", start: c.start, end: c.init},
			{name: "execute", start: c.init, end: c.exit},
			{name: "collect", start: c.exit, end: c.end},
		}
		for i := range parts {
			p := &parts[i]
			p.id = sw.span(run, benchTrack, "phase", p.name, c.run, p.start, p.end)
		}
		for ; next < len(logged) && logged[next].start.Before(c.end); next++ {
			k := logged[next]
			parent := parts[0].id
			for _, p := range parts[1:] {
				if !k.start.Before(p.start) {
					parent = p.id
				}
			}
			sw.span(parent, "node:"+k.node, "rpc", handleOpNames[k.op], c.run, k.start, k.end)
		}
	}
}

// passes writes finalize > {condition, save, open} and analyze > {fromdb,
// packets} for every traced level-3 pass.
func (sw *spanWriter) passes(ps []passCut) {
	for i, p := range ps {
		fin := sw.span(0, benchTrack, "pass", fmt.Sprintf("finalize %d", i), -1, p.start, p.opened)
		sw.span(fin, benchTrack, "store", "condition", -1, p.start, p.conditioned)
		sw.span(fin, benchTrack, "store", "save", -1, p.conditioned, p.saved)
		sw.span(fin, benchTrack, "store", "open", -1, p.saved, p.opened)
		an := sw.span(0, benchTrack, "pass", fmt.Sprintf("analyze %d", i), -1, p.opened, p.end)
		sw.span(an, benchTrack, "metrics", "fromdb", -1, p.opened, p.extracted)
		sw.span(an, benchTrack, "metrics", "packets", -1, p.extracted, p.end)
	}
}

// writeTrace exports the spans as a Chrome trace (chrome://tracing,
// Perfetto) to <outDir>/<workload>.trace.json.
func writeTrace(outDir, workload string, spans []obs.Span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, workload+".trace.json"), obs.ChromeTrace(spans), 0o644)
}
