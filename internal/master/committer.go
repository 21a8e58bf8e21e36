package master

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/obs"
	"excovery/internal/store"
)

// nodeHarvest is one node's collected measurements of a run, detached
// from the node handle so the disk commit can proceed while the next run
// reuses the handle.
type nodeHarvest struct {
	events  []eventlog.Event
	packets []store.PacketRecord
	extras  []store.ExtraMeasurement
}

// harvestData is one run's fully collected measurements: everything the
// staged level-2 commit needs, and nothing that still aliases live node
// or recorder state. Collection happens in the run loop (node packet and
// extra buffers are cleared on read and reset by the next PrepareRun);
// only the disk commit is pipelined.
type harvestData struct {
	run      desc.Run
	nodes    []nodeHarvest // slot-indexed by Master.order
	env      []eventlog.Event
	trace    []byte
	campaign []byte
	info     store.RunInfo
}

// collectHarvest snapshots one run's measurements from the node handles
// (fanned out under the same bound as the other broadcast sites), the
// master's own recorder and the tracer. Must run in task context.
func (m *Master) collectHarvest(run desc.Run, rr *RunResult) *harvestData {
	hd := &harvestData{run: run, nodes: make([]nodeHarvest, len(m.order))}
	fanOut(m.cfg.Fanout, len(m.order), func(slot int) {
		h := m.cfg.Nodes[m.order[slot]]
		// Harvest runs after the run span closed; detach the stale parent
		// so host-side harvest spans stay roots of their own track.
		setTraceParent(h, 0)
		hd.nodes[slot] = nodeHarvest{
			events:  h.HarvestEvents(run.ID),
			packets: h.HarvestPackets(),
			extras:  h.HarvestExtras(),
		}
	})
	hd.env = m.envEvents(run.ID)
	// Level-2 trace artifact: the run's closed spans (all attempts so far)
	// merged with the harvested node-host spans into one coherent document
	// — the hosts' seeded id spaces keep cross-process parent links
	// unambiguous. Exportable as a Chrome trace by excovery-report, with
	// one lane per track (master, host:...).
	if m.cfg.Tracer != nil {
		spans := m.cfg.Tracer.RunSpans(run.ID)
		spans = append(spans, m.harvestNodeTraces(run.ID)...)
		if len(spans) > 0 {
			hd.trace = obs.MarshalSpans(spans)
		}
	}
	// Campaign metric fan-in (DESIGN.md §13): collect each host's registry
	// snapshot, fold it into the master's /metrics, and persist the run's
	// campaign_metrics.json artifact.
	hd.campaign = m.fanInMetrics(run.ID).encode()
	hd.info = store.RunInfo{Run: run.ID, Start: rr.Start, Offsets: rr.Offsets,
		Attempts: rr.Attempts}
	return hd
}

// commitHarvest writes collected measurements through the atomic
// stage-and-commit: everything, the done marker of a completed run
// included, lands in a staging directory and is renamed into the level-2
// hierarchy in one step, so a crash mid-harvest can never leave a
// half-written run directory for conditioning to ingest, nor a committed
// run without its marker. A write the store refuses — a full or read-only
// disk — aborts the stage, so a truncated harvest is never committed.
// Safe to call from the committer goroutine: it touches only the store
// and the job's own data.
func (m *Master) commitHarvest(hd *harvestData) error {
	sr, err := m.cfg.Store.StageRun(hd.run.ID)
	if err != nil {
		return err
	}
	if err := m.stageHarvest(sr.Store(), hd); err != nil {
		sr.Abort()
		return err
	}
	if err := sr.Commit(); err != nil {
		sr.Abort()
		return err
	}
	return nil
}

// stageHarvest writes one run's measurements into the staging store, and
// the done marker unless the harvest is partial. Each file is a job of its
// own (a node's extras are one job, in the order the node recorded them),
// and the jobs run under fanOut bounded by GOMAXPROCS, not Config.Fanout:
// they touch no node handle, only the store and the job's own data, and
// encoding and fsyncing are what they spend. It returns once every job
// has returned, with the error of the lowest job that failed, so the
// caller's Abort never races a writer. With GOMAXPROCS 1 the jobs run in
// order on the caller's goroutine.
func (m *Master) stageHarvest(st *store.RunStore, hd *harvestData) error {
	run := hd.run.ID
	var jobs []func() error
	for slot, id := range m.order {
		nh := &hd.nodes[slot]
		jobs = append(jobs,
			func() error { return st.WriteEvents(run, id, nh.events) },
			func() error { return st.WritePackets(run, id, nh.packets) })
		if len(nh.extras) > 0 {
			jobs = append(jobs, func() error {
				for _, x := range nh.extras {
					if err := st.WriteExtra(run, x.Node, x.Name, x.Content); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	jobs = append(jobs, func() error { return st.WriteEvents(run, "env", hd.env) })
	if len(hd.trace) > 0 {
		jobs = append(jobs, func() error {
			return st.WriteExtra(run, "master", "trace.json", hd.trace)
		})
	}
	if len(hd.campaign) > 0 {
		jobs = append(jobs, func() error {
			return st.WriteExtra(run, "master", "campaign_metrics.json", hd.campaign)
		})
	}
	jobs = append(jobs, func() error { return st.WriteRunInfo(hd.info) })
	if !hd.info.Partial {
		jobs = append(jobs, func() error { return st.MarkRunDone(run) })
	}
	errs := make([]error, len(jobs))
	fanOut(runtime.GOMAXPROCS(0), len(jobs), func(i int) { errs[i] = jobs[i]() })
	return cmp.Or(errs...)
}

// commitQueueDepth bounds how many committed-but-unwritten runs the
// pipeline may hold: enough to overlap run N+1's preparation with run
// N's disk commit, small enough that a slow disk backpressures the run
// loop instead of buffering an unbounded measurement backlog.
const commitQueueDepth = 2

// pendingEvent is an event the committer wants emitted. The recorder and
// bus are task-context-only, so the committer queues events under its
// own mutex and the run loop emits them at the next drain point.
type pendingEvent struct {
	typ    string
	params map[string]string
}

// committer is the single background goroutine that performs the durable
// tail of a successful run: the staged level-2 commit, whose rename
// publishes the data and the done marker together, then the journal's
// completion record. A crash leaves a run either without data and marker
// (a journal End without Done resumes as in-doubt and is re-executed) or
// with both (resumes as skipped, with or without the journal Done).
// Run N+1's preparation overlaps run N's disk commit; the run loop
// drains the queue on retry, failure, crash and experiment exit.
type committer struct {
	m    *Master
	jobs chan *harvestData
	wg   sync.WaitGroup // counts enqueued-but-uncommitted jobs
	quit chan struct{}  // closed when the worker exited

	mu     sync.Mutex
	events []pendingEvent
}

func newCommitter(m *Master) *committer {
	c := &committer{m: m, jobs: make(chan *harvestData, commitQueueDepth),
		quit: make(chan struct{})}
	go c.loop()
	return c
}

func (c *committer) loop() {
	defer close(c.quit)
	for hd := range c.jobs {
		c.commit(hd)
		c.wg.Done()
	}
}

// commit performs one job. Counters are atomic and safe from this
// goroutine; events are deferred to the next drain.
func (c *committer) commit(hd *harvestData) {
	m := c.m
	if err := m.commitHarvest(hd); err != nil {
		// Neither marker nor journal Done: the run stays re-executable.
		c.noteEvent(eventlog.EvRunHarvestFailed, map[string]string{
			"run": fmt.Sprint(hd.run.ID), "err": err.Error()})
		return
	}
	if m.cfg.Journal != nil {
		if err := m.cfg.Journal.Done(hd.run.ID); err != nil {
			m.counter(obs.MJournalWriteErrors,
				"failed write-ahead journal appends").Inc()
			c.noteEvent(eventlog.EvJournalWriteFailed,
				map[string]string{"err": err.Error()})
		} else {
			m.counter(obs.MJournalRecords,
				"write-ahead journal records appended").Inc()
		}
	}
}

func (c *committer) noteEvent(typ string, params map[string]string) {
	c.mu.Lock()
	c.events = append(c.events, pendingEvent{typ: typ, params: params})
	c.mu.Unlock()
}

// enqueue hands one run's collected measurements to the worker; it
// blocks (backpressure) when commitQueueDepth runs are already pending.
func (c *committer) enqueue(hd *harvestData) {
	c.wg.Add(1)
	c.jobs <- hd
}

// drain blocks until every enqueued commit finished, then emits the
// events the committer queued. Must run in task context.
func (c *committer) drain(rec *eventlog.Recorder) {
	c.wg.Wait()
	c.mu.Lock()
	evs := c.events
	c.events = nil
	c.mu.Unlock()
	for _, e := range evs {
		rec.Emit(e.typ, e.params)
	}
}

// stop drains and terminates the worker.
func (c *committer) stop(rec *eventlog.Recorder) {
	c.drain(rec)
	close(c.jobs)
	<-c.quit
}

// drainCommits flushes the commit pipeline: every pending durable commit
// completes and the committer's deferred events are emitted. Called at
// the ordering barriers — before a run is re-attempted, before a failed
// run's partial harvest, before a crash failpoint fires, and at
// experiment exit — so crash/resume semantics and event placement stay
// those of the sequential master.
func (m *Master) drainCommits() {
	if m.commits != nil {
		m.commits.drain(m.rec)
	}
}

// stopCommitter drains and shuts down the pipeline (idempotent).
func (m *Master) stopCommitter() {
	if m.commits != nil {
		m.commits.stop(m.rec)
		m.commits = nil
	}
}
