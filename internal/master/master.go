// Package master implements the ExperiMaster (§VI-A, Figs. 3 and 12): the
// controlling entity that executes experiment runs as specified in the
// abstract description.
//
// For every run the master performs the three phases of §IV-C1:
//
//	preparation — the environment is reset to a defined initial working
//	    condition (leftover packets dropped, faults cleared, caches
//	    flushed) and the per-node clock offsets are measured;
//	execution — the experiment, manipulation and environment processes
//	    run concurrently, synchronized through the event bus;
//	clean-up — every participant is terminated, measurements are
//	    harvested into the level-2 store.
//
// The master generates the treatment plan from the description, executes
// runs in plan order, and resumes aborted experiments by skipping runs the
// level-2 store marks as done.
package master

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/obs"
	"excovery/internal/process"
	"excovery/internal/sched"
	"excovery/internal/seeds"
	"excovery/internal/store"
	"excovery/internal/timesync"
	"excovery/internal/vclock"
)

// ErrCrashed is returned by RunAll when a crash failpoint fired and no
// CrashFn is configured: the run loop stops dead without any clean-up or
// journaling, leaving on-disk state exactly as a process kill would.
// In-process crash-recovery tests run to this error, then resume.
var ErrCrashed = errors.New("master: crash failpoint fired")

// NodeHandle is the master's view of one participating node. The emulated
// platform backs it with an in-process node.Manager; the distributed
// deployment backs it with an XML-RPC proxy. The paper's node object
// semantics ("uses locking to allow only one access at a time") hold
// trivially under the cooperative scheduler.
type NodeHandle interface {
	// ID is the platform node id.
	ID() string
	// PrepareRun resets the node for a run (preparation phase).
	PrepareRun(run int)
	// CleanupRun terminates the run on the node (clean-up phase).
	CleanupRun(run int)
	// Execute performs one experiment action.
	Execute(action string, params map[string]string) error
	// Emit records an event on the node (event_flag).
	Emit(typ string, params map[string]string)
	// LocalTime reads the node's local clock (time sync probe).
	LocalTime() time.Time
	// HarvestEvents returns the node's recorded events of the run.
	HarvestEvents(run int) []eventlog.Event
	// HarvestPackets returns and clears the node's packet captures.
	HarvestPackets() []store.PacketRecord
	// HarvestExtras returns and clears the node's plugin measurements
	// (§IV-B5).
	HarvestExtras() []store.ExtraMeasurement
}

// EnvExecutor performs environment actions (traffic generation, drop-all)
// for the platform. Reset is called during run preparation and clean-up to
// stop leftover manipulations.
type EnvExecutor interface {
	Execute(action string, params map[string]string) error
	Reset()
}

// HealthChecker is an optional NodeHandle extension. When implemented
// (the XML-RPC proxy does), the master probes it before every run attempt;
// a failed probe fails that attempt, which run-level retry and fleet
// failover then handle. A node that answers again is used by the next
// attempt.
type HealthChecker interface {
	// Health returns nil when the node is reachable and serviceable.
	Health() error
}

// runErrorer is an optional NodeHandle and EnvExecutor extension
// reporting the first control-channel error of the current run
// (noderpc.RemoteNode, noderpc.RemoteEnv). The master uses it to fail runs
// whose measurements silently went missing or whose environment was not
// reset.
type runErrorer interface {
	Err() error
}

// eventCarrier is an optional NodeHandle and EnvExecutor extension
// (noderpc.RemoteNode, noderpc.RemoteEnv) for handles whose node events come
// back in the replies of the calls that recorded them (DESIGN.md §20).
// TakeEvents returns those not taken yet, in record order. The master
// publishes them on its bus right after each Execute, Emit and environment
// call and after each broadcast phase, in node order. In-process handles
// publish as they record and do not implement it.
type eventCarrier interface {
	TakeEvents() []eventlog.Event
}

// traceParentSetter is an optional NodeHandle extension (noderpc.RemoteNode
// implements it): the master hands the handle the span id under which its
// next control-channel calls should parent, and the handle carries it
// across the wire as call metadata (DESIGN.md §13).
type traceParentSetter interface {
	SetTraceParent(id uint64)
}

// traceHarvester is an optional NodeHandle extension returning the node
// host's closed spans of one run, merged into the per-run trace.json.
type traceHarvester interface {
	HarvestTrace(run int) []obs.Span
}

// metricSnapshotter is an optional NodeHandle extension for the campaign
// metric fan-in: ObsSnapshot ships the node host's registry contents over
// the control channel, once per host group.
type metricSnapshotter interface {
	ObsSnapshot() ([]obs.MetricPoint, error)
}

// hostMember is an optional NodeHandle extension (noderpc.RemoteNode
// implements it) for handles whose node shares a backing host with others.
// ObsSource names the host. The master groups the handles by it once, and
// each broadcast phase of a run — preflight, prepare, time sync, clean-up —
// then makes one control-channel call per group: on the group's first
// handle, naming every member in node order. A failed group call counts
// against every member. Handles without the extension are groups of one
// and get the per-node calls of NodeHandle and HealthChecker.
type hostMember interface {
	ObsSource() string
	GroupHealth(group []NodeHandle) error
	GroupPrepareRun(group []NodeHandle, run int)
	GroupLocalTime(group []NodeHandle) ([]time.Time, error)
	GroupCleanupRun(group []NodeHandle, run int)
}

// Placement is one host's way of serving the run's nodes: the handles and
// environment executor the master drives until the next failover.
type Placement struct {
	// HostID names the backing host.
	HostID string
	// Nodes must hold a handle for every id of Config.Nodes.
	Nodes map[string]NodeHandle
	Env   EnvExecutor
}

// FleetManager is the master's hook into a discovery-backed host fleet
// (internal/discovery.Fleet implements it). Failover re-places the run's
// nodes onto a surviving or newly joined host after the active one died
// and returns the replacement's placement, which the master drives from
// the next attempt on.
type FleetManager interface {
	Failover(run int, nodeErrs map[string]string) (Placement, error)
}

// setTraceParent forwards a span id to handles that propagate it.
func setTraceParent(h NodeHandle, id uint64) {
	if t, ok := h.(traceParentSetter); ok {
		t.SetTraceParent(id)
	}
}

// RetryPolicy controls run-level recovery: §IV-C1's "aborted experiments
// resume" extended from resume-on-restart to retry-in-place.
type RetryPolicy struct {
	// MaxAttempts is how often one run may be attempted before it is
	// recorded as failed; values <= 1 mean a single attempt.
	MaxAttempts int
}

// Config assembles a master.
type Config struct {
	// Exp is the experiment description (level 1).
	Exp *desc.Experiment
	// S is the scheduler everything runs on.
	S *sched.Scheduler
	// Bus is the master's event bus.
	Bus *eventlog.Bus
	// Nodes maps platform node ids to handles. Every platform actor
	// node of the description must be present.
	Nodes map[string]NodeHandle
	// Fanout bounds how many control-channel operations run concurrently
	// during the broadcast phases of a run: one per host group for
	// preflight, prepare, timesync and clean-up (see hostMember), one per
	// node for harvest collection. Values <= 1 keep the strictly
	// sequential order — required for the in-process emulated platform,
	// whose handles publish into the cooperative scheduler's event bus
	// and are not safe for concurrent use. The distributed master sets it
	// to the number of nodes; its XML-RPC proxies are goroutine-safe.
	Fanout int
	// Env executes environment actions; nil disallows env processes.
	Env EnvExecutor
	// Store receives level-2 data; nil keeps measurements in memory
	// only (events remain available through the Report).
	Store *store.RunStore
	// Ref is the master's reference clock; nil means the scheduler
	// clock.
	Ref vclock.Clock
	// MaxRunTime bounds one run's execution phase; 0 means 120 s.
	MaxRunTime time.Duration
	// Resume skips runs already marked done in the store.
	Resume bool
	// Retry configures run-level retry.
	Retry RetryPolicy
	// Journal, if set, is the write-ahead run journal: the master records
	// every attempt's begin/end and every durable completion, and on
	// Resume replays it to discard and re-execute runs that died
	// mid-attempt in a crashed session.
	Journal *store.Journal
	// PlatformSeed, if non-zero, records the emulated platform's
	// effective seed in the plan manifest; resume refuses a store taken
	// under a different one. The distributed master leaves it zero (its
	// platform lives on the node host).
	PlatformSeed int64
	// Failpoints, if set, is consulted at the master's failpoint sites
	// (currently failpoint.SiteMasterAttempt for crash injection).
	Failpoints *failpoint.Registry
	// CrashFn is invoked when a crash failpoint fires; it must not
	// return. Nil makes RunAll return ErrCrashed instead (in-process
	// crash simulation for tests). The daemons pass os.Exit.
	CrashFn func()
	// OnRunDone, if set, observes each completed run.
	OnRunDone func(run desc.Run, rr RunResult)
	// Fleet, if set, is the self-healing placement hook (DESIGN.md §14):
	// when a run attempt fails with control-channel node errors and
	// attempts remain, the master asks the fleet to re-place the run's
	// nodes onto a replacement host before the next attempt, and resets
	// the /status health records that described the dead host.
	Fleet FleetManager
	// TopologyMeasure, if set, returns a serialized topology snapshot;
	// it is recorded before and after the experiment (§IV-B4).
	TopologyMeasure func() string
	// Tracer, if set, records the hierarchical execution trace
	// (experiment → run → phase → action); per-run spans are harvested
	// into the level-2 store as trace.json.
	Tracer *obs.Tracer
	// Status, if set, tracks the live execution state served on the obs
	// /status endpoint.
	Status *obs.Status
	// Metrics, if set, receives the run loop's counters (runs
	// completed/retried/partial, health probes).
	Metrics *obs.Registry
}

// RunResult summarizes one executed run.
type RunResult struct {
	// Run is the plan entry.
	Run desc.Run
	// Start is the run's start on the reference clock.
	Start time.Time
	// Duration is the wall (virtual) duration of the run.
	Duration time.Duration
	// Timeouts counts expired waits across all processes.
	Timeouts int
	// Err is the first process error, if any.
	Err error
	// Aborted reports that MaxRunTime expired before all processes
	// finished.
	Aborted bool
	// Events are the run's events in bus order.
	Events []eventlog.Event
	// Offsets are the per-node clock measurements of the preparation
	// phase.
	Offsets []timesync.Measurement
	// Skipped marks a run skipped by resume.
	Skipped bool
	// Attempts is the number of in-place attempts this result consumed
	// (1 without retry).
	Attempts int
	// Partial marks that measurements of this failed/aborted run were
	// harvested into the store for post-mortem analysis.
	Partial bool
	// NodeErrs maps node ids to their first control-channel error of the
	// final attempt.
	NodeErrs map[string]string
}

// Report summarizes an experiment execution.
type Report struct {
	// Plan is the executed treatment plan.
	Plan *desc.Plan
	// Results holds one entry per run, in execution order.
	Results []RunResult
	// Completed counts successfully executed runs.
	Completed int
	// Skipped counts runs skipped by resume.
	Skipped int
	// Failed counts runs that failed or aborted all their attempts.
	Failed int
	// Retried counts runs that needed more than one attempt.
	Retried int
	// Recovered counts runs whose partial state from a crashed session
	// was discarded (journal replay) before they were re-executed.
	Recovered int
	// HealthProbes and HealthFailures count preflight node probes.
	HealthProbes   int
	HealthFailures int
}

// Master executes experiments.
type Master struct {
	cfg    Config
	rec    *eventlog.Recorder // the master's own events (node "env")
	est    *timesync.Estimator
	plan   *desc.Plan
	order  []string // node ids in deterministic (sorted) order, cached
	expXML string   // the level-1 description document, encoded once
	// groups partitions order by backing host (hostMember); rebuilt when a
	// failover swaps the handles.
	groups []*hostGroup

	// commits is the background commit pipeline of the current RunAll
	// (nil outside RunAll or without a store).
	commits *committer

	// Preflight probe accounting for the Report.
	probes     int
	probeFails int

	// Observability: the open experiment span (parent of all run spans).
	expSpan uint64
}

// New validates the description, generates the plan and assembles a
// master.
func New(cfg Config) (*Master, error) {
	if cfg.Exp == nil || cfg.S == nil || cfg.Bus == nil {
		return nil, fmt.Errorf("master: Exp, S and Bus are required")
	}
	if err := desc.Validate(cfg.Exp); err != nil {
		return nil, fmt.Errorf("master: invalid description: %w", err)
	}
	plan, err := desc.GeneratePlan(cfg.Exp)
	if err != nil {
		return nil, err
	}
	if cfg.Ref == nil {
		cfg.Ref = vclock.Perfect{S: cfg.S}
	}
	if cfg.MaxRunTime == 0 {
		cfg.MaxRunTime = 120 * time.Second
	}
	// Every abstract node must be realized by a handle via the platform
	// mapping.
	for _, pn := range cfg.Exp.Platform.Actors {
		if cfg.Nodes[pn.ID] == nil {
			return nil, fmt.Errorf("master: no handle for platform node %q", pn.ID)
		}
	}
	if cfg.Store != nil {
		// The committer's level-2 writes, conditioning, and Save of the
		// database it returns record into the master's own registry and
		// tracer.
		cfg.Store.Obs = store.Obs{Metrics: cfg.Metrics, Tracer: cfg.Tracer}
	}
	m := &Master{cfg: cfg, plan: plan,
		est: &timesync.Estimator{Ref: cfg.Ref, Samples: 3},
	}
	// Node order and the encoded description are fixed for the master's
	// lifetime; compute them once instead of per use (the description is
	// needed by the manifest, the level-2 store and conditioning, the
	// node order by every broadcast phase of every run).
	m.order = make([]string, 0, len(cfg.Nodes))
	for id := range cfg.Nodes {
		m.order = append(m.order, id)
	}
	sort.Strings(m.order)
	m.groupByHost()
	xml, err := desc.EncodeString(cfg.Exp)
	if err != nil {
		return nil, fmt.Errorf("master: encode description: %w", err)
	}
	m.expXML = xml
	m.rec = eventlog.NewRecorder("env", cfg.Ref, func(ev eventlog.Event) { cfg.Bus.Publish(ev) })
	return m, nil
}

// RunAll executes the whole experiment. It must be called from scheduler
// task context (the facade spawns it as a task).
//
// With Retry.MaxAttempts > 1, failed and aborted runs are re-executed in
// place before being recorded — the §IV-C1 recovery promise extended from
// resume-on-restart to retry-in-place. When a run still fails after the
// final attempt, its measurements are harvested with a partial marker
// instead of being dropped.
func (m *Master) RunAll() (*Report, error) {
	rep := &Report{Plan: m.plan}
	replay, err := m.prepareDurability()
	if err != nil {
		return nil, err
	}
	if m.cfg.Store != nil {
		// The commit pipeline: run N's staged harvest, done marker and
		// journal completion happen on a background goroutine so run
		// N+1's preparation overlaps the disk commit. Every return path
		// drains it first.
		m.commits = newCommitter(m)
		defer m.stopCommitter()
	}
	if err := m.experimentInit(); err != nil {
		return nil, fmt.Errorf("master: experiment init: %w", err)
	}
	maxAttempts := m.cfg.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for _, run := range m.plan.Runs {
		if m.cfg.Resume && (m.cfg.Store != nil && m.cfg.Store.RunDone(run.ID) ||
			replay.Done[run.ID]) {
			rep.Results = append(rep.Results, RunResult{Run: run, Skipped: true})
			rep.Skipped++
			m.counter(obs.MRunsSkipped, "runs skipped by resume").Inc()
			m.cfg.Status.RunFinished("skipped", false)
			continue
		}
		// Journal replay: this run has lifecycle records but no durable
		// completion — the previous session died mid-attempt (or right
		// before commit). Whatever level-2 state it left is
		// untrustworthy; discard it and re-execute from scratch.
		if m.cfg.Resume && m.cfg.Store != nil && replay.InDoubt(run.ID) {
			if err := m.cfg.Store.DiscardRun(run.ID); err != nil {
				return nil, fmt.Errorf("master: run %d: discarding crashed state: %w", run.ID, err)
			}
			rep.Recovered++
			m.counter(obs.MRunsRecovered,
				"crashed runs whose partial state was discarded and re-executed").Inc()
			m.rec.Emit(eventlog.EvRunRecovered, map[string]string{
				"run": fmt.Sprint(run.ID), "attempts": fmt.Sprint(replay.Attempts[run.ID])})
		}
		var rr RunResult
		var hd *harvestData
		for attempt := 1; attempt <= maxAttempts; attempt++ {
			if attempt > 1 {
				// Re-attempt barrier: pending commits of earlier runs
				// finish before this run executes again, keeping the
				// journal's retry ordering that of the serial master.
				m.drainCommits()
			}
			m.journalAppend(m.cfg.Journal.Begin(run.ID, attempt,
				seeds.Derive(seeds.Key{Tag: seeds.Run, Seed: m.cfg.Exp.Seed, Index: int64(run.ID)}), run.TreatmentIndex))
			if d := m.cfg.Failpoints.Eval(failpoint.SiteMasterAttempt); d.Act == failpoint.Crash {
				// Crash barrier: a simulated kill must observe a settled
				// pipeline, exactly like the sequential master at this
				// point (a real kill that beats the drain is covered by
				// journal replay: the in-flight run resumes as in-doubt).
				m.drainCommits()
				m.crash()
				return rep, ErrCrashed
			}
			rr = m.executeRun(run, attempt)
			hd = nil
			if m.cfg.Store != nil && rr.Err == nil && !rr.Aborted {
				// Collection happens here, in task context, before the
				// next PrepareRun resets node state; only the disk commit
				// is pipelined onto the committer. The harvest calls
				// account their errors in the run's window, which was
				// clean when executeRun read it: a failed one fails the
				// attempt, so the run is retried, or recorded failed with
				// what was collected, never committed as done without its
				// measurements.
				hd = m.collectHarvest(run, &rr)
				m.noteNodeErrs(run, &rr, "harvest from node")
			}
			m.journalAppend(m.cfg.Journal.End(run.ID, attempt, outcomeOf(rr), errStringOf(rr)))
			if rr.Err == nil && !rr.Aborted {
				break
			}
			if attempt < maxAttempts {
				// Self-healing fleet (DESIGN.md §14): if the failure looks
				// like a dead backing host, re-place the run's nodes before
				// the next attempt re-executes from the same derived seed.
				m.maybeFailover(run, &rr)
			}
		}
		retried := rr.Attempts > 1
		if retried {
			rep.Retried++
			m.counter(obs.MRunsRetried,
				"runs that needed more than one attempt").Inc()
		}
		if rr.Err == nil && !rr.Aborted {
			// Commit the run durably: staged harvest and done marker
			// renamed into place together, then the journal's completion
			// record.
			if m.cfg.Store != nil {
				m.commits.enqueue(hd)
			} else {
				// No store, no artifact — the campaign fan-in still feeds
				// the live /metrics and /status surfaces, but its document
				// is not encoded.
				m.fanInMetrics(run.ID)
				m.journalAppend(m.cfg.Journal.Done(run.ID))
			}
			rep.Completed++
			m.counter(obs.MRunsCompleted, "successfully executed runs").Inc()
			m.cfg.Status.RunFinished("completed", retried)
		} else {
			// Failure barrier: settle the pipeline before the partial
			// harvest so its store writes cannot interleave with a
			// pending commit.
			m.drainCommits()
			m.harvestPartial(run, &rr, hd)
			rep.Failed++
			m.counter(obs.MRunsFailed,
				"runs that failed all attempts").Inc()
			if rr.Partial {
				m.counter(obs.MRunsPartial,
					"failed runs whose measurements were salvaged").Inc()
			}
			m.cfg.Status.RunFinished("failed", retried)
		}
		rep.Results = append(rep.Results, rr)
		if m.cfg.OnRunDone != nil {
			m.cfg.OnRunDone(run, rr)
		}
	}
	// Exit barrier: every durable commit lands (and its deferred events
	// are emitted) before experiment_exit is recorded.
	m.drainCommits()
	exitErr := m.experimentExit()
	rep.HealthProbes, rep.HealthFailures = m.probes, m.probeFails
	if exitErr != nil {
		return rep, fmt.Errorf("master: experiment exit: %w", exitErr)
	}
	return rep, nil
}

// journalAppend accounts one write-ahead journal append (no-op without a
// journal). Append errors — a full or vanished disk — surface as events
// and a counter rather than aborting the experiment: the journal degrades
// to the pre-journal done-marker guarantees.
func (m *Master) journalAppend(err error) {
	if m.cfg.Journal == nil {
		return
	}
	if err != nil {
		m.counter(obs.MJournalWriteErrors,
			"failed write-ahead journal appends").Inc()
		m.rec.Emit(eventlog.EvJournalWriteFailed, map[string]string{"err": err.Error()})
		return
	}
	m.counter(obs.MJournalRecords,
		"write-ahead journal records appended").Inc()
}

// outcomeOf maps a run result to its journal outcome string.
func outcomeOf(rr RunResult) string {
	switch {
	case rr.Aborted:
		return "aborted"
	case rr.Err != nil:
		return "failed"
	}
	return "ok"
}

func errStringOf(rr RunResult) string {
	if rr.Err != nil {
		return rr.Err.Error()
	}
	return ""
}

// crash honors a fired crash failpoint. The configured CrashFn must not
// return (the daemons pass a hard os.Exit); without one the caller
// unwinds with ErrCrashed, which skips all clean-up and journaling — the
// in-process equivalent of a kill.
func (m *Master) crash() {
	m.counter(obs.MCrashFailpoints, "crash failpoints fired").Inc()
	if m.cfg.CrashFn != nil {
		m.cfg.CrashFn()
		return
	}
	if m.cfg.Journal == nil && m.cfg.Store == nil {
		// A crash without durable state would silently lose runs; make
		// the misconfiguration loud in development.
		fmt.Fprintln(os.Stderr, "master: crash failpoint fired without journal or store")
	}
}

// prepareDurability verifies (on resume) or records the plan manifest and
// surfaces the journal's replay state: which runs completed durably and
// which died mid-attempt in a crashed session.
func (m *Master) prepareDurability() (store.Replay, error) {
	replay := m.cfg.Journal.Replay()
	if m.cfg.Store == nil {
		return replay, nil
	}
	manifest := store.PlanManifest{
		DescriptionHash: store.HashDescription(m.expXML),
		Seed:            m.cfg.Exp.Seed,
		PlanLen:         len(m.plan.Runs),
		PlatformSeed:    m.cfg.PlatformSeed,
		Flags: map[string]string{
			"max_attempts": fmt.Sprint(m.cfg.Retry.MaxAttempts),
			"max_run_time": m.cfg.MaxRunTime.String(),
		},
	}
	if m.cfg.Resume {
		if err := m.cfg.Store.VerifyManifest(manifest); err != nil {
			return replay, err
		}
	}
	if err := m.cfg.Store.WriteManifest(manifest); err != nil {
		return replay, err
	}
	if replay.Records > 0 {
		m.counter(obs.MJournalReplayedRecords,
			"journal records replayed at session start").Add(int64(replay.Records))
	}
	return replay, nil
}

// maybeFailover asks the fleet for a replacement host after a failed
// attempt whose node errors implicate the control channel. On success the
// master takes the replacement's handles — nothing is in flight between
// attempts — and resets the nodes' /status health records: their
// consecutive failures described the dead host, not its replacement.
func (m *Master) maybeFailover(run desc.Run, rr *RunResult) {
	if m.cfg.Fleet == nil || len(rr.NodeErrs) == 0 {
		return
	}
	m.rec.Emit(eventlog.EvFleetHostLost, map[string]string{
		"run": fmt.Sprint(run.ID), "node_errs": fmt.Sprint(len(rr.NodeErrs))})
	p, err := m.cfg.Fleet.Failover(run.ID, rr.NodeErrs)
	if err == nil {
		for _, id := range m.order {
			if p.Nodes[id] == nil {
				err = fmt.Errorf("placement on host %s has no handle for node %q", p.HostID, id)
				break
			}
		}
	}
	if err != nil {
		m.counter(obs.MMasterFailoverErrors,
			"failovers that found no usable replacement host").Inc()
		m.rec.Emit(eventlog.EvFleetFailoverFailed, map[string]string{
			"run": fmt.Sprint(run.ID), "err": err.Error()})
		return
	}
	m.cfg.Nodes, m.cfg.Env = p.Nodes, p.Env
	m.groupByHost()
	for _, id := range m.order {
		m.cfg.Status.NodeHealthy(id)
	}
	m.counter(obs.MMasterFailovers,
		"mid-campaign host replacements").Inc()
	m.rec.Emit(eventlog.EvRunReplaced, map[string]string{
		"run": fmt.Sprint(run.ID), "host": p.HostID})
}

// preflight verifies every node's control channel before a run attempt
// (§IV-C1 preparation, hardened): one probe per host group, fanned out
// across groups under Config.Fanout. Every group is probed at every
// attempt, so a node that stopped responding fails only the attempts it
// misses, and one that answers again takes part in the next. A failed
// group probe fails every member: each lands in the returned node errors,
// so the attempt's NodeErrs implicate the nodes (and their backing host)
// even though the run never reached the wire — the fleet failover path
// keys off that. The error names the first unhealthy node.
func (m *Master) preflight(run desc.Run) (map[string]string, error) {
	probed := make([]bool, len(m.groups))
	errs := make([]error, len(m.groups))
	fanOut(m.cfg.Fanout, len(m.groups), func(i int) {
		probed[i], errs[i] = m.groups[i].health()
	})
	var nodeErrs map[string]string
	var first error
	for i, g := range m.groups {
		if !probed[i] {
			continue
		}
		n := int64(len(g.ids))
		m.probes += len(g.ids)
		m.counter(obs.MHealthProbes, "preflight node health probes").Add(n)
		if errs[i] == nil {
			for _, id := range g.ids {
				m.cfg.Status.NodeHealthy(id)
			}
			continue
		}
		m.probeFails += len(g.ids)
		m.counter(obs.MHealthProbeFailures,
			"failed preflight node health probes").Add(n)
		if nodeErrs == nil {
			nodeErrs = map[string]string{}
		}
		for _, id := range g.ids {
			err := fmt.Errorf("master: run %d: node %s unhealthy: %w", run.ID, id, errs[i])
			m.rec.Emit(eventlog.EvNodeHealthFailed, map[string]string{
				"node": id, "err": errs[i].Error()})
			m.cfg.Status.NodeFailed(id, errs[i].Error())
			nodeErrs[id] = err.Error()
			if first == nil {
				first = err
			}
		}
	}
	return nodeErrs, first
}

// counter is a nil-safe shortcut into the configured metrics registry.
func (m *Master) counter(name, help string) *obs.Counter {
	return m.cfg.Metrics.Counter(name, help)
}

// experimentInit performs the preparations before all individual runs
// (§IV-C1 experiment_init) and records the initial topology. A store that
// cannot take the description cannot be conditioned, so its error ends the
// experiment before the first run.
func (m *Master) experimentInit() (err error) {
	m.rec.SetRun(-1)
	m.cfg.Status.ExperimentStarted(m.cfg.Exp.Name, len(m.plan.Runs))
	m.expSpan = m.cfg.Tracer.Begin(0, "master", "experiment", m.cfg.Exp.Name,
		-1, 0, map[string]string{"seed": fmt.Sprint(m.cfg.Exp.Seed)})
	m.rec.Emit(eventlog.EvExperimentInit, map[string]string{"name": m.cfg.Exp.Name})
	if m.cfg.Store != nil {
		err = m.cfg.Store.WriteDescription(m.expXML)
		if err == nil && m.cfg.TopologyMeasure != nil {
			err = m.cfg.Store.WriteExperimentMeasurement("master", "topology_before.txt",
				[]byte(m.cfg.TopologyMeasure()))
		}
	}
	if err != nil {
		m.cfg.Tracer.End(m.expSpan)
		m.cfg.Status.ExperimentFinished()
	}
	return err
}

// experimentExit closes the experiment; its error is the final topology
// measurement's that the store did not take.
func (m *Master) experimentExit() (err error) {
	m.rec.SetRun(-1)
	if m.cfg.Store != nil && m.cfg.TopologyMeasure != nil {
		err = m.cfg.Store.WriteExperimentMeasurement("master", "topology_after.txt",
			[]byte(m.cfg.TopologyMeasure()))
	}
	m.rec.Emit(eventlog.EvExperimentExit, nil)
	m.cfg.Tracer.End(m.expSpan)
	m.cfg.Status.ExperimentFinished()
	return err
}

// rawTreatment flattens a run's treatment into factor → raw value for
// status and trace annotation. Actor-map levels have no scalar value and
// are skipped.
func rawTreatment(run desc.Run) map[string]string {
	out := map[string]string{}
	for fid, l := range run.Treatment {
		if l.Raw != "" {
			out[fid] = l.Raw
		}
	}
	return out
}

// executeRun performs one run attempt's three phases.
func (m *Master) executeRun(run desc.Run, attempt int) RunResult {
	s := m.cfg.S
	rr := RunResult{Run: run, Start: m.cfg.Ref.Now(), Attempts: attempt}

	// Observability: one span per attempt (experiment → run), annotated
	// with the derived run seed and the applied treatment so a trace is
	// self-describing.
	treat := rawTreatment(run)
	m.counter(obs.MRunAttempts,
		"run attempts, including in-place retries").Inc()
	m.cfg.Status.RunStarted(run.ID, attempt, treat)
	var runSpan uint64
	if m.cfg.Tracer != nil {
		runArgs := map[string]string{
			"seed": fmt.Sprint(seeds.Derive(seeds.Key{Tag: seeds.Run, Seed: m.cfg.Exp.Seed, Index: int64(run.ID)})),
		}
		for fid, v := range treat {
			runArgs[fid] = v
		}
		runSpan = m.cfg.Tracer.Begin(m.expSpan, "master", "run",
			fmt.Sprintf("run %d", run.ID), run.ID, attempt, runArgs)
	}
	endRun := func() {
		if rr.Err != nil {
			m.cfg.Tracer.EndWith(runSpan, map[string]string{"err": rr.Err.Error()})
		} else if rr.Aborted {
			m.cfg.Tracer.EndWith(runSpan, map[string]string{"aborted": "true"})
		} else {
			m.cfg.Tracer.End(runSpan)
		}
	}

	// --- preparation phase ---
	m.cfg.Status.PhaseChanged("prepare")
	prepSpan := m.cfg.Tracer.Begin(runSpan, "master", "phase", "prepare",
		run.ID, attempt, nil)
	// Preflight probes and other pre-broadcast RPCs parent under the
	// prepare phase; each broadcast site then narrows the parent to the
	// rpc span of its host-group call.
	for _, id := range m.order {
		setTraceParent(m.cfg.Nodes[id], prepSpan)
	}
	m.cfg.Bus.Reset()
	m.rec.SetRun(run.ID)
	if attempt > 1 {
		m.rec.Emit(eventlog.EvRunRetry, map[string]string{
			"run": fmt.Sprint(run.ID), "attempt": fmt.Sprint(attempt)})
	}
	if nodeErrs, err := m.preflight(run); err != nil {
		rr.Err = err
		rr.NodeErrs = nodeErrs
		rr.Duration = m.cfg.Ref.Now().Sub(rr.Start)
		rr.Events = m.cfg.Bus.Snapshot()
		m.cfg.Tracer.EndWith(prepSpan, map[string]string{"err": err.Error()})
		endRun()
		return rr
	}
	if m.cfg.Env != nil {
		m.cfg.Env.Reset()
		m.publishCarried(m.cfg.Env)
	}
	m.broadcast(prepSpan, "prepare", run.ID, attempt, func(g *hostGroup) {
		g.prepareRun(run.ID)
	})
	m.publishNodesCarried(false)
	// Preliminary measurements: per-node clock offsets (§IV-B3), one probe
	// per host group and sample. Results land in slots indexed by node
	// order, so the stored offsets are byte-identical to the sequential
	// master's; a node without a good sample gets no measurement.
	offsets := make([]timesync.Measurement, len(m.order))
	m.broadcast(prepSpan, "timesync", run.ID, attempt, func(g *hostGroup) {
		for i, ms := range m.est.Measure(g.ids, g.localTime) {
			offsets[g.slots[i]] = ms
		}
	})
	rr.Offsets = measured(offsets)
	m.cfg.Tracer.End(prepSpan)

	// --- execution phase ---
	m.cfg.Status.PhaseChanged("execute")
	execSpan := m.cfg.Tracer.Begin(runSpan, "master", "phase", "execute",
		run.ID, attempt, nil)
	// Execution-phase RPCs (Execute, Emit) come from concurrent process
	// tasks sharing each node's handle, so the whole phase parents under
	// the execute span rather than per-action spans.
	for _, id := range m.order {
		setTraceParent(m.cfg.Nodes[id], execSpan)
	}
	roles := desc.RolesFor(m.cfg.Exp, run)
	wg := s.NewWaitGroup(fmt.Sprintf("run %d", run.ID))
	// Process outcomes are written from multiple scheduler tasks; under
	// the virtual scheduler those are serialized, but realtime mode runs
	// them on real goroutines — guard the shared state so the execution
	// phase is race-clean by construction.
	var execMu sync.Mutex
	var firstErr error
	timeouts := 0
	var canceled atomic.Bool

	setErr := func(err error) {
		execMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		execMu.Unlock()
	}

	launch := func(name string, ctx *process.Ctx, actions []desc.Action) {
		ctx.Canceled = canceled.Load
		ctx.Trace = m.cfg.Tracer
		ctx.SpanParent = execSpan
		ctx.Track = name
		ctx.Attempt = attempt
		wg.Add(1)
		s.Go(name, func() {
			defer wg.Done()
			res, err := ctx.RunSequence(actions)
			execMu.Lock()
			timeouts += len(res.Timeouts)
			if err != nil && err != process.ErrCanceled && firstErr == nil {
				firstErr = err
			}
			execMu.Unlock()
		})
	}

	emit := func(nodeID string, typ string, params map[string]string) {
		if nodeID == "" {
			m.rec.Emit(typ, params)
			return
		}
		h := m.cfg.Nodes[nodeID]
		h.Emit(typ, params)
		m.publishCarried(h)
	}

	for _, np := range m.cfg.Exp.NodeProcesses {
		np := np
		for _, nodeID := range roles[np.Actor] {
			nodeID := nodeID
			h := m.cfg.Nodes[nodeID]
			if h == nil {
				setErr(fmt.Errorf("master: run %d: no handle for node %q", run.ID, nodeID))
				continue
			}
			exec := process.ExecutorFunc(func(_, action string, params map[string]string) error {
				if action == "sd_init" && params["role"] == "" {
					params["role"] = np.Name
				}
				err := h.Execute(action, params)
				m.publishCarried(h)
				return err
			})
			ctx := &process.Ctx{S: s, Bus: m.cfg.Bus, Run: run, Roles: roles,
				Node: nodeID, Emit: emit, Exec: exec}
			launch(fmt.Sprintf("proc %s@%s", np.Actor, nodeID), ctx, np.Actions)
		}
	}
	for _, mp := range m.cfg.Exp.ManipProcesses {
		mp := mp
		for _, nodeID := range roles[mp.Actor] {
			nodeID := nodeID
			h := m.cfg.Nodes[nodeID]
			if h == nil {
				continue
			}
			exec := process.ExecutorFunc(func(_, action string, params map[string]string) error {
				err := h.Execute(action, params)
				m.publishCarried(h)
				return err
			})
			ctx := &process.Ctx{S: s, Bus: m.cfg.Bus, Run: run, Roles: roles,
				Node: nodeID, Emit: emit, Exec: exec}
			launch(fmt.Sprintf("manip %s@%s", mp.Actor, nodeID), ctx, mp.Actions)
		}
	}
	for i, ep := range m.cfg.Exp.EnvProcesses {
		ep := ep
		exec := process.ExecutorFunc(func(_, action string, params map[string]string) error {
			if m.cfg.Env == nil {
				return fmt.Errorf("master: no environment executor for %q", action)
			}
			params["__run"] = fmt.Sprint(run.ID)
			err := m.cfg.Env.Execute(action, params)
			m.publishCarried(m.cfg.Env)
			return err
		})
		ctx := &process.Ctx{S: s, Bus: m.cfg.Bus, Run: run, Roles: roles,
			Node: "", Emit: emit, Exec: exec}
		launch(fmt.Sprintf("env %d", i), ctx, ep.Actions)
	}

	if !wg.WaitTimeout(m.cfg.MaxRunTime) {
		rr.Aborted = true
		m.counter(obs.MRunsAborted,
			"run attempts aborted by MaxRunTime").Inc()
		m.rec.Emit(eventlog.EvRunAborted, map[string]string{"run": fmt.Sprint(run.ID)})
		// Cancel leftover process tasks: waiters on the bus give up at
		// their next wake-up and the cancel flag stops further actions,
		// so orphaned tasks cannot leak into later runs.
		canceled.Store(true)
		m.cfg.Bus.CancelWaiters()
		wg.WaitTimeout(time.Second)
	}
	execMu.Lock()
	rr.Timeouts = timeouts
	rr.Err = firstErr
	execMu.Unlock()
	if rr.Aborted {
		m.cfg.Tracer.EndWith(execSpan, map[string]string{"aborted": "true"})
	} else {
		m.cfg.Tracer.End(execSpan)
	}

	// --- clean-up phase ---
	m.cfg.Status.PhaseChanged("cleanup")
	cleanSpan := m.cfg.Tracer.Begin(runSpan, "master", "phase", "cleanup",
		run.ID, attempt, nil)
	if m.cfg.Env != nil {
		m.cfg.Env.Reset()
		m.publishCarried(m.cfg.Env)
	}
	m.broadcast(cleanSpan, "cleanup", run.ID, attempt, func(g *hostGroup) {
		g.cleanupRun(run.ID)
	})
	// The clean-up replies are the run's barrier: every event a node
	// recorded before them, carried or pushed, is published by now.
	m.publishNodesCarried(true)
	m.cfg.Tracer.End(cleanSpan)
	rr.Duration = m.cfg.Ref.Now().Sub(rr.Start)
	rr.Events = m.cfg.Bus.Snapshot()

	// Control-channel accounting: a run whose node proxies swallowed
	// transport errors (lost emits, failed harvest preludes) did not
	// produce trustworthy measurements — surface that as a run error so
	// the retry layer re-executes it.
	m.noteNodeErrs(run, &rr, "control channel to node")
	// The environment's proxy keeps the same per-run window: a failed
	// reset may have left the previous run's traffic or drop rules active.
	if re, ok := m.cfg.Env.(runErrorer); ok {
		if eerr := re.Err(); eerr != nil {
			if rr.NodeErrs == nil {
				rr.NodeErrs = map[string]string{}
			}
			rr.NodeErrs["env"] = eerr.Error()
			if rr.Err == nil {
				rr.Err = fmt.Errorf("master: run %d: control channel to env: %w",
					run.ID, eerr)
			}
		}
	}

	// The run span must close before harvesting so trace.json contains
	// the complete attempt. Harvest itself happens in RunAll, where the
	// staged level-2 commit and journal completion are sequenced.
	endRun()
	return rr
}

// noteNodeErrs reads the per-run error window of every node handle that
// keeps one (runErrorer) into rr: each failed node into NodeErrs and
// /status, the first as the run's error, prefixed by what failed.
func (m *Master) noteNodeErrs(run desc.Run, rr *RunResult, what string) {
	for _, id := range m.nodeOrder() {
		re, ok := m.cfg.Nodes[id].(runErrorer)
		if !ok {
			continue
		}
		if nerr := re.Err(); nerr != nil {
			if rr.NodeErrs == nil {
				rr.NodeErrs = map[string]string{}
			}
			rr.NodeErrs[id] = nerr.Error()
			m.cfg.Status.NodeFailed(id, nerr.Error())
			if rr.Err == nil {
				rr.Err = fmt.Errorf("master: run %d: %s %s: %w", run.ID, what, id, nerr)
			}
		} else {
			m.cfg.Status.NodeHealthy(id)
		}
	}
}

// publishCarried publishes the node events that h's calls carried back
// (eventCarrier); a no-op for other handles. It runs before the task can
// block, so a push injected meanwhile, which holds later events, publishes
// after them.
func (m *Master) publishCarried(h any) {
	if c, ok := h.(eventCarrier); ok {
		for _, ev := range c.TakeEvents() {
			m.cfg.Bus.Publish(ev)
		}
	}
}

// publishNodesCarried publishes the events the calls of a broadcast phase
// carried back, in node order. As the run's barrier it first yields once,
// so that every push delivered before the replies — a clean-up reply waits
// for the push on the wire, whose events are older — publishes first.
func (m *Master) publishNodesCarried(barrier bool) {
	for _, id := range m.order {
		h := m.cfg.Nodes[id]
		if _, ok := h.(eventCarrier); ok && barrier {
			m.cfg.S.Yield()
			barrier = false
		}
		m.publishCarried(h)
	}
}

// harvestPartial salvages measurements of a run that failed all its
// attempts: events and packets are written with a partial marker in
// RunInfo so post-mortems are possible, but the run is NOT marked done —
// a resumed session re-executes it. hd is what the last attempt's harvest
// collected, nil when the attempt failed before it. Unlike the success
// path this commits synchronously (the caller already drained the
// pipeline).
func (m *Master) harvestPartial(run desc.Run, rr *RunResult, hd *harvestData) {
	if m.cfg.Store == nil {
		return
	}
	if hd == nil {
		hd = m.collectHarvest(run, rr)
	}
	hd.info.Partial = true
	hd.info.Aborted = rr.Aborted
	if rr.Err != nil {
		hd.info.Err = rr.Err.Error()
	}
	if err := m.commitHarvest(hd); err != nil {
		m.rec.Emit(eventlog.EvRunHarvestFailed, map[string]string{
			"run": fmt.Sprint(run.ID), "err": err.Error()})
		return
	}
	rr.Partial = true
	m.rec.Emit(eventlog.EvRunPartialHarvest, map[string]string{"run": fmt.Sprint(run.ID)})
}

// measured drops the slots of nodes that got no clock measurement, in
// place; with every node measured it returns offsets unchanged.
func measured(offsets []timesync.Measurement) []timesync.Measurement {
	out := offsets[:0]
	for _, ms := range offsets {
		if ms.Node != "" {
			out = append(out, ms)
		}
	}
	return out
}

// envEvents extracts the master's own events of one run.
func (m *Master) envEvents(run int) []eventlog.Event {
	return m.rec.RunEvents(run)
}

// nodeOrder returns the handle ids sorted for deterministic iteration
// (cached at construction; callers must not mutate the slice).
func (m *Master) nodeOrder() []string { return m.order }

// Finalize conditions the level-2 store into a level-3 database (§IV-F).
func (m *Master) Finalize() (*store.ExperimentDB, error) {
	if m.cfg.Store == nil {
		return nil, fmt.Errorf("master: no store configured")
	}
	return store.Condition(m.cfg.Store, store.Meta{
		ExpXML:  m.expXML,
		Name:    m.cfg.Exp.Name,
		Comment: m.cfg.Exp.Comment,
	})
}
