package obs

import (
	"sync"
	"time"
)

// NodeState is the live control-channel view of one participating node.
type NodeState struct {
	// Health is "ok" or "failing".
	Health string `json:"health"`
	// ConsecutiveFailures counts control-channel failures since the last
	// success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// LastErr is the most recent control-channel error ("" when healthy).
	LastErr string `json:"last_err,omitempty"`
}

// Snapshot is the JSON document served on /status: what the master is
// doing right now and how the control plane is holding up.
type Snapshot struct {
	// Experiment is the executing experiment's name ("" before init).
	Experiment string `json:"experiment"`
	// State is "idle", "running" or "done".
	State string `json:"state"`
	// Run, Attempt and Phase locate the current execution position:
	// Phase is one of "prepare", "execute", "cleanup" ("" between runs);
	// Run is -1 outside any run.
	Run     int    `json:"run"`
	Attempt int    `json:"attempt,omitempty"`
	Phase   string `json:"phase,omitempty"`
	// Treatment is the current run's factor → raw level map.
	Treatment map[string]string `json:"treatment,omitempty"`
	// Run accounting so far.
	RunsTotal     int `json:"runs_total"`
	RunsCompleted int `json:"runs_completed"`
	RunsSkipped   int `json:"runs_skipped,omitempty"`
	RunsFailed    int `json:"runs_failed,omitempty"`
	RunsRetried   int `json:"runs_retried,omitempty"`
	// Nodes maps node ids to their control-channel health.
	Nodes map[string]NodeState `json:"nodes,omitempty"`
	// NodesReporting is how many node hosts delivered a metric snapshot at
	// the last campaign fan-in (0 before the first fan-in).
	NodesReporting int `json:"nodes_reporting,omitempty"`
	// UpdatedAt is the reference-clock time of the last update.
	UpdatedAt time.Time `json:"updated_at"`
}

// Status tracks the live execution state. All methods are safe for
// concurrent use and no-ops on a nil receiver; Snapshot on nil returns a
// zero snapshot.
type Status struct {
	now func() time.Time

	mu   sync.Mutex
	snap Snapshot
}

// NewStatus creates a status tracker on the given clock (nil means wall
// time).
func NewStatus(now func() time.Time) *Status {
	if now == nil {
		now = time.Now
	}
	return &Status{now: now, snap: Snapshot{State: "idle", Run: -1}}
}

func (s *Status) update(fn func(*Snapshot)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(&s.snap)
	s.snap.UpdatedAt = s.now()
}

// ExperimentStarted records experiment init.
func (s *Status) ExperimentStarted(name string, totalRuns int) {
	s.update(func(sn *Snapshot) {
		sn.Experiment = name
		sn.State = "running"
		sn.RunsTotal = totalRuns
		sn.Run = -1
	})
}

// ExperimentFinished records experiment exit.
func (s *Status) ExperimentFinished() {
	s.update(func(sn *Snapshot) {
		sn.State = "done"
		sn.Run = -1
		sn.Attempt = 0
		sn.Phase = ""
		sn.Treatment = nil
	})
}

// RunStarted records the start of one run attempt.
func (s *Status) RunStarted(run, attempt int, treatment map[string]string) {
	s.update(func(sn *Snapshot) {
		sn.Run = run
		sn.Attempt = attempt
		sn.Phase = "prepare"
		sn.Treatment = treatment
	})
}

// PhaseChanged records a phase transition of the current run attempt.
func (s *Status) PhaseChanged(phase string) {
	s.update(func(sn *Snapshot) { sn.Phase = phase })
}

// RunFinished records the outcome of one run: "completed", "failed" or
// "skipped"; retried marks runs that consumed more than one attempt.
func (s *Status) RunFinished(outcome string, retried bool) {
	s.update(func(sn *Snapshot) {
		switch outcome {
		case "completed":
			sn.RunsCompleted++
		case "failed":
			sn.RunsFailed++
		case "skipped":
			sn.RunsSkipped++
		}
		if retried {
			sn.RunsRetried++
		}
		sn.Run = -1
		sn.Attempt = 0
		sn.Phase = ""
		sn.Treatment = nil
	})
}

// NodeHealthy records a successful control-channel interaction.
func (s *Status) NodeHealthy(id string) {
	s.update(func(sn *Snapshot) {
		if sn.Nodes == nil {
			sn.Nodes = map[string]NodeState{}
		}
		sn.Nodes[id] = NodeState{Health: "ok"}
	})
}

// NodeFailed records a control-channel failure: one more consecutive
// failure since the node's last success.
func (s *Status) NodeFailed(id, errStr string) {
	s.update(func(sn *Snapshot) {
		if sn.Nodes == nil {
			sn.Nodes = map[string]NodeState{}
		}
		ns := sn.Nodes[id]
		ns.Health = "failing"
		ns.ConsecutiveFailures++
		ns.LastErr = errStr
		sn.Nodes[id] = ns
	})
}

// FanIn records the outcome of a campaign metric fan-in: how many node
// hosts delivered a registry snapshot.
func (s *Status) FanIn(sources int) {
	s.update(func(sn *Snapshot) { sn.NodesReporting = sources })
}

// Snapshot returns a deep copy of the current state.
func (s *Status) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{State: "idle", Run: -1}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.snap
	if s.snap.Treatment != nil {
		out.Treatment = make(map[string]string, len(s.snap.Treatment))
		for k, v := range s.snap.Treatment {
			out.Treatment[k] = v
		}
	}
	if s.snap.Nodes != nil {
		out.Nodes = make(map[string]NodeState, len(s.snap.Nodes))
		for k, v := range s.snap.Nodes {
			out.Nodes[k] = v
		}
	}
	return out
}
