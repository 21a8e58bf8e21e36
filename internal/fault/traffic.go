package fault

import (
	"fmt"
	"sort"
	"time"

	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/seeds"
)

// TrafficProto is the netem protocol label of generated background
// traffic. It differs from the SD label so experiment-process fault rules
// do not hit the load generator.
const TrafficProto = "traffic"

// PairChoice selects the candidate set the traffic pairs are drawn from
// (§IV-D2: "Pairs can be randomly chosen from the acting nodes, non-acting
// nodes or all nodes"). It matches the <choice> parameter of Fig. 7.
type PairChoice int

const (
	// ChooseEnv draws pairs from the non-acting (environment) nodes.
	ChooseEnv PairChoice = 0
	// ChooseActors draws pairs from the acting nodes.
	ChooseActors PairChoice = 1
	// ChooseAll draws pairs from all nodes.
	ChooseAll PairChoice = 2
)

// TrafficConfig parameterizes the traffic generator (Fig. 7).
type TrafficConfig struct {
	// Pairs is the number of communicating node pairs.
	Pairs int
	// BwKbps is the bidirectional data rate per pair in kbit/s.
	BwKbps int
	// Choice selects the candidate node set.
	Choice PairChoice
	// Seed drives the initial pair selection.
	Seed int64
	// SwitchAmount pairs are re-drawn per run (§IV-D2: "They vary from
	// run to run as determined by a switch amount parameter").
	SwitchAmount int
	// SwitchSeed drives the switching; Fig. 7 wires it to the
	// replication index so replications randomize identically.
	SwitchSeed int64
	// Run is the run ordinal controlling how many switch steps have been
	// applied.
	Run int
	// PacketSize is the payload size in bytes; default 512.
	PacketSize int
}

// Traffic is a running traffic generation manipulation.
type Traffic struct {
	s        *sched.Scheduler
	pairs    [][2]netem.NodeID
	interval time.Duration
	payload  []byte // shared by all packets: payloads are immutable (DESIGN.md §16.1)
	stopped  bool
	sent     uint64
}

// flow is one direction of one pair, the argument of its chain of
// flowEvent events.
type flow struct {
	t   *Traffic
	src *netem.Node
	dst netem.Dest
}

// pickPairs deterministically derives the run's pair set: an initial
// selection from Seed, then Run·SwitchAmount single-pair replacements from
// SwitchSeed.
func pickPairs(candidates []netem.NodeID, cfg TrafficConfig) ([][2]netem.NodeID, error) {
	if len(candidates) < 2 {
		return nil, fmt.Errorf("fault: need at least 2 candidate nodes, have %d", len(candidates))
	}
	sorted := append([]netem.NodeID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rng := seeds.Key{Tag: seeds.Pairs, Seed: cfg.Seed}.Rand()
	draw := func(r *seeds.Rand) [2]netem.NodeID {
		a := r.Intn(len(sorted))
		b := r.Intn(len(sorted) - 1)
		if b >= a {
			b++
		}
		return [2]netem.NodeID{sorted[a], sorted[b]}
	}
	pairs := make([][2]netem.NodeID, cfg.Pairs)
	for i := range pairs {
		pairs[i] = draw(rng)
	}
	if cfg.SwitchAmount > 0 && cfg.Run > 0 {
		srng := seeds.Key{Tag: seeds.Switch, Seed: cfg.SwitchSeed}.Rand()
		for step := 0; step < cfg.Run*cfg.SwitchAmount; step++ {
			idx := srng.Intn(len(pairs))
			a := srng.Intn(len(sorted))
			b := srng.Intn(len(sorted) - 1)
			if b >= a {
				b++
			}
			pairs[idx] = [2]netem.NodeID{sorted[a], sorted[b]}
		}
	}
	return pairs, nil
}

// StartTraffic launches background load between node pairs drawn from
// candidates. Each pair communicates bidirectionally at cfg.BwKbps until
// Stop is called.
func StartTraffic(s *sched.Scheduler, nw *netem.Network, candidates []netem.NodeID, cfg TrafficConfig) (*Traffic, error) {
	if cfg.Pairs <= 0 {
		return nil, fmt.Errorf("fault: traffic needs a positive pair count")
	}
	if cfg.BwKbps <= 0 {
		return nil, fmt.Errorf("fault: traffic needs a positive data rate")
	}
	if cfg.PacketSize == 0 {
		cfg.PacketSize = 512
	}
	pairs, err := pickPairs(candidates, cfg)
	if err != nil {
		return nil, err
	}
	// BwKbps is the pair's aggregate bidirectional rate, so each
	// direction carries half of it.
	perDirBps := float64(cfg.BwKbps*1000) / 2
	interval := time.Duration(float64(cfg.PacketSize*8) / perDirBps * float64(time.Second))
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := &Traffic{s: s, pairs: pairs, interval: interval, payload: make([]byte, cfg.PacketSize)}
	// Each flow is a chain of inline events, not a task: a send never
	// blocks. The first send takes a runnable-FIFO slot in pair order,
	// forward then reverse; flowEvent re-arms every later one.
	flows := make([]flow, 0, 2*len(pairs))
	for _, p := range pairs {
		flows = append(flows,
			flow{t: t, src: nw.Node(p[0]), dst: netem.Unicast(p[1])},
			flow{t: t, src: nw.Node(p[1]), dst: netem.Unicast(p[0])})
	}
	for i := range flows {
		s.PostEvent(flowEvent, &flows[i])
	}
	return t, nil
}

// flowEvent sends one packet of a flow and schedules the flow's next send
// one interval later, until the generator is stopped.
func flowEvent(_ time.Time, arg any) {
	f := arg.(*flow)
	t := f.t
	if t.stopped {
		return
	}
	f.src.Send(f.dst, TrafficProto, t.payload)
	t.sent++
	t.s.ScheduleEvent(t.interval, flowEvent, f)
}

// Pairs returns the active node pairs.
func (t *Traffic) Pairs() [][2]netem.NodeID {
	return append([][2]netem.NodeID(nil), t.pairs...)
}

// Sent returns the number of generated packets so far.
func (t *Traffic) Sent() uint64 { return t.sent }

// Stop ends traffic generation: no flow sends again. Each flow's pending
// event still fires at its send slot and ends the chain there.
func (t *Traffic) Stop() { t.stopped = true }

// DropAll is the environment manipulation that makes all experiment nodes
// stop receiving, sending and forwarding the experiment process packets
// (§IV-D2). It installs an unconditional drop rule for the given protocol
// label on every node.
type DropAll struct {
	nw    *netem.Network
	proto string
	rules map[netem.NodeID]*netem.Rule
}

// NewDropAll prepares the manipulation for the given protocol label
// (empty = all packets).
func NewDropAll(nw *netem.Network, proto string) *DropAll {
	return &DropAll{nw: nw, proto: proto, rules: make(map[netem.NodeID]*netem.Rule)}
}

// Start installs the drop rules on all nodes.
func (d *DropAll) Start() {
	for _, id := range d.nw.Nodes() {
		if d.rules[id] != nil {
			continue
		}
		d.rules[id] = d.nw.Node(id).InstallRule(netem.Rule{
			Dir: netem.DirBoth, Proto: d.proto, DropAll: true,
		})
	}
}

// Stop removes the drop rules.
func (d *DropAll) Stop() {
	for id, r := range d.rules {
		d.nw.Node(id).RemoveRule(r)
		delete(d.rules, id)
	}
}

// Active reports whether the manipulation is installed.
func (d *DropAll) Active() bool { return len(d.rules) > 0 }
