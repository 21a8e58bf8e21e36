// Package fault implements ExCovery's fault injection and environment
// manipulation concept (§IV-D).
//
// Fault injections target one node: interface faults, message loss,
// message delay, and their path-selective variants. They are realized as
// netem manipulation rules (or interface state changes), so "all injected
// faults add up to already existing communication faults in the target
// platform" (§IV-D1) — a message-loss fault multiplies on top of link loss.
//
// Injections share the common temporal parameters duration, rate and
// randomseed: the fault is active in one continuous block covering rate of
// the duration, with the block's position chosen pseudo-randomly from
// randomseed (§IV-D). Without timing, a fault starts once and must be
// stopped explicitly.
//
// Environment manipulations operate on many nodes: the traffic generator
// creates bidirectional background load between node pairs (Fig. 7) and
// drop-all silences the experiment process on all nodes (run preparation).
package fault

import (
	"fmt"
	"time"

	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/seeds"
)

// Direction of a fault, mirroring §IV-D1. DirRandom resolves to receive or
// transmit using the injection seed.
type Direction string

const (
	// DirRx affects received packets.
	DirRx Direction = "receive"
	// DirTx affects transmitted packets.
	DirTx Direction = "transmit"
	// DirBoth affects both directions.
	DirBoth Direction = "both"
	// DirRandom picks receive or transmit pseudo-randomly.
	DirRandom Direction = "random"
)

// resolve maps a fault direction to a netem rule direction, resolving
// DirRandom with rng.
func (d Direction) resolve(rng *seeds.Rand) (netem.Direction, error) {
	switch d {
	case DirRx:
		return netem.DirRx, nil
	case DirTx:
		return netem.DirTx, nil
	case DirBoth, "":
		return netem.DirBoth, nil
	case DirRandom:
		if rng.Intn(2) == 0 {
			return netem.DirRx, nil
		}
		return netem.DirTx, nil
	default:
		return 0, fmt.Errorf("fault: unknown direction %q", d)
	}
}

// Injection is an activatable fault. Start and Stop are idempotent.
type Injection interface {
	// Kind names the fault type.
	Kind() string
	// Target names the node the fault applies to.
	Target() netem.NodeID
	// Start activates the fault.
	Start()
	// Stop deactivates the fault.
	Stop()
	// Active reports whether the fault is currently applied.
	Active() bool
}

// ruleFault is an Injection realized as a single netem rule.
type ruleFault struct {
	kind string
	node *netem.Node
	rule netem.Rule
	inst *netem.Rule
}

func (f *ruleFault) Kind() string         { return f.kind }
func (f *ruleFault) Target() netem.NodeID { return f.node.ID() }
func (f *ruleFault) Active() bool         { return f.inst != nil }

func (f *ruleFault) Start() {
	if f.inst == nil {
		f.inst = f.node.InstallRule(f.rule)
	}
}

func (f *ruleFault) Stop() {
	if f.inst != nil {
		f.node.RemoveRule(f.inst)
		f.inst = nil
	}
}

// newRuleFault is the common constructor path of all rule-realized faults:
// one rng seeded from the injection's own seed resolves the direction AND
// feeds the rule's probabilistic draws (the fault's randomness is fully
// determined by its seed, independent of the node stream).
func newRuleFault(kind string, node *netem.Node, dir Direction, seed int64, rule netem.Rule) (Injection, error) {
	rng := seeds.Key{Tag: seeds.Fault, Seed: seed}.Rand()
	d, err := dir.resolve(rng)
	if err != nil {
		return nil, err
	}
	rule.Dir = d
	rule.Rng = rng
	return &ruleFault{kind: kind, node: node, rule: rule}, nil
}

// NewMessageLoss drops experiment-process packets with the given
// probability (§IV-D1 message loss). proto selects the affected packets;
// use the SD protocol label to hit only the experiment process.
func NewMessageLoss(node *netem.Node, prob float64, dir Direction, proto string, seed int64) (Injection, error) {
	if prob < 0 || prob > 1 {
		return nil, fmt.Errorf("fault: loss probability %v out of range", prob)
	}
	return newRuleFault("message_loss", node, dir, seed,
		netem.Rule{Proto: proto, DropProb: prob})
}

// NewMessageDelay applies a constant delay to every experiment-process
// packet (§IV-D1 message delay).
func NewMessageDelay(node *netem.Node, delay time.Duration, dir Direction, proto string, seed int64) (Injection, error) {
	if delay < 0 {
		return nil, fmt.Errorf("fault: negative delay")
	}
	return newRuleFault("message_delay", node, dir, seed,
		netem.Rule{Proto: proto, Delay: delay})
}

// NewPathLoss drops packets selectively between the target and one peer
// (§IV-D1 path loss).
func NewPathLoss(node *netem.Node, peer netem.NodeID, prob float64, dir Direction, proto string, seed int64) (Injection, error) {
	if prob < 0 || prob > 1 {
		return nil, fmt.Errorf("fault: loss probability %v out of range", prob)
	}
	return newRuleFault("path_loss", node, dir, seed,
		netem.Rule{Proto: proto, Peer: peer, DropProb: prob})
}

// NewPathDelay delays packets selectively between the target and one peer
// (§IV-D1 path delay).
func NewPathDelay(node *netem.Node, peer netem.NodeID, delay time.Duration, dir Direction, proto string, seed int64) (Injection, error) {
	if delay < 0 {
		return nil, fmt.Errorf("fault: negative delay")
	}
	return newRuleFault("path_delay", node, dir, seed,
		netem.Rule{Proto: proto, Peer: peer, Delay: delay})
}

// NewMessageCorrupt flips one pseudo-random payload bit of matching
// packets with the given probability (netem-style corrupt). The corrupted
// payload is a copy — packet payloads are shared between hops.
func NewMessageCorrupt(node *netem.Node, prob float64, dir Direction, proto string, seed int64) (Injection, error) {
	if prob <= 0 || prob > 1 {
		return nil, fmt.Errorf("fault: corrupt probability %v out of range", prob)
	}
	rng := seeds.Key{Tag: seeds.Fault, Seed: seed}.Rand()
	d, err := dir.resolve(rng)
	if err != nil {
		return nil, err
	}
	rule := netem.Rule{Dir: d, Proto: proto, CorruptProb: prob, Rng: rng,
		Modify: func(p *netem.Packet) {
			if len(p.Payload) == 0 {
				return
			}
			q := append([]byte(nil), p.Payload...)
			bit := rng.Intn(len(q) * 8)
			q[bit/8] ^= 1 << (bit % 8)
			p.Payload = q
		}}
	return &ruleFault{kind: "message_corrupt", node: node, rule: rule}, nil
}

// NewMessageDuplicate duplicates matching packets with the given
// probability (netem-style duplicate).
func NewMessageDuplicate(node *netem.Node, prob float64, dir Direction, proto string, seed int64) (Injection, error) {
	if prob <= 0 || prob > 1 {
		return nil, fmt.Errorf("fault: duplicate probability %v out of range", prob)
	}
	return newRuleFault("message_duplicate", node, dir, seed,
		netem.Rule{Proto: proto, DupProb: prob})
}

// NewMessageReorder holds back matching packets by delay with the given
// probability so later packets overtake them; corr correlates successive
// decisions netem-style (reordering comes in bursts).
func NewMessageReorder(node *netem.Node, prob, corr float64, delay time.Duration, dir Direction, proto string, seed int64) (Injection, error) {
	if prob <= 0 || prob > 1 {
		return nil, fmt.Errorf("fault: reorder probability %v out of range", prob)
	}
	if corr < 0 || corr > 1 {
		return nil, fmt.Errorf("fault: reorder correlation %v out of range", corr)
	}
	if delay <= 0 {
		return nil, fmt.Errorf("fault: reorder delay must be positive")
	}
	return newRuleFault("message_reorder", node, dir, seed,
		netem.Rule{Proto: proto, ReorderProb: prob, ReorderCorr: corr, ReorderDelay: delay})
}

// NewRateLimit shapes matching packets through a token bucket of
// burstBytes at rateBps bits per second (netem-style rate limiting):
// excess packets are delayed, not dropped. burstBytes ≤ 0 selects the
// default burst.
func NewRateLimit(node *netem.Node, rateBps int64, burstBytes int, dir Direction, proto string, seed int64) (Injection, error) {
	if rateBps <= 0 {
		return nil, fmt.Errorf("fault: rate must be positive, got %d", rateBps)
	}
	return newRuleFault("rate_limit", node, dir, seed,
		netem.Rule{Proto: proto, RateBps: rateBps, RateBurst: burstBytes})
}

// procFault is a process-level fault (pumba-style kill/pause/stress),
// realized through the netem node's process state.
type procFault struct {
	kind         string
	node         *netem.Node
	active       bool
	start, clear func(n *netem.Node)
}

func (f *procFault) Kind() string         { return f.kind }
func (f *procFault) Target() netem.NodeID { return f.node.ID() }
func (f *procFault) Active() bool         { return f.active }

func (f *procFault) Start() {
	if !f.active {
		f.active = true
		f.start(f.node)
	}
}

func (f *procFault) Stop() {
	if f.active {
		f.active = false
		f.clear(f.node)
	}
}

// NewNodeKill kills the target's process: the node goes mute, loses its
// queues and leaves routing until the fault stops (restart).
func NewNodeKill(node *netem.Node) Injection {
	return &procFault{kind: "node_kill", node: node,
		start: func(n *netem.Node) { n.SetKilled(true) },
		clear: func(n *netem.Node) { n.SetKilled(false) }}
}

// NewNodePause freezes the target's process (SIGSTOP): received packets
// buffer up to the queue limit and are processed on resume.
func NewNodePause(node *netem.Node) Injection {
	return &procFault{kind: "node_pause", node: node,
		start: func(n *netem.Node) { n.SetPaused(true) },
		clear: func(n *netem.Node) { n.SetPaused(false) }}
}

// NewNodeStress loads the target's CPU by factor ≥ 0: packet
// serialization slows down by (1+factor)×.
func NewNodeStress(node *netem.Node, factor float64) (Injection, error) {
	if factor < 0 {
		return nil, fmt.Errorf("fault: stress factor %v negative", factor)
	}
	return &procFault{kind: "node_stress", node: node,
		start: func(n *netem.Node) { n.SetStress(factor) },
		clear: func(n *netem.Node) { n.SetStress(0) }}, nil
}

// ifaceFault implements the interface fault of §IV-D1: no messages are
// transmitted or received in the chosen direction while active.
type ifaceFault struct {
	node   *netem.Node
	dir    netem.Direction
	active bool
}

// NewInterfaceFault blocks the node's interface in the given direction.
func NewInterfaceFault(node *netem.Node, dir Direction, seed int64) (Injection, error) {
	d, err := dir.resolve(seeds.Key{Tag: seeds.Fault, Seed: seed}.Rand())
	if err != nil {
		return nil, err
	}
	return &ifaceFault{node: node, dir: d}, nil
}

func (f *ifaceFault) Kind() string         { return "interface_fault" }
func (f *ifaceFault) Target() netem.NodeID { return f.node.ID() }
func (f *ifaceFault) Active() bool         { return f.active }

func (f *ifaceFault) Start() {
	if f.active {
		return
	}
	f.active = true
	switch f.dir {
	case netem.DirRx:
		f.node.SetInterfaceDir(true, false)
	case netem.DirTx:
		f.node.SetInterfaceDir(false, true)
	default:
		f.node.SetInterface(false)
	}
}

func (f *ifaceFault) Stop() {
	if !f.active {
		return
	}
	f.active = false
	switch f.dir {
	case netem.DirRx, netem.DirTx:
		f.node.SetInterfaceDir(false, false)
	default:
		f.node.SetInterface(true)
	}
}

// Timing is the common temporal fault behaviour (§IV-D): the fault is
// active for Rate·Duration in one continuous block whose position within
// Duration derives from Seed.
type Timing struct {
	// Duration is the total window the fault belongs to.
	Duration time.Duration
	// Rate is the active fraction in [0,1].
	Rate float64
	// Seed positions the active block.
	Seed int64
}

// Applied is a scheduled fault activation.
type Applied struct {
	// StartAt and StopAt are the activation block bounds (virtual time).
	StartAt, StopAt time.Time
	startT, stopT   *sched.Timer
}

// Cancel stops the scheduled activation (and deactivates if active).
func (a *Applied) Cancel(inj Injection) {
	if a.startT != nil {
		a.startT.Stop()
	}
	if a.stopT != nil {
		a.stopT.Stop()
	}
	inj.Stop()
}

// Apply schedules inj according to tm, starting from the current virtual
// time. onEvent, if non-nil, receives "start"/"stop" notifications when the
// block boundaries fire (§IV-D3: one event per action). Rate ≤ 0 or zero
// Duration degenerate to an immediate permanent start; Rate ≥ 1 with a
// positive Duration is active for the whole window and stops at its end.
func Apply(s *sched.Scheduler, inj Injection, tm Timing, onEvent func(string)) *Applied {
	notify := func(what string) {
		if onEvent != nil {
			onEvent(what)
		}
	}
	if tm.Duration <= 0 || tm.Rate <= 0 {
		// Started once, stopped explicitly (§IV-D2). Activation is
		// synchronous so the fault is in force before the next action
		// of the manipulation process executes.
		a := &Applied{StartAt: s.Now()}
		inj.Start()
		notify("start")
		return a
	}
	rate := tm.Rate
	if rate > 1 {
		rate = 1
	}
	active := time.Duration(float64(tm.Duration) * rate)
	slack := tm.Duration - active
	rng := seeds.Key{Tag: seeds.Timing, Seed: tm.Seed}.Rand()
	var offset time.Duration
	if slack > 0 {
		offset = time.Duration(rng.Int63n(int64(slack) + 1))
	}
	now := s.Now()
	a := &Applied{StartAt: now.Add(offset), StopAt: now.Add(offset + active)}
	a.startT = s.ScheduleFunc(offset, "fault-start "+inj.Kind(), func() {
		inj.Start()
		notify("start")
	})
	a.stopT = s.ScheduleFunc(offset+active, "fault-stop "+inj.Kind(), func() {
		inj.Stop()
		notify("stop")
	})
	return a
}
