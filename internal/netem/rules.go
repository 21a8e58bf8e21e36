package netem

import (
	"math/rand"
	"time"
)

// Direction selects which packet flows a manipulation rule applies to
// (§IV-D1: "Direction can be receive, transmit, both").
type Direction int

const (
	// DirBoth applies to received and transmitted packets.
	DirBoth Direction = iota
	// DirRx applies to received packets only.
	DirRx
	// DirTx applies to transmitted packets only.
	DirTx
)

func (d Direction) String() string {
	switch d {
	case DirRx:
		return "rx"
	case DirTx:
		return "tx"
	default:
		return "both"
	}
}

// matches reports whether a rule with direction d applies to a packet
// moving in capture direction c.
func (d Direction) matches(c CaptureDir) bool {
	switch d {
	case DirBoth:
		return true
	case DirRx:
		return c == CaptureRx
	default:
		return c == CaptureTx
	}
}

// Rule is a packet-manipulation rule installed on a node. Rules implement
// the connection-control requirement of §IV-A2 (dropping, delaying and
// modifying packets based on defined rules) and are the mechanism behind
// the fault injections of §IV-D1.
type Rule struct {
	id int
	// Dir selects transmit and/or receive application.
	Dir Direction
	// Proto, if non-empty, restricts the rule to packets with that
	// protocol label. Fault injections use "sd" to affect only packets
	// "belonging to the experiment process" (§IV-D1).
	Proto string
	// Peer, if non-empty, restricts the rule to packets whose remote end
	// (source for rx, destination for tx) is this node. Path loss and
	// path delay faults use it.
	Peer NodeID
	// DropProb is the probability in [0,1] that a matching packet is
	// discarded.
	DropProb float64
	// DropAll unconditionally discards matching packets (interface
	// fault / drop-all manipulation).
	DropAll bool
	// Delay adds a constant delay to matching packets (message delay
	// fault).
	Delay time.Duration
	// ReorderProb delays a matching packet by ReorderDelay with this
	// probability, letting later packets overtake it (§IV-A2 requires
	// reordering support).
	ReorderProb  float64
	ReorderDelay time.Duration
	// ReorderCorr correlates successive reorder decisions, netem-style:
	// with this probability a packet repeats the previous packet's
	// decision instead of drawing fresh against ReorderProb. Reordered
	// packets then arrive in bursts, as on real radio links.
	ReorderCorr float64
	// DupProb is the probability in [0,1] that a matching packet is
	// duplicated: on tx a second transmission is queued, on rx the packet
	// is delivered (or relayed) twice.
	DupProb float64
	// CorruptProb gates Modify: the hook runs on a matching packet with
	// this probability. Zero keeps the legacy behaviour of applying
	// Modify to every match.
	CorruptProb float64
	// RateBps, if positive, shapes matching packets through a token
	// bucket of RateBurst bytes (default 4 full frames): packets beyond
	// the rate are delayed until tokens refill, never dropped (netem rate
	// semantics).
	RateBps   int64
	RateBurst int
	// Rng, if non-nil, supplies the rule's probabilistic draws; nil falls
	// back to the node's stream. Fault injections set it so a fault's
	// randomness is fully determined by its own seed.
	Rng *rand.Rand
	// Modify, if non-nil, replaces the packet payload (content
	// manipulation, §IV-A2). It must not retain the packet.
	Modify func(p *Packet)

	// Token-bucket and correlation state, owned by the installed rule.
	lastReorder bool
	tokens      float64
	lastFill    time.Time
	filled      bool

	// m holds the rule's pre-resolved instruments (metrics.go); the zero
	// value keeps evaluation uninstrumented and allocation-free.
	m ruleMetrics
}

// appliesTo reports whether the rule matches packet p moving in direction c
// at node n.
func (r *Rule) appliesTo(p *Packet, c CaptureDir) bool {
	if !r.Dir.matches(c) {
		return false
	}
	if r.Proto != "" && p.Proto != r.Proto {
		return false
	}
	if r.Peer != "" {
		if c == CaptureRx {
			if p.Src != r.Peer {
				return false
			}
		} else {
			if !p.Dst.IsUnicast() || p.Dst.Node != r.Peer {
				return false
			}
		}
	}
	return true
}

// verdict is the outcome of evaluating a node's rule chain on one packet.
type verdict struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// DefaultRateBurst is the token-bucket depth used when a rate-limiting
// rule leaves RateBurst zero: four full ethernet frames.
const DefaultRateBurst = 4 * 1500

// shape passes one packet through the rule's token bucket at virtual time
// now and returns the shaping delay. The bucket may go negative: each
// packet consumes its wire size, and a deficit translates into the time
// the refill needs to cover it, so back-to-back packets queue up behind
// each other like in a real qdisc.
func (r *Rule) shape(p *Packet, now time.Time) time.Duration {
	burst := float64(r.RateBurst)
	if burst <= 0 {
		burst = DefaultRateBurst
	}
	if !r.filled {
		r.tokens = burst
		r.filled = true
	} else {
		r.tokens += now.Sub(r.lastFill).Seconds() * float64(r.RateBps) / 8
		if r.tokens > burst {
			r.tokens = burst
		}
	}
	r.lastFill = now
	r.tokens -= float64(p.WireSize())
	if r.tokens >= 0 {
		return 0
	}
	return time.Duration(-r.tokens * 8 / float64(r.RateBps) * float64(time.Second))
}

// evalRules runs all installed rules of n on p for direction c. Random
// decisions draw from the rule's own rng when set (seeded fault
// injections), otherwise from the node's deterministic stream.
func (n *Node) evalRules(p *Packet, c CaptureDir) verdict {
	var v verdict
	for _, r := range n.rules {
		if !r.appliesTo(p, c) {
			continue
		}
		rng := r.Rng
		if rng == nil {
			rng = n.rng
		}
		if r.DropAll {
			v.drop = true
			return v
		}
		if r.DropProb > 0 && rng.Float64() < r.DropProb {
			v.drop = true
			return v
		}
		v.delay += r.Delay
		if r.ReorderProb > 0 {
			reorder := rng.Float64() < r.ReorderProb
			if r.ReorderCorr > 0 && rng.Float64() < r.ReorderCorr {
				reorder = r.lastReorder
			}
			r.lastReorder = reorder
			if reorder {
				v.delay += r.ReorderDelay
				r.m.reordered.Inc()
			}
		}
		if r.RateBps > 0 {
			if stall := r.shape(p, n.net.s.Now()); stall > 0 {
				v.delay += stall
				r.m.rateStalls.Inc()
			}
		}
		if r.DupProb > 0 && rng.Float64() < r.DupProb {
			v.dup = true
		}
		if r.Modify != nil && (r.CorruptProb <= 0 || rng.Float64() < r.CorruptProb) {
			r.Modify(p)
			r.m.corrupted.Inc()
		}
	}
	return v
}

// InstallRule adds a manipulation rule to the node and returns it; the rule
// stays active until RemoveRule.
func (n *Node) InstallRule(r Rule) *Rule {
	n.net.ruleSeq++
	r.id = n.net.ruleSeq
	rp := &r
	if n.net.obs != nil {
		rp.instrument(n.net.obs, n.id)
	}
	n.rules = append(n.rules, rp)
	return rp
}

// RemoveRule uninstalls a rule previously returned by InstallRule. Removing
// a rule twice is a no-op.
func (n *Node) RemoveRule(r *Rule) {
	for i, x := range n.rules {
		if x == r {
			n.rules = append(n.rules[:i], n.rules[i+1:]...)
			return
		}
	}
}

// RuleCount returns the number of installed rules.
func (n *Node) RuleCount() int { return len(n.rules) }
