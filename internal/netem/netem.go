// Package netem emulates a wireless multi-hop IP network on a cooperative
// scheduler.
//
// The paper's prototype runs on the DES wireless testbed at FU Berlin; this
// package is the substitute platform (see DESIGN.md). It fulfils the
// platform requirements of §IV-A as far as they apply to an emulator:
//
//   - Experiment management (§IV-A1): the control channel is out of band —
//     the master manipulates nodes through direct method calls (or XML-RPC
//     in the distributed deployment), never through emulated links.
//   - Connection control (§IV-A2): interfaces can be taken down per
//     direction and packets can be dropped, delayed and modified based on
//     installed rules (see rules.go).
//   - Measurement (§IV-A3): every node captures packets with local
//     timestamps and full content, packets carry unique identifiers and
//     their hop-by-hop path, and a 16-bit packet tagger reproduces the
//     prototype's IP-option tagging.
//
// Topology is an arbitrary undirected graph with per-link delay, jitter and
// loss and per-node transmission rate (the shared-medium serialization of a
// wireless radio). Unicast packets are routed hop by hop along shortest
// paths; multicast and broadcast packets flood the mesh with per-hop
// duplicate suppression and a TTL, which is how mDNS traffic propagates in
// a mesh under flooding-based multicast.
//
// The per-packet data path runs as inline scheduler events with pooled
// packets and precomputed per-node fan-out (see DESIGN.md §16): no
// goroutine handoff, no allocation and no neighbor recomputation per
// delivery.
package netem

import (
	"fmt"
	"sort"
	"time"

	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/seeds"
	"excovery/internal/vclock"
)

// BurstLoss is a two-state Gilbert–Elliott loss model for bursty wireless
// links ([8]: real radio channels lose packets in bursts, not
// independently). The link is in a good or a bad state; each traversing
// packet first triggers a possible state transition, then draws its loss
// from the current state's probability.
type BurstLoss struct {
	// PGoodToBad and PBadToGood are per-packet transition probabilities.
	PGoodToBad, PBadToGood float64
	// LossGood and LossBad are the loss probabilities in each state
	// (typically LossGood ≪ LossBad).
	LossGood, LossBad float64
}

// MeanLoss returns the stationary loss probability of the model.
func (b BurstLoss) MeanLoss() float64 {
	den := b.PGoodToBad + b.PBadToGood
	if den == 0 {
		return b.LossGood
	}
	pBad := b.PGoodToBad / den
	return (1-pBad)*b.LossGood + pBad*b.LossBad
}

// LinkParams describe one directed link of the topology.
type LinkParams struct {
	// Delay is the constant propagation/processing delay.
	Delay time.Duration
	// Jitter adds a uniformly distributed extra delay in [0,Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1] that a packet on this link is
	// lost. Losses are independent per packet and per receiving neighbor
	// (broadcast transmissions can reach some neighbors and miss others,
	// as on a real radio channel).
	Loss float64
	// Burst, if non-nil, replaces the independent Loss with the
	// Gilbert–Elliott model; each directed link keeps its own state.
	Burst *BurstLoss

	// burstBad is the per-directed-link Gilbert–Elliott state.
	burstBad bool
}

// DefaultLink returns link parameters resembling one hop of an IEEE 802.11
// mesh under light load: 1 ms delay, 0.5 ms jitter, 1 % loss.
func DefaultLink() LinkParams {
	return LinkParams{Delay: time.Millisecond, Jitter: 500 * time.Microsecond, Loss: 0.01}
}

// NodeParams describe a node's radio.
type NodeParams struct {
	// RateBps is the egress serialization rate in bits per second. All
	// transmissions of a node share this rate, which models medium
	// occupancy: background traffic inflates the queueing delay of SD
	// packets. Default 6 Mbit/s (effective 802.11g mesh rate).
	RateBps int64
	// QueueLen is the maximum number of packets in the egress queue;
	// excess packets are tail-dropped. Default 64.
	QueueLen int
	// Clock is the node's local clock; nil means a perfect clock.
	Clock vclock.Clock
}

func (p *NodeParams) fill(s *sched.Scheduler) {
	if p.RateBps == 0 {
		p.RateBps = 6_000_000
	}
	if p.QueueLen == 0 {
		p.QueueLen = 64
	}
	if p.Clock == nil {
		p.Clock = vclock.Perfect{S: s}
	}
}

// DropReason classifies discarded packets in the network statistics.
type DropReason int

const (
	// DropLoss is a random link loss.
	DropLoss DropReason = iota
	// DropRule is a discard by an installed manipulation rule.
	DropRule
	// DropQueue is an egress tail drop (queue full).
	DropQueue
	// DropNoRoute means no path to the unicast destination exists.
	DropNoRoute
	// DropTTL means the flood TTL expired.
	DropTTL
	// DropIfDown means the interface was administratively down.
	DropIfDown
	// DropProc means the node's process was killed or paused.
	DropProc
	dropReasonCount
)

func (r DropReason) String() string {
	switch r {
	case DropLoss:
		return "loss"
	case DropRule:
		return "rule"
	case DropQueue:
		return "queue"
	case DropNoRoute:
		return "noroute"
	case DropTTL:
		return "ttl"
	case DropIfDown:
		return "ifdown"
	case DropProc:
		return "proc"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Stats are network-wide packet counters.
type Stats struct {
	// Sent counts packets handed to Send.
	Sent uint64
	// Transmissions counts per-hop radio transmissions.
	Transmissions uint64
	// Delivered counts handler invocations.
	Delivered uint64
	// Duplicates counts flood duplicates suppressed at receivers.
	Duplicates uint64
	// RuleDuplicates counts packet copies created by duplication rules.
	RuleDuplicates uint64
	// Dropped counts discards by reason.
	Dropped [dropReasonCount]uint64
}

// DroppedTotal sums all drop reasons.
func (st *Stats) DroppedTotal() uint64 {
	var t uint64
	for _, v := range st.Dropped {
		t += v
	}
	return t
}

// maxFreePackets bounds the network's packet free list.
const maxFreePackets = 8192

// newPacket returns a zeroed packet from the network's free list (or a
// fresh one). The caller owns it until it is handed to exactly one of: the
// egress ring, a scheduled delivery event, the paused-process buffer — or
// freed.
func (nw *Network) newPacket() *Packet {
	if k := len(nw.free); k > 0 {
		p := nw.free[k-1]
		nw.free[k-1] = nil
		nw.free = nw.free[:k-1]
		return p
	}
	return &Packet{}
}

// freePacket recycles p. The packet must not be referenced afterwards; its
// Path backing array is retained for reuse.
func (nw *Network) freePacket(p *Packet) {
	path := p.Path[:0]
	*p = Packet{}
	p.Path = path
	if len(nw.free) < maxFreePackets {
		nw.free = append(nw.free, p)
	}
}

// edge is one precomputed outgoing link of a node: the resolved target node
// and the link parameters, so the flood fan-out, the contention model and
// the unicast hop touch no maps. Rebuilt only on topology mutation.
type edge struct {
	n  *Node
	lp *LinkParams
}

// Network is an emulated mesh network.
type Network struct {
	s *sched.Scheduler

	// stats, pktSeq and free are the mutable hot-path state: the packet
	// counters, the packet ID sequence and the packet free list. Only the
	// scheduler's controller goroutine and its tasks touch them.
	stats  Stats
	pktSeq uint64
	free   []*Packet

	nodes  map[NodeID]*Node
	order  []NodeID // sorted, for deterministic iteration
	links  map[NodeID]map[NodeID]*LinkParams
	groups map[string]map[NodeID]bool
	// edgesDirty/routesDirty mark the per-node edge snapshots and next-hop
	// tables (Node.hops) stale after a topology mutation. Both rebuild
	// lazily.
	edgesDirty  bool
	routesDirty bool
	// linkGen counts link-table mutations (addDirected, RemoveLink). A
	// queued unicast transmission carries the generation its hop was
	// resolved at; if it moved by transmit time, the hop's link is looked
	// up again.
	linkGen uint64
	ruleSeq int
	seed    int64
	// obs, when non-nil, makes nodes and rules resolve per-node/per-rule
	// instruments (see metrics.go). Nil leaves the data path bare.
	obs *obs.Registry

	// DefaultTTL limits multicast/broadcast flooding; default 8 hops.
	DefaultTTL int
	// Contention models the shared wireless medium (CSMA-style): a
	// transmission occupies the channel at the sender and all its radio
	// neighbors, so background traffic steals airtime from everyone in
	// range — the mechanism that makes generated load inflate discovery
	// times on a real testbed. Default on; switch off for idealized
	// point-to-point links.
	Contention bool
}

// New creates an empty network. All random decisions (loss,
// jitter) derive from seed, so two networks with equal topology, seed and
// workload behave identically (§IV-C1: "perfect repeatability of random
// sequences").
func New(s *sched.Scheduler, seed int64) *Network {
	return &Network{
		s:          s,
		nodes:      make(map[NodeID]*Node),
		links:      make(map[NodeID]map[NodeID]*LinkParams),
		groups:     make(map[string]map[NodeID]bool),
		seed:       seed,
		DefaultTTL: 8,
		Contention: true,
	}
}

// Stats returns a snapshot of the network counters.
func (nw *Network) Stats() Stats { return nw.stats }

// AddNode creates a node. Adding an existing node panics: node identifiers
// are host names and must be unique (§IV-E).
func (nw *Network) AddNode(id NodeID, params NodeParams) *Node {
	if _, dup := nw.nodes[id]; dup {
		panic(fmt.Sprintf("netem: duplicate node %q", id))
	}
	params.fill(nw.s)
	n := &Node{
		id:     id,
		net:    nw,
		params: params,
		clock:  params.Clock,
		rng:    seeds.Key{Tag: seeds.Netem, Seed: nw.seed, ID: string(id)}.Rand(),
		seen:   make(map[uint64]bool),
		member: make(map[string]bool),
		up:     true,
	}
	for gname, members := range nw.groups {
		if members[id] {
			n.member[gname] = true
		}
	}
	if nw.obs != nil {
		n.instrument(nw.obs)
	}
	nw.nodes[id] = n
	nw.order = append(nw.order, id)
	sort.Slice(nw.order, func(i, j int) bool { return nw.order[i] < nw.order[j] })
	nw.links[id] = make(map[NodeID]*LinkParams)
	nw.edgesDirty, nw.routesDirty = true, true
	return n
}

// Node returns the named node or nil.
func (nw *Network) Node(id NodeID) *Node { return nw.nodes[id] }

// Nodes returns all node identifiers in sorted order.
func (nw *Network) Nodes() []NodeID { return append([]NodeID(nil), nw.order...) }

// AddLink creates a bidirectional link with the same parameters in both
// directions. Links to unknown nodes panic.
func (nw *Network) AddLink(a, b NodeID, p LinkParams) {
	nw.addDirected(a, b, p)
	nw.addDirected(b, a, p)
}

// AddDirectedLink creates a unidirectional link (asymmetric links are
// common in wireless meshes, [8]).
func (nw *Network) AddDirectedLink(from, to NodeID, p LinkParams) {
	nw.addDirected(from, to, p)
}

func (nw *Network) addDirected(from, to NodeID, p LinkParams) {
	if nw.nodes[from] == nil || nw.nodes[to] == nil {
		panic(fmt.Sprintf("netem: link %s->%s references unknown node", from, to))
	}
	if from == to {
		panic("netem: self link")
	}
	cp := p
	nw.links[from][to] = &cp
	nw.edgesDirty, nw.routesDirty = true, true
	nw.linkGen++
}

// Link returns the parameters of the directed link from->to, or nil.
func (nw *Network) Link(from, to NodeID) *LinkParams {
	return nw.links[from][to]
}

// RemoveLink deletes the link in both directions and invalidates the
// per-node edge snapshots and routes, so the very next transmission sees
// the new topology.
func (nw *Network) RemoveLink(a, b NodeID) {
	delete(nw.links[a], b)
	delete(nw.links[b], a)
	nw.edgesDirty, nw.routesDirty = true, true
	nw.linkGen++
}

// Join adds a node to a multicast group. The node's membership snapshot is
// updated immediately, so the next flood delivery observes it.
func (nw *Network) Join(group string, id NodeID) {
	if nw.groups[group] == nil {
		nw.groups[group] = make(map[NodeID]bool)
	}
	nw.groups[group][id] = true
	if n := nw.nodes[id]; n != nil {
		n.member[group] = true
	}
}

// Leave removes a node from a multicast group; the node's membership
// snapshot is invalidated immediately, so the very next flood delivery no
// longer reaches it.
func (nw *Network) Leave(group string, id NodeID) {
	delete(nw.groups[group], id)
	if n := nw.nodes[id]; n != nil {
		delete(n.member, group)
	}
}

// ensureEdges rebuilds every node's outgoing-edge snapshot (sorted by
// target id) after a topology mutation. The snapshot resolves the target
// node and link parameters once, so the per-transmission fan-out loop does
// no map lookups and no sorting.
func (nw *Network) ensureEdges() {
	if !nw.edgesDirty {
		return
	}
	for _, id := range nw.order {
		n := nw.nodes[id]
		n.edges = n.edges[:0]
		for to, lp := range nw.links[id] {
			n.edges = append(n.edges, edge{n: nw.nodes[to], lp: lp})
		}
		sort.Slice(n.edges, func(i, j int) bool { return n.edges[i].n.id < n.edges[j].n.id })
	}
	nw.edgesDirty = false
}

// recomputeRoutes rebuilds every node's next-hop table with a BFS per
// source over operational nodes (interface up, process not killed).
func (nw *Network) recomputeRoutes() {
	nw.ensureEdges()
	for _, src := range nw.order {
		n := nw.nodes[src]
		n.hops = nw.bfsFrom(n)
	}
	nw.routesDirty = false
}

// bfsFrom maps every destination reachable from src to its first hop: the
// edge from src to the relay, target node and link parameters resolved.
func (nw *Network) bfsFrom(src *Node) map[NodeID]edge {
	next := make(map[NodeID]edge)
	if !src.operational() {
		return next
	}
	type qe struct {
		node  *Node
		first edge // first hop on the path from src
	}
	visited := map[NodeID]bool{src.id: true}
	var queue []qe
	for _, e := range src.edges {
		if e.n.operational() {
			visited[e.n.id] = true
			next[e.n.id] = e
			queue = append(queue, qe{e.n, e})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.node.edges {
			if visited[e.n.id] || !e.n.operational() {
				continue
			}
			visited[e.n.id] = true
			next[e.n.id] = cur.first
			queue = append(queue, qe{e.n, cur.first})
		}
	}
	return next
}

// hop returns n's first hop towards dst, recomputing routes if the
// topology changed. ok is false when dst is unreachable.
func (nw *Network) hop(n *Node, dst NodeID) (edge, bool) {
	if nw.routesDirty {
		nw.recomputeRoutes()
	}
	h, ok := n.hops[dst]
	return h, ok
}

// NextHop returns the first hop on the route src->dst, recomputing routes
// if the topology changed. ok is false when dst is unreachable.
func (nw *Network) NextHop(src, dst NodeID) (NodeID, bool) {
	n := nw.nodes[src]
	if n == nil {
		return "", false
	}
	h, ok := nw.hop(n, dst)
	if !ok {
		return "", false
	}
	return h.n.id, true
}

// HopCount returns the number of hops on the shortest path a->b, 0 for
// a==b, or -1 if unreachable. It is the topology measurement of §IV-B4.
func (nw *Network) HopCount(a, b NodeID) int {
	if a == b {
		return 0
	}
	cur := nw.nodes[a]
	if cur == nil {
		return -1
	}
	hops := 0
	for cur.id != b {
		h, ok := nw.hop(cur, b)
		if !ok {
			return -1
		}
		cur = h.n
		hops++
		if hops > len(nw.order) {
			return -1 // routing loop guard; cannot happen with BFS tables
		}
	}
	return hops
}

// HopMatrix measures hop counts between all node pairs, as done before and
// after each experiment (§IV-B4).
func (nw *Network) HopMatrix() map[NodeID]map[NodeID]int {
	m := make(map[NodeID]map[NodeID]int, len(nw.order))
	for _, a := range nw.order {
		m[a] = make(map[NodeID]int, len(nw.order))
		for _, b := range nw.order {
			m[a][b] = nw.HopCount(a, b)
		}
	}
	return m
}
