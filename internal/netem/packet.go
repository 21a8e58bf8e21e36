package netem

import (
	"fmt"
	"time"
)

// NodeID identifies a network node; ExCovery identifies nodes by host name
// (§IV-E), so NodeID is the host name.
type NodeID string

// Dest is a packet destination: a concrete node, a multicast group or the
// broadcast domain.
type Dest struct {
	// Node is set for unicast destinations.
	Node NodeID
	// Group is set for multicast destinations (e.g. the mDNS group).
	Group string
	// Broadcast addresses every node reachable by flooding.
	Broadcast bool
}

// Unicast returns a unicast destination.
func Unicast(n NodeID) Dest { return Dest{Node: n} }

// Multicast returns a multicast destination.
func Multicast(group string) Dest { return Dest{Group: group} }

// Broadcast addresses all nodes.
func Broadcast() Dest { return Dest{Broadcast: true} }

func (d Dest) String() string {
	switch {
	case d.Broadcast:
		return "*"
	case d.Group != "":
		return "mcast:" + d.Group
	default:
		return string(d.Node)
	}
}

// IsUnicast reports whether d addresses a single node.
func (d Dest) IsUnicast() bool { return !d.Broadcast && d.Group == "" }

// Packet is the unit of communication in the emulated network. It carries
// everything §IV-B2 requires of a measured packet: a unique identifier, the
// source and destination addresses and the content; timestamps are recorded
// per capture. The Tag field is the 16-bit identifier written by the packet
// tagger of §VI-A.
type Packet struct {
	// ID is the globally unique packet identifier assigned at send time.
	ID uint64
	// Tag is the 16-bit per-sender sequence tag added by the packet
	// tagger; it wraps around.
	Tag uint16
	// Src is the originating node.
	Src NodeID
	// Dst is the destination.
	Dst Dest
	// Proto is a free-form protocol label ("sd", "traffic", "sync", …)
	// used by manipulation rules to select experiment process packets.
	Proto string
	// Payload is the packet content. It is shared between hops and must
	// be treated as immutable; Modify rules replace it wholesale.
	Payload []byte
	// Size is the wire size in bytes used for serialization-delay
	// computation. If zero, len(Payload) plus a fixed header is assumed.
	Size int
	// TTL limits flooding of multicast/broadcast packets; it decrements
	// per hop.
	TTL int
	// Path records the nodes the packet traversed, in order (packet
	// tracking, §IV-A3).
	Path []NodeID
	// SentAt is the global virtual time the packet left its source.
	SentAt time.Time

	// In-flight routing state, carried while the packet rides a scheduled
	// delivery event so the event needs no closure allocation. Unexported:
	// never serialized or captured, cleared before the packet reaches a
	// handler.
	rcv   *Node // delivery / continuation target
	rxDup bool  // rx duplication verdict across a rule-delay continuation
}

// WireSize returns the size used for serialization-delay computation.
func (p *Packet) WireSize() int {
	if p.Size > 0 {
		return p.Size
	}
	return len(p.Payload) + 48 // UDP/IP/MAC framing overhead
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d tag %d %s->%s proto %s len %d path %v",
		p.ID, p.Tag, p.Src, p.Dst, p.Proto, len(p.Payload), p.Path)
}

// cloneInto copies p into the pooled packet q (reusing q's Path capacity)
// and returns q. The clone is independently owned: recycling one copy can
// never alias the other. Payload is shared — it is immutable between hops
// and never pooled.
func (p *Packet) cloneInto(q *Packet) *Packet {
	path := q.Path
	*q = *p
	q.Path = append(path[:0], p.Path...)
	return q
}

// CaptureDir distinguishes transmit from receive captures.
type CaptureDir int

const (
	// CaptureTx marks a packet leaving the node.
	CaptureTx CaptureDir = iota
	// CaptureRx marks a packet arriving at the node.
	CaptureRx
)

func (d CaptureDir) String() string {
	if d == CaptureTx {
		return "tx"
	}
	return "rx"
}

// Capture is one captured packet occurrence on a node, with the local
// timestamp of that node (§IV-B2). It is a flat record of exactly what
// level 2 stores — not a copy of the Packet — written in place into the
// capturing node's recycled buffer (DESIGN.md §18). Payload is the packet's
// immutable buffer; Path is a view into the node's path slab, so a Capture
// is valid only as long as the Captures view it came from.
type Capture struct {
	// Time is the local (possibly skewed) timestamp of the capture.
	Time time.Time
	// Dir is the capture direction.
	Dir CaptureDir
	// Node is the capturing node.
	Node NodeID
	// ID, Tag, Src, Dst and Payload are the packet's fields of the same
	// name as seen at this node.
	ID      uint64
	Tag     uint16
	Src     NodeID
	Dst     Dest
	Payload []byte
	// Path is the nodes the packet traversed up to and including this one.
	Path []NodeID
}
