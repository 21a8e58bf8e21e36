package netem

import "fmt"

// Topology wiring. Each Wire function links a given id slice into one
// shape with uniform link parameters; the order of ids fixes which node
// sits where and the order links are added in. The Build functions create
// nodes named <prefix>0, <prefix>1, … and wire them. Experiments use the
// shapes to reproduce the DES testbed's mesh structures: chains isolate
// hop-count effects, grids approximate the dense office deployment and the
// full mesh is a one-hop WLAN.

// WireFull links every pair of ids: a single collision domain.
func WireFull(nw *Network, ids []NodeID, lp LinkParams) {
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			nw.AddLink(ids[i], ids[j], lp)
		}
	}
}

// WireChain links each id to the next: a linear multi-hop path.
func WireChain(nw *Network, ids []NodeID, lp LinkParams) {
	for i := 0; i+1 < len(ids); i++ {
		nw.AddLink(ids[i], ids[i+1], lp)
	}
}

// WireGrid lays ids out row-major, w to a row, and links 4-neighbours. The
// last row may be partial.
func WireGrid(nw *Network, ids []NodeID, w int, lp LinkParams) {
	for i := range ids {
		if (i+1)%w != 0 && i+1 < len(ids) {
			nw.AddLink(ids[i], ids[i+1], lp)
		}
		if i+w < len(ids) {
			nw.AddLink(ids[i], ids[i+w], lp)
		}
	}
}

// BuildChain creates a linear multi-hop topology of n nodes.
func BuildChain(nw *Network, prefix string, n int, np NodeParams, lp LinkParams) []NodeID {
	ids := addNodes(nw, prefix, n, np)
	WireChain(nw, ids, lp)
	return ids
}

// BuildFull creates a fully meshed (single-collision-domain) topology where
// every node hears every other — a one-hop WLAN.
func BuildFull(nw *Network, prefix string, n int, np NodeParams, lp LinkParams) []NodeID {
	ids := addNodes(nw, prefix, n, np)
	WireFull(nw, ids, lp)
	return ids
}

// BuildGrid creates a w×h grid with 4-neighborhood links, the canonical
// mesh-testbed layout.
func BuildGrid(nw *Network, prefix string, w, h int, np NodeParams, lp LinkParams) []NodeID {
	ids := addNodes(nw, prefix, w*h, np)
	WireGrid(nw, ids, w, lp)
	return ids
}

func addNodes(nw *Network, prefix string, n int, np NodeParams) []NodeID {
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = NodeID(fmt.Sprintf("%s%d", prefix, i))
		nw.AddNode(ids[i], np)
	}
	return ids
}
