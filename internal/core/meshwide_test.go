package core

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"excovery/internal/metrics"
	"excovery/internal/netem"
)

// TestMeshwide500NodeSmoke runs Exp. E (descriptions/exp-e-meshwide.xml)
// on a 500-node random geometric mesh under virtual time: one replication
// per blocking level, exercising flood fan-out, the packet pool and the
// precomputed neighbor snapshots at a scale far beyond the ten-node file.
// The relays R6…R495 join the file's R0…R5, and the radius is the
// geometric connectivity threshold sqrt(1.6·ln n / (π·n)), which keeps the
// mean node degree near ten instead of densifying into a clique.
func TestMeshwide500NodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("500-node mesh in -short mode")
	}
	const nodes = 500
	e := builtin(t, "exp-e-meshwide", 1)
	for i := len(e.AbstractNodes) - 4; i < nodes-4; i++ {
		e.AbstractNodes = append(e.AbstractNodes, fmt.Sprintf("R%d", i))
	}
	n := float64(nodes)
	e.SetEEParam("geo_radius", strconv.FormatFloat(math.Sqrt(1.6*math.Log(n)/(math.Pi*n)), 'g', -1, 64))
	x, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(x.Net.Nodes()); got != nodes {
		t.Fatalf("mesh size = %d, want %d", got, nodes)
	}
	for _, sm := range []netem.NodeID{"M0", "M1", "M2"} {
		if x.Net.HopCount("U", sm) < 0 {
			t.Fatalf("mesh not connected: U cannot reach %s", sm)
		}
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	ms := metrics.FromReport(e, rep, "", "")
	if len(ms) != 3 {
		t.Fatalf("runs = %d, want 3 (one per blocking level)", len(ms))
	}
	found := 0
	for _, m := range ms {
		found += m.Found
	}
	if found == 0 {
		t.Fatal("no SM discovered in any run on the 500-node mesh")
	}
}
