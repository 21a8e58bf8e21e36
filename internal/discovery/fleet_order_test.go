package discovery

import (
	"fmt"
	"testing"

	"excovery/internal/master"
	"excovery/internal/noderpc"
)

// TestSortedNodeIDs pins the fleet's determinism contract (§IV-C1):
// adoption validation iterates sortedNodeIDs, and sortedNodeIDs is sorted
// regardless of map insertion order or Go's randomized map iteration.
// Repeated rounds with different insertion orders would flip a map-range
// implementation on most runs.
func TestSortedNodeIDs(t *testing.T) {
	ids := []string{"node-c", "node-a", "node-10", "node-2", "node-b"}
	want := fmt.Sprint([]string{"node-10", "node-2", "node-a", "node-b", "node-c"})
	for round := 0; round < 50; round++ {
		nodes := map[string]master.NodeHandle{}
		// Rotate the insertion order each round.
		for i := range ids {
			id := ids[(i+round)%len(ids)]
			nodes[id] = &noderpc.RemoteNode{NodeID: id}
		}
		if got := fmt.Sprint(sortedNodeIDs(nodes)); got != want {
			t.Fatalf("round %d: sortedNodeIDs() = %v, want %v", round, got, want)
		}
	}
}

// TestMissingNodesDeterministic pins that adoption refusal is
// deterministic: the same want/have sets always name the same first
// missing node in the error, independent of set iteration order.
func TestMissingNodesDeterministic(t *testing.T) {
	want := []string{"node-a", "node-b", "node-c", "node-d"}
	for round := 0; round < 50; round++ {
		missing := missingNodes(want, []string{"node-c", "node-a"})
		if fmt.Sprint(missing) != fmt.Sprint([]string{"node-b", "node-d"}) {
			t.Fatalf("round %d: missingNodes = %v", round, missing)
		}
	}
	if got := missingNodes(want, want); len(got) != 0 {
		t.Errorf("missingNodes(want, want) = %v, want empty", got)
	}
}
