package master

import (
	"bytes"
	"encoding/json"
	"testing"

	"excovery/internal/obs"
)

// snapshotNode is a hostedNode whose host answers the campaign fan-in
// with a fixed registry snapshot.
type snapshotNode struct {
	*hostedNode
	pts []obs.MetricPoint
}

func (n *snapshotNode) ObsSnapshot() ([]obs.MetricPoint, error) {
	return append([]obs.MetricPoint(nil), n.pts...), nil
}

// TestFanInRollupIsByteIdentical: three hosts report one series each with
// values whose float sum differs in every rotation of the three. The fleet
// rollup of campaign_metrics.json must add them in source-key order — not
// in node order, which differs here, and not in map order — so every
// fan-in writes the same bytes.
func TestFanInRollupIsByteIdentical(t *testing.T) {
	// Node A is served by h3, B by h1, C by h2: node order and host-key
	// order disagree.
	values := map[string]float64{"http://h1": 0.2, "http://h2": 0.3, "http://h3": 0.4}
	hostOf := map[string]string{"A": "http://h3", "B": "http://h1", "C": "http://h2"}

	// want is the sum in host-key order, the first rotation.
	inKeyOrder := []float64{values["http://h1"], values["http://h2"], values["http://h3"]}
	sums := map[float64]bool{}
	want := 0.0
	for r := range inKeyOrder {
		sum := 0.0
		for i := range inKeyOrder {
			sum += inKeyOrder[(r+i)%len(inKeyOrder)]
		}
		if r == 0 {
			want = sum
		}
		sums[sum] = true
	}
	if len(sums) != len(inKeyOrder) {
		t.Fatalf("fixture: the rotations of %v sum to %d distinct values, want %d",
			inKeyOrder, len(sums), len(inKeyOrder))
	}

	s, bus := newFixtureParts()
	handles := map[string]NodeHandle{}
	for id, key := range hostOf {
		handles[id] = &snapshotNode{
			hostedNode: &hostedNode{stubNode: newStub(id, s, bus),
				host: &fakeHost{key: key, calls: map[string]int{}}},
			pts: []obs.MetricPoint{{Name: "excovery_probe_value", Type: "gauge",
				Value: values[key]}},
		}
	}
	m, err := New(Config{Exp: twoNodeExp(1), S: s, Bus: bus, Nodes: handles,
		Env: &stubEnv{}, Metrics: obs.NewRegistry(), Status: obs.NewStatus(s.Now)})
	if err != nil {
		t.Fatal(err)
	}

	const fanIns = 64
	var docs [][]byte
	s.Go("fanin", func() {
		for i := 0; i < fanIns; i++ {
			docs = append(docs, m.fanInMetrics(0).encode())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	var doc campaignDoc
	if err := json.Unmarshal(docs[0], &doc); err != nil {
		t.Fatalf("campaign_metrics.json: %v", err)
	}
	if len(doc.Sources) != 3 {
		t.Fatalf("%d sources, want the three hosts:\n%s", len(doc.Sources), docs[0])
	}
	if got := doc.Fleet["probe_value"]; got != want {
		t.Errorf("fleet probe_value = %v, want %v (the sum in host-key order)", got, want)
	}
	for i, b := range docs {
		if !bytes.Equal(b, docs[0]) {
			t.Fatalf("fan-in %d wrote different bytes:\n%s\nfirst:\n%s", i, b, docs[0])
		}
	}
}
