package desc

import (
	"fmt"
	"testing"
	"testing/quick"
)

func planExperiment(kind PlanKind, seed int64, reps int) *Experiment {
	return &Experiment{
		Name:          "plan-test",
		AbstractNodes: []string{"A"},
		Factors: []Factor{
			IntFactor("f1", UsageConstant, 1, 2),
			IntFactor("f2", UsageConstant, 10, 20, 30),
		},
		Repl:     Replication{ID: "rep", Count: reps},
		Seed:     seed,
		PlanKind: kind,
	}
}

func TestOFATOrderLastFactorFastest(t *testing.T) {
	p, err := GeneratePlan(planExperiment(PlanOFAT, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Runs) != 6 || p.Treatments != 6 {
		t.Fatalf("runs=%d treatments=%d", len(p.Runs), p.Treatments)
	}
	var seq []string
	for _, r := range p.Runs {
		seq = append(seq, r.String("f1", "?")+"/"+r.String("f2", "?"))
	}
	want := "[1/10 1/20 1/30 2/10 2/20 2/30]"
	if fmt.Sprint(seq) != want {
		t.Fatalf("OFAT order = %v, want %v", seq, want)
	}
}

func TestReplicationInnermost(t *testing.T) {
	p, err := GeneratePlan(planExperiment(PlanOFAT, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Runs) != 18 {
		t.Fatalf("runs = %d", len(p.Runs))
	}
	// First three runs share the treatment and enumerate replications.
	for i := 0; i < 3; i++ {
		r := p.Runs[i]
		if r.Replication != i || r.TreatmentIndex != 0 {
			t.Fatalf("run %d: rep=%d treatment=%d", i, r.Replication, r.TreatmentIndex)
		}
		// Replication index exposed as pseudo-factor.
		if got := r.String("rep", "?"); got != fmt.Sprint(i) {
			t.Fatalf("run %d rep pseudo-factor = %q", i, got)
		}
	}
}

func TestEveryTreatmentExactlyReplicationTimes(t *testing.T) {
	f := func(seed int64, repsRaw uint8, kindPick bool) bool {
		reps := int(repsRaw%5) + 1
		kind := PlanOFAT
		if kindPick {
			kind = PlanRandomized
		}
		p, err := GeneratePlan(planExperiment(kind, seed, reps))
		if err != nil {
			return false
		}
		counts := map[string]int{}
		for _, r := range p.Runs {
			counts[r.String("f1", "?")+"/"+r.String("f2", "?")]++
		}
		if len(counts) != 6 {
			return false
		}
		for _, c := range counts {
			if c != reps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanDeterministicForSeed(t *testing.T) {
	sig := func(seed int64, kind PlanKind) string {
		e := planExperiment(kind, seed, 2)
		e.Factors[0].Usage = UsageRandom
		p, err := GeneratePlan(e)
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, r := range p.Runs {
			s += r.String("f1", "?") + r.String("f2", "?") + ","
		}
		return s
	}
	if sig(5, PlanOFAT) != sig(5, PlanOFAT) {
		t.Fatal("OFAT plan not deterministic")
	}
	if sig(5, PlanRandomized) != sig(5, PlanRandomized) {
		t.Fatal("randomized plan not deterministic for same seed")
	}
	if sig(5, PlanRandomized) == sig(6, PlanRandomized) {
		t.Fatal("different seeds should give different randomized orders")
	}
}

func TestRandomUsageShufflesLevelOrder(t *testing.T) {
	e := &Experiment{
		Name:          "shuffle",
		AbstractNodes: []string{"A"},
		Factors: []Factor{
			IntFactor("outer", UsageConstant, 1, 2, 3, 4),
			IntFactor("inner", UsageRandom, 1, 2, 3, 4, 5, 6, 7, 8),
		},
		Repl: Replication{ID: "rep", Count: 1},
		Seed: 99,
	}
	p, err := GeneratePlan(e)
	if err != nil {
		t.Fatal(err)
	}
	// Each sweep of the inner factor covers all 8 levels.
	for sweep := 0; sweep < 4; sweep++ {
		seen := map[string]bool{}
		for i := 0; i < 8; i++ {
			seen[p.Runs[sweep*8+i].String("inner", "?")] = true
		}
		if len(seen) != 8 {
			t.Fatalf("sweep %d does not cover all levels: %v", sweep, seen)
		}
	}
	// At least one sweep must differ from the sorted order (probability
	// of all four being identity is (1/8!)⁴).
	identityCount := 0
	for sweep := 0; sweep < 4; sweep++ {
		ordered := true
		for i := 0; i < 8; i++ {
			if p.Runs[sweep*8+i].String("inner", "?") != fmt.Sprint(i+1) {
				ordered = false
				break
			}
		}
		if ordered {
			identityCount++
		}
	}
	if identityCount == 4 {
		t.Fatal("random factor never shuffled")
	}
}

func TestRandomizedPlanIsPermutationOfOFAT(t *testing.T) {
	ofat, err := GeneratePlan(planExperiment(PlanOFAT, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := GeneratePlan(planExperiment(PlanRandomized, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	count := func(p *Plan) map[string]int {
		m := map[string]int{}
		for _, r := range p.Runs {
			m[r.String("f1", "")+r.String("f2", "")+fmt.Sprint(r.Replication)]++
		}
		return m
	}
	a, b := count(ofat), count(rnd)
	if len(a) != len(b) {
		t.Fatalf("different multisets: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("multiset mismatch at %s", k)
		}
	}
	// IDs must be the execution order in both.
	for i, r := range rnd.Runs {
		if r.ID != i {
			t.Fatalf("randomized run %d has ID %d", i, r.ID)
		}
	}
}

func TestPlanErrorOnEmptyFactor(t *testing.T) {
	e := planExperiment(PlanOFAT, 1, 1)
	e.Factors[0].Levels = nil
	if _, err := GeneratePlan(e); err == nil {
		t.Fatal("expected error for empty factor")
	}
}

func TestPlanErrorOnExplosion(t *testing.T) {
	e := &Experiment{Name: "boom", Seed: 1}
	for i := 0; i < 10; i++ {
		e.Factors = append(e.Factors, IntFactor(fmt.Sprintf("f%d", i), UsageConstant, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	}
	e.Repl.Count = 1000
	if _, err := GeneratePlan(e); err == nil {
		t.Fatal("expected explosion guard error")
	}
}

func TestPlanErrorOnUnknownKind(t *testing.T) {
	e := planExperiment("weird", 1, 1)
	if _, err := GeneratePlan(e); err == nil {
		t.Fatal("expected error for unknown plan kind")
	}
}

func TestRunAccessors(t *testing.T) {
	p, err := GeneratePlan(planExperiment(PlanOFAT, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := p.Runs[0]
	if l, ok := r.Level("f1"); !ok || l.Raw != "1" {
		t.Fatalf("Level(f1) = %+v, %v", l, ok)
	}
	if _, ok := r.Level("missing"); ok {
		t.Fatal("Level lookup of a missing factor succeeded")
	}
	if got := r.String("missing", "dflt"); got != "dflt" {
		t.Fatalf("String default = %q", got)
	}
}

func TestNoFactorsPlan(t *testing.T) {
	e := &Experiment{Name: "min", Seed: 1, Repl: Replication{ID: "r", Count: 4}}
	p, err := GeneratePlan(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Runs) != 4 || p.Treatments != 1 {
		t.Fatalf("runs=%d treatments=%d", len(p.Runs), p.Treatments)
	}
}

func TestBlockedPlanShufflesWithinBlocks(t *testing.T) {
	// Blocking factor "site" with two levels forms two blocks; within a
	// block the design-factor order is shuffled, but no run of block B
	// precedes a run of block A.
	e := &Experiment{
		Name:          "blocked",
		AbstractNodes: []string{"A"},
		Factors: []Factor{
			StringFactor("site", UsageBlocking, "alpha", "beta"),
			IntFactor("x", UsageConstant, 1, 2, 3, 4, 5, 6, 7, 8),
		},
		Repl:     Replication{ID: "rep", Count: 1},
		Seed:     13,
		PlanKind: PlanBlocked,
	}
	p, err := GeneratePlan(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Runs) != 16 {
		t.Fatalf("runs = %d", len(p.Runs))
	}
	// Block boundary intact.
	for i, r := range p.Runs {
		want := "alpha"
		if i >= 8 {
			want = "beta"
		}
		if r.String("site", "?") != want {
			t.Fatalf("run %d in wrong block: %s", i, r.String("site", "?"))
		}
	}
	// Within at least one block the x order differs from enumeration.
	ordered := true
	for i := 0; i < 8; i++ {
		if p.Runs[i].String("x", "?") != fmt.Sprint(i+1) {
			ordered = false
		}
	}
	if ordered {
		t.Fatal("block interior not shuffled")
	}
	// Each block covers every level exactly once.
	for b := 0; b < 2; b++ {
		seen := map[string]bool{}
		for i := 0; i < 8; i++ {
			seen[p.Runs[b*8+i].String("x", "?")] = true
		}
		if len(seen) != 8 {
			t.Fatalf("block %d missing levels: %v", b, seen)
		}
	}
	// Deterministic per seed.
	p2, _ := GeneratePlan(e)
	for i := range p.Runs {
		if p.Runs[i].String("x", "?") != p2.Runs[i].String("x", "?") {
			t.Fatal("blocked plan not deterministic")
		}
	}
	// IDs follow execution order.
	for i, r := range p.Runs {
		if r.ID != i {
			t.Fatalf("run %d has ID %d", i, r.ID)
		}
	}
}

func TestBlockedPlanWithActorMapBlocks(t *testing.T) {
	// Actor-map blocking levels (different node placements) also key
	// blocks correctly.
	e := &Experiment{
		Name:          "blocked-map",
		AbstractNodes: []string{"A", "B"},
		Factors: []Factor{
			{ID: "fact_nodes", Type: TypeActorNodeMap, Usage: UsageBlocking,
				Levels: []Level{
					{ActorMap: map[string][]string{"actor0": {"A"}}},
					{ActorMap: map[string][]string{"actor0": {"B"}}},
				}},
			IntFactor("x", UsageConstant, 1, 2, 3),
		},
		Repl:     Replication{ID: "rep", Count: 2},
		Seed:     7,
		PlanKind: PlanBlocked,
	}
	if err := Validate(e); err != nil {
		t.Fatal(err)
	}
	p, err := GeneratePlan(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Runs) != 12 {
		t.Fatalf("runs = %d", len(p.Runs))
	}
	for i, r := range p.Runs {
		nodes := r.Treatment["fact_nodes"].ActorMap["actor0"]
		want := "A"
		if i >= 6 {
			want = "B"
		}
		if nodes[0] != want {
			t.Fatalf("run %d block violated: %v", i, nodes)
		}
	}
}
