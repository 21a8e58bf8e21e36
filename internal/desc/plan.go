package desc

import (
	"fmt"
	"math/rand"
)

// PlanKind selects how treatments are ordered over the runs (§II-A2/3,
// §IV-C1).
type PlanKind string

const (
	// PlanOFAT enumerates the cartesian product of factor levels in
	// factor-list order: the first factor varies least often, the last
	// changes every treatment (the paper's default when "no custom
	// factor level variation plan is given").
	PlanOFAT PlanKind = "ofat"
	// PlanRandomized shuffles the complete run sequence with the
	// experiment seed — a completely randomized design (§II-A3).
	PlanRandomized PlanKind = "randomized"
	// PlanBlocked keeps the levels of blocking factors in enumeration
	// order but shuffles the runs within each block — a randomized
	// complete block design (§II-A3: "partitioning observations into
	// groups ... collected under similar experimental conditions").
	PlanBlocked PlanKind = "blocked"
)

// Run is one experiment run of the treatment plan: a treatment (one level
// per factor) plus a replication index.
type Run struct {
	// ID is the execution order index, 0-based.
	ID int
	// TreatmentIndex numbers the distinct treatment combination.
	TreatmentIndex int
	// Replication is the replication index within the treatment,
	// 0-based. It is also exposed as a pseudo-factor under the
	// replication factor's ID, so processes can reference it (Fig. 7
	// seeds the traffic generator with fact_replication_id).
	Replication int
	// Treatment maps factor ID → applied level.
	Treatment map[string]Level
}

// Level returns the applied level of a factor.
func (r Run) Level(factorID string) (Level, bool) {
	l, ok := r.Treatment[factorID]
	return l, ok
}

// String returns the applied level of a factor as string, or def.
func (r Run) String(factorID, def string) string {
	if l, ok := r.Treatment[factorID]; ok {
		return l.Raw
	}
	return def
}

// Plan is the expanded treatment plan of an experiment: the exact sequence
// of treatments stored alongside results for repeatability (§IV, Fig. 3).
type Plan struct {
	// Runs is the ordered run sequence.
	Runs []Run
	// Treatments is the number of distinct treatment combinations.
	Treatments int
}

// maxPlanRuns guards against accidental combinatorial explosion.
const maxPlanRuns = 10_000_000

var errPlanSize = fmt.Errorf("desc: plan exceeds %d runs", maxPlanRuns)

// planRuns is the number of runs in e's plan: replications times the
// level count of every factor, refused beyond maxPlanRuns.
func planRuns(e *Experiment) (int, error) {
	total := max(1, e.Repl.Count)
	if total > maxPlanRuns {
		return 0, errPlanSize
	}
	for _, f := range e.Factors {
		if len(f.Levels) == 0 {
			return 0, fmt.Errorf("desc: factor %q has no levels", f.ID)
		}
		if total > maxPlanRuns/len(f.Levels) {
			return 0, errPlanSize
		}
		total *= len(f.Levels)
	}
	return total, nil
}

// GeneratePlan expands the experiment's factors, levels and replication
// into the run sequence. The generation is a pure function of the
// description (including its seed): regenerating the plan for the same
// document yields the identical sequence, which is the repeatability
// property §IV-C1 demands.
func GeneratePlan(e *Experiment) (*Plan, error) {
	factors := e.Factors
	repl := max(1, e.Repl.Count)
	total, err := planRuns(e)
	if err != nil {
		return nil, err
	}

	// Per-factor deterministic RNG streams for level-order
	// randomization, derived from the experiment seed and the factor
	// position so streams are independent.
	rngs := make([]*rand.Rand, len(factors))
	perms := make([][]int, len(factors))
	for i, f := range factors {
		rngs[i] = rand.New(rand.NewSource(e.Seed*31 + int64(i) + int64(len(f.ID))))
		perms[i] = identity(len(f.Levels))
	}
	reshuffle := func(i int) {
		if factors[i].Usage == UsageRandom {
			rngs[i].Shuffle(len(perms[i]), func(a, b int) {
				perms[i][a], perms[i][b] = perms[i][b], perms[i][a]
			})
		}
	}
	for i := range factors {
		reshuffle(i)
	}

	p := &Plan{Runs: make([]Run, 0, total)}
	// counters enumerate the mixed-radix treatment index; the last factor
	// is the fastest digit (the paper: "the last factor changes every
	// run").
	counters := make([]int, len(factors))
	tIndex := 0
	for {
		for rep := 0; rep < repl; rep++ {
			run := Run{
				ID:             len(p.Runs),
				TreatmentIndex: tIndex,
				Replication:    rep,
				Treatment:      make(map[string]Level, len(factors)+1),
			}
			for i, f := range factors {
				run.Treatment[f.ID] = f.Levels[perms[i][counters[i]]]
			}
			if e.Repl.ID != "" {
				run.Treatment[e.Repl.ID] = Level{Raw: fmt.Sprint(rep)}
			}
			p.Runs = append(p.Runs, run)
		}
		tIndex++
		// Increment mixed-radix counter, last factor fastest.
		i := len(factors) - 1
		for ; i >= 0; i-- {
			counters[i]++
			if counters[i] < len(factors[i].Levels) {
				break
			}
			counters[i] = 0
			// This factor completed a full cycle: re-randomize its
			// level order for the next sweep.
			reshuffle(i)
		}
		if i < 0 {
			break
		}
	}
	p.Treatments = tIndex

	kind := e.PlanKind
	if kind == "" {
		kind = PlanOFAT
	}
	switch kind {
	case PlanOFAT:
		// Enumeration order is already OFAT.
	case PlanRandomized:
		rng := rand.New(rand.NewSource(e.Seed ^ 0x5DEECE66D))
		rng.Shuffle(len(p.Runs), func(a, b int) {
			p.Runs[a], p.Runs[b] = p.Runs[b], p.Runs[a]
		})
		for i := range p.Runs {
			p.Runs[i].ID = i
		}
	case PlanBlocked:
		shuffleWithinBlocks(e, p)
	default:
		return nil, fmt.Errorf("desc: unknown plan kind %q", kind)
	}
	return p, nil
}

// shuffleWithinBlocks implements the randomized complete block design:
// consecutive runs sharing the levels of all blocking factors form a
// block; run order is shuffled inside each block and blocks stay in
// enumeration order. With no blocking factors the whole plan is one block
// (equivalent to PlanRandomized).
func shuffleWithinBlocks(e *Experiment, p *Plan) {
	var blocking []string
	for _, f := range e.Factors {
		if f.Usage == UsageBlocking {
			blocking = append(blocking, f.ID)
		}
	}
	blockKey := func(r Run) string {
		key := ""
		for _, id := range blocking {
			key += r.Treatment[id].String() + "|"
		}
		return key
	}
	rng := rand.New(rand.NewSource(e.Seed ^ 0x1B10C4ED))
	start := 0
	for start < len(p.Runs) {
		end := start + 1
		for end < len(p.Runs) && blockKey(p.Runs[end]) == blockKey(p.Runs[start]) {
			end++
		}
		block := p.Runs[start:end]
		rng.Shuffle(len(block), func(a, b int) {
			block[a], block[b] = block[b], block[a]
		})
		start = end
	}
	for i := range p.Runs {
		p.Runs[i].ID = i
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RunSeed derives a per-run random seed from the experiment seed and the
// run's identity. Manipulations that should randomize identically across
// replications (Fig. 7's comment: "this causes identical randomization in
// replications") instead derive their seed from a referenced factor level
// such as the replication index.
func RunSeed(expSeed int64, runID int) int64 {
	h := uint64(expSeed) * 0x9E3779B97F4A7C15
	h ^= uint64(runID) + 0x632BE59BD9B4E019
	h *= 0xD1B54A32D192ED03
	return int64(h)
}
