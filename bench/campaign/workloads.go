package main

import (
	"fmt"
	"math"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/netem"
)

type kind int

const (
	// kindEmu runs the description on the in-process emulated platform.
	kindEmu kind = iota
	// kindLevel3 builds a level-2 store in set-up and times the passes that
	// take it to the level-3 database and on to R / t_R.
	kindLevel3
	// kindRPC runs the description through the distributed deployment:
	// master and node host connected by XML-RPC over loopback HTTP.
	kindRPC
)

// workload is one set of inputs. The sizes are part of the benchmark: a
// change to any of them starts a new baseline.
type workload struct {
	name string
	kind kind
	// describe builds the abstract description with the given replication
	// count; the program under test only ever sees its XML encoding.
	describe func(reps int) *desc.Experiment
	// options are the platform parameters a description cannot carry.
	options func() core.Options
	// treatments is the number of factor-level combinations, so a plan has
	// treatments × replications runs.
	treatments int
	// repsPerSecond sizes the timed campaign: replications per second of
	// --seconds, fixed so that the timed part takes about --seconds on the
	// 2-core reference host. The work is fixed, not the time: a faster
	// program finishes sooner, and the same seed always measures the same
	// runs.
	repsPerSecond float64
	// rounds is how many times the timed part runs the plan, each time on a
	// fresh platform; the replications are split between the rounds. One
	// long campaign is the paper's case; more rounds keep a workload whose
	// cost depends on how much it has already stored — level-2 files in
	// tmpfs, events in the report — on the flat part of that curve.
	rounds int
	// durable writes level 2 through StoreDir + Journal.
	durable bool
	// flood marks a platform whose traffic is multi-hop multicast flooding
	// rather than single-hop unicast.
	flood bool
	// storeRuns is the size of the level-2 store kindLevel3 analyses, and
	// passSeconds the time one finalize+analyze pass over it takes on the
	// reference host.
	storeRuns   int
	passSeconds float64
}

// radio is the case study's 1.5 Mbit/s shared medium (EXPERIMENTS.md,
// Exp. A): the rate at which background load starts to contend with SD.
var radio = netem.NodeParams{RateBps: 1_500_000}

// lightCaseStudy fixes the case study at its cheapest treatment, so the
// emulation is a small part of each run and the store is the large one.
func lightCaseStudy(reps int) *desc.Experiment {
	e := desc.CaseStudy(reps)
	e.Factors[1] = desc.IntFactor("fact_pairs", desc.UsageConstant, 5)
	e.Factors[2] = desc.IntFactor("fact_bw", desc.UsageConstant, 10)
	return e
}

// The mesh-flood platform: a 20 × 10 grid, 4-neighbourhood.
const (
	meshWidth = 20
	meshNodes = 200
)

// meshPlaces puts the SU in the grid's interior and the three SMs 4, 7 and
// 10 hops away from it (row, column).
var meshPlaces = map[string][2]int{
	"U": {4, 4}, "M0": {4, 8}, "M1": {8, 7}, "M2": {0, 10},
}

// meshwide is the examples/meshwide description on a grid: an SU in a
// 200-node mesh must discover a growing set of SMs (three levels of the
// blocking actor map) over links with burst loss; every other node only
// relays the multicast flood. examples/meshwide draws a random geometric
// graph from the platform seed; here the graph is the same for every seed
// and only loss and jitter are drawn from it, because the benchmark's runs
// must cost the same whatever the seed (on the geometric graph the SU lands
// 2 to 9 hops from the SMs and runs_per_s ranges from 43 to 158).
func meshwide(reps int) *desc.Experiment {
	abstract := make([]string, meshNodes)
	for name, at := range meshPlaces {
		abstract[at[0]*meshWidth+at[1]] = name
	}
	relay := 0
	for i := range abstract {
		if abstract[i] == "" {
			abstract[i] = fmt.Sprintf("R%d", relay)
			relay++
		}
	}
	e := &desc.Experiment{
		Name:    "sd-meshwide",
		Comment: "Mesh-wide discovery of k SMs under bursty loss",
		Params: []desc.Param{
			{Key: "sd_architecture", Value: "two-party"},
			{Key: "sd_protocol", Value: "zeroconf"},
			{Key: "sd_scheme", Value: "active"},
		},
		AbstractNodes: abstract,
		Factors: []desc.Factor{{
			ID: "fact_nodes", Type: desc.TypeActorNodeMap, Usage: desc.UsageBlocking,
			Levels: []desc.Level{
				{ActorMap: map[string][]string{"actor0": {"M0"}, "actor1": {"U"}}},
				{ActorMap: map[string][]string{"actor0": {"M0", "M1"}, "actor1": {"U"}}},
				{ActorMap: map[string][]string{"actor0": {"M0", "M1", "M2"}, "actor1": {"U"}}},
			},
		}},
		Repl:     desc.Replication{ID: "fact_replication_id", Count: reps},
		Seed:     26,
		PlanKind: desc.PlanBlocked,
	}
	e.NodeProcesses = []desc.NodeProcess{
		{
			Actor: "actor0", Name: "SM", NodesRef: "fact_nodes",
			Actions: []desc.Action{
				desc.Act("sd_init"),
				desc.Act("sd_start_publish"),
				desc.WaitEvent(desc.WaitSpec{Event: "done"}),
				desc.Act("sd_stop_publish"),
				desc.Act("sd_exit"),
			},
		},
		{
			Actor: "actor1", Name: "SU", NodesRef: "fact_nodes",
			Actions: []desc.Action{
				desc.WaitEvent(desc.WaitSpec{
					Event:     "sd_start_publish",
					FromActor: "actor0", FromInstance: "all",
				}),
				desc.WaitTime(5),
				desc.Act("sd_init"),
				desc.WaitMarker(),
				desc.Act("sd_start_search"),
				desc.WaitEvent(desc.WaitSpec{
					Event:     "sd_service_add",
					FromActor: "actor1", FromInstance: "all",
					ParamActor: "actor0", ParamInstance: "all",
					TimeoutSec: 30,
				}),
				desc.Flag("done"),
				desc.Act("sd_stop_search"),
				desc.Act("sd_exit"),
			},
		},
	}
	return e
}

// meshLink is the Gilbert–Elliott burst-loss link of examples/meshwide.
func meshLink() netem.LinkParams {
	return netem.LinkParams{
		Delay: time.Millisecond, Jitter: time.Millisecond,
		Burst: &netem.BurstLoss{
			PGoodToBad: 0.04, PBadToGood: 0.1,
			LossGood: 0.01, LossBad: 0.85,
		},
	}
}

// ctlNodes is the node count of the ctl-8 description.
const ctlNodes = 8

// ctl8 is a control-plane-only description: one actor over eight abstract
// nodes runs sd_init, sd_start_publish, sd_stop_publish, sd_exit with no
// wait in between, so a run is nothing but control-channel calls (health
// probe, prepare, time sync, four actions and clean-up per node). A
// description with a wait_for_time — desc.OneShot has 5 virtual seconds —
// is bound by real-time pacing instead and cannot see an RPC change.
func ctl8(reps int) *desc.Experiment {
	var nodes []string
	for i := 0; i < ctlNodes; i++ {
		nodes = append(nodes, fmt.Sprintf("N%d", i))
	}
	e := &desc.Experiment{
		Name:    "ctl-8",
		Comment: "Control-plane only: eight publishers, no waits",
		Params: []desc.Param{
			{Key: "sd_architecture", Value: "two-party"},
			{Key: "sd_protocol", Value: "zeroconf"},
			{Key: "sd_scheme", Value: "active"},
		},
		AbstractNodes: nodes,
		Factors: []desc.Factor{
			desc.ActorMapFactor("fact_nodes", desc.UsageBlocking,
				map[string][]string{"actor0": nodes}),
		},
		Repl: desc.Replication{ID: "fact_replication_id", Count: reps},
		Seed: 8,
	}
	e.NodeProcesses = []desc.NodeProcess{{
		Actor: "actor0", Name: "SM", NodesRef: "fact_nodes",
		Actions: []desc.Action{
			desc.Act("sd_init"),
			desc.Act("sd_start_publish"),
			desc.Act("sd_stop_publish"),
			desc.Act("sd_exit"),
		},
	}}
	return e
}

// rpcSpeed is the real-time pacing factor of both rpc-loopback schedulers;
// rpcSpeedSlow is the second operating point of the pacing guard.
const (
	rpcSpeed     = 0.0005
	rpcSpeedSlow = 0.005
)

// workloads are listed in the order BENCHMARK.json names them. The reasons
// each was chosen are in BENCHMARK.json and bench/README.md.
var workloads = []workload{
	{
		name: "sweep-emu", kind: kindEmu,
		describe:   desc.CaseStudy,
		options:    func() core.Options { return core.Options{Node: radio} },
		treatments: 6, repsPerSecond: 62.5, rounds: 1,
	},
	{
		name: "mesh-flood", kind: kindEmu, flood: true,
		describe: meshwide,
		options: func() core.Options {
			return core.Options{Topology: core.TopoGrid, GridWidth: meshWidth, Link: meshLink()}
		},
		treatments: 3, repsPerSecond: 66, rounds: 2,
	},
	{
		name: "durable-campaign", kind: kindEmu, durable: true,
		describe:   lightCaseStudy,
		options:    func() core.Options { return core.Options{Node: radio} },
		treatments: 1, repsPerSecond: 625, rounds: 3,
	},
	{
		name: "level3-analyze", kind: kindLevel3, durable: true,
		describe:   lightCaseStudy,
		options:    func() core.Options { return core.Options{Node: radio} },
		treatments: 1, storeRuns: 100, passSeconds: 1.3,
	},
	{
		name: "rpc-loopback", kind: kindRPC,
		describe:   ctl8,
		options:    func() core.Options { return core.Options{RealTime: true, Speed: rpcSpeed} },
		treatments: 1, repsPerSecond: 100, rounds: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// size is how much work one invocation measures.
type size struct {
	// reps and runs size one round of the timed campaign (or, on
	// kindLevel3, the store).
	reps, runs int
	// warmReps sizes the discarded warm-up campaign of each set-up: 5 % of
	// the timed one.
	warmReps int
	// passes is the number of timed finalize+analyze passes (kindLevel3).
	passes int
}

// sizeFor turns --seconds into a size. A traced invocation splits its
// seconds between an untraced and a traced campaign of half the size each,
// so it measures for as long as an untraced one.
func (w *workload) sizeFor(seconds float64, traced bool) size {
	if traced {
		seconds /= 2
	}
	atLeast1 := func(x float64) int { return int(math.Max(1, math.Round(x))) }
	var z size
	if w.kind == kindLevel3 {
		// The store shrinks only for the smoke test; from one pass up the
		// seconds buy passes over the full store.
		z.reps = atLeast1(math.Min(float64(w.storeRuns), float64(w.storeRuns)*seconds/w.passSeconds))
		z.passes = atLeast1(seconds / w.passSeconds)
		z.warmReps = z.reps
	} else {
		z.reps = atLeast1(w.repsPerSecond * seconds / float64(w.rounds))
		z.warmReps = atLeast1(float64(z.reps) * 0.05)
	}
	z.runs = z.reps * w.treatments
	return z
}
