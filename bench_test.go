// Package excovery's benchmark harness regenerates every table and figure
// artifact of the paper (see DESIGN.md §4 and EXPERIMENTS.md). Figures 1-3
// and 12 are architecture concepts exercised as end-to-end pipelines;
// Figures 4-11 and Table I are executable descriptions, processes and
// storage; experiments A-D reproduce the case-study result series.
// Parameter sweeps appear as sub-benchmarks so the benchmark output reads
// as the corresponding result table: run
//
//	go test -bench=. -benchmem
package excovery

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/master"
	"excovery/internal/metrics"
	"excovery/internal/netem"
	"excovery/internal/noderpc"
	"excovery/internal/sched"
	"excovery/internal/store"
	"excovery/internal/store/reldb"
	"excovery/internal/xmlrpc"
)

// runExperiment executes a description on the emulated platform and
// returns the extracted metrics.
func runExperiment(b *testing.B, e *desc.Experiment, opts core.Options) []metrics.RunMetric {
	b.Helper()
	x, err := core.New(e, opts)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		b.Fatal(err)
	}
	return metrics.FromReport(e, rep, "", "")
}

// reportDiscovery attaches t_R and responsiveness metrics to a benchmark.
func reportDiscovery(b *testing.B, ms []metrics.RunMetric, deadline time.Duration) {
	b.Helper()
	trs := metrics.TRs(ms)
	if len(trs) > 0 {
		sum := metrics.Summarize(metrics.DurationsToSeconds(trs))
		b.ReportMetric(sum.Mean*1000, "t_R_ms")
		b.ReportMetric(sum.P90*1000, "t_R_p90_ms")
	}
	b.ReportMetric(metrics.Responsiveness(ms, deadline), "R")
}

// BenchmarkFig11OneShot regenerates the one-shot discovery of Fig. 11: one
// run per iteration, reporting the discovery time t_R.
func BenchmarkFig11OneShot(b *testing.B) {
	var all []metrics.RunMetric
	for i := 0; i < b.N; i++ {
		e := desc.OneShot(30)
		all = append(all, runExperiment(b, e, core.Options{Seed: int64(i + 1)})...)
	}
	reportDiscovery(b, all, time.Second)
}

// BenchmarkFig2ArchitectureComparison contrasts the two SD architectures
// of Fig. 2 on an otherwise identical one-shot scenario.
func BenchmarkFig2ArchitectureComparison(b *testing.B) {
	cases := []struct {
		name string
		exp  func(int) *desc.Experiment
	}{
		{"two-party", func(seed int) *desc.Experiment { return desc.OneShot(30) }},
		{"three-party", func(seed int) *desc.Experiment { return desc.ThreeParty(30, 1) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var all []metrics.RunMetric
			for i := 0; i < b.N; i++ {
				all = append(all, runExperiment(b, c.exp(i), core.Options{Seed: int64(i + 1)})...)
			}
			reportDiscovery(b, all, time.Second)
		})
	}
}

// BenchmarkFig3FullWorkflow exercises the complete ExCovery workflow of
// Fig. 3 per iteration: description → plan → runs → level-2 store →
// conditioning → level-3 database.
func BenchmarkFig3FullWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := desc.OneShot(30)
		e.Repl.Count = 3
		dir := b.TempDir()
		x, err := core.New(e, core.Options{StoreDir: dir, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := x.Run()
		if err != nil || rep.Completed != 3 {
			b.Fatalf("run: %v, completed=%d", err, rep.Completed)
		}
		db, err := x.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if n, _ := db.DB.Count("Events"); n == 0 {
			b.Fatal("empty Events table")
		}
	}
}

// BenchmarkFig5TreatmentPlan expands the Fig. 5 factor list (6 treatments
// × 1000 replications) into the 6000-run plan.
func BenchmarkFig5TreatmentPlan(b *testing.B) {
	e := desc.CaseStudy(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := desc.GeneratePlan(e)
		if err != nil || len(plan.Runs) != 6000 {
			b.Fatalf("plan: %v, runs=%d", err, len(plan.Runs))
		}
	}
}

// BenchmarkFig7TrafficGenerator measures the Fig. 7 traffic process: 10
// virtual seconds of background load between environment node pairs.
func BenchmarkFig7TrafficGenerator(b *testing.B) {
	packets := 0.0
	for i := 0; i < b.N; i++ {
		s := sched.NewVirtual()
		nw := netem.New(s, int64(i+1))
		ids := netem.BuildFull(nw, "e", 6, netem.NodeParams{}, netem.DefaultLink())
		for _, id := range ids {
			nw.Node(id).SetHandler(func(p *netem.Packet) {})
		}
		env := core.NewEnvExec(s, nw, nil, idsToStrings(ids), nil)
		s.Go("traffic", func() {
			if err := env.Execute("env_traffic_start", map[string]string{
				"bw": "100", "random_pairs": "5", "random_seed": fmt.Sprint(i),
			}); err != nil {
				b.Error(err)
			}
			s.Sleep(10 * time.Second)
			env.Execute("env_traffic_stop", nil)
		})
		if err := s.RunFor(time.Minute); err != nil {
			b.Fatal(err)
		}
		packets += float64(nw.Stats().Sent)
	}
	b.ReportMetric(packets/float64(b.N), "pkts/10s")
}

// BenchmarkFig9And10TwoPartySD executes the composed SM and SU processes
// of Figs. 9/10 (one case-study run with background load).
func BenchmarkFig9And10TwoPartySD(b *testing.B) {
	var all []metrics.RunMetric
	for i := 0; i < b.N; i++ {
		e := desc.CaseStudy(1)
		// One treatment only: fix the sweep factors.
		e.Factors[1] = desc.IntFactor("fact_pairs", desc.UsageConstant, 5)
		e.Factors[2] = desc.IntFactor("fact_bw", desc.UsageConstant, 50)
		all = append(all, runExperiment(b, e, core.Options{Seed: int64(i + 1)})...)
	}
	reportDiscovery(b, all, time.Second)
}

// BenchmarkFig12RPCControlPlane drives one run through the distributed
// XML-RPC deployment (master process model) over HTTP loopback.
func BenchmarkFig12RPCControlPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runDistributedOneShot(b, int64(i+1))
	}
}

func runDistributedOneShot(b *testing.B, seed int64) {
	b.Helper()
	e := desc.OneShot(30)
	var host *noderpc.Host
	x, err := core.New(e, core.Options{
		RealTime: true, Speed: 0.0005, Seed: seed,
		OnEvent: func(ev eventlog.Event) { host.ForwardEvent(ev) },
	})
	if err != nil {
		b.Fatal(err)
	}
	host = noderpc.NewHost(x)
	defer host.Close()
	x.S.SetKeepAlive(true)
	hostHTTP := httptest.NewServer(host.Server())
	defer hostHTTP.Close()
	done := make(chan error, 1)
	go func() { done <- x.S.Run() }()

	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(0.0005)
	bus := eventlog.NewBus(ms)
	masterHTTP := httptest.NewServer(noderpc.MasterServer(ms, bus))
	defer masterHTTP.Close()
	hc := xmlrpc.NewClient(hostHTTP.URL)
	if _, err := hc.Call("host.set_master", masterHTTP.URL); err != nil {
		b.Fatal(err)
	}
	handles := map[string]master.NodeHandle{
		"A": &noderpc.RemoteNode{NodeID: "A", C: xmlrpc.NewClient(hostHTTP.URL)},
		"B": &noderpc.RemoteNode{NodeID: "B", C: xmlrpc.NewClient(hostHTTP.URL)},
	}
	m, err := master.New(master.Config{Exp: e, S: ms, Bus: bus, Nodes: handles,
		Env: &noderpc.RemoteEnv{C: xmlrpc.NewClient(hostHTTP.URL)}})
	if err != nil {
		b.Fatal(err)
	}
	var rep *master.Report
	ms.Go("experimaster", func() { rep, _ = m.RunAll() })
	if err := ms.Run(); err != nil {
		b.Fatal(err)
	}
	if rep == nil || rep.Completed != 1 {
		b.Fatalf("distributed run incomplete: %+v", rep)
	}
	x.S.Stop()
	<-done
}

// latencyNode is a goroutine-safe NodeHandle stub whose control-channel
// operations stall on an injected RPC latency (failpoint registry),
// modeling a remote node behind a real network. Execute is deliberately
// latency-free: it runs inside the execution phase, which is not a
// broadcast site.
type latencyNode struct {
	id string
	fp *failpoint.Registry
}

func (n *latencyNode) rpc() {
	if d := n.fp.Eval(failpoint.SiteClientSend); d.Act == failpoint.Delay {
		time.Sleep(d.Delay)
	}
}

func (n *latencyNode) ID() string     { return n.id }
func (n *latencyNode) PrepareRun(int) { n.rpc() }
func (n *latencyNode) CleanupRun(int) { n.rpc() }
func (n *latencyNode) LocalTime() time.Time {
	n.rpc()
	return time.Unix(0, 0)
}
func (n *latencyNode) Execute(string, map[string]string) error { return nil }
func (n *latencyNode) Emit(string, map[string]string)          {}
func (n *latencyNode) HarvestEvents(int) []eventlog.Event {
	n.rpc()
	return nil
}
func (n *latencyNode) HarvestPackets() []store.PacketRecord {
	n.rpc()
	return nil
}
func (n *latencyNode) HarvestExtras() []store.ExtraMeasurement {
	n.rpc()
	return nil
}

// fanoutExp is a minimal one-run description whose single actor spans all
// given nodes, so every broadcast phase touches every node.
func fanoutExp(nodes []string) *desc.Experiment {
	e := &desc.Experiment{
		Name:          "fanout-bench",
		AbstractNodes: nodes,
		Factors: []desc.Factor{
			desc.ActorMapFactor("fact_nodes", desc.UsageBlocking,
				map[string][]string{"actor0": nodes}),
		},
		Repl: desc.Replication{ID: "rep", Count: 1},
		Seed: 1,
	}
	e.NodeProcesses = []desc.NodeProcess{{
		Actor: "actor0", Name: "SM", NodesRef: "fact_nodes",
		Actions: []desc.Action{desc.Act("sd_init"), desc.Act("sd_exit")},
	}}
	return e
}

// runFanoutExperiment drives one stored run over n latency-injected node
// handles with the given fan-out bound.
func runFanoutExperiment(b *testing.B, n, fanout int, lat time.Duration) {
	b.Helper()
	fp := failpoint.New(1)
	fp.Enable(failpoint.SiteClientSend, failpoint.Rule{
		Prob: 1, Act: failpoint.Delay, Delay: lat})
	s := sched.New(sched.RealTime, time.Unix(0, 0))
	s.SetSpeed(0.0005)
	bus := eventlog.NewBus(s)
	handles := map[string]master.NodeHandle{}
	names := make([]string, n)
	for i := range names {
		id := fmt.Sprintf("N%d", i)
		names[i] = id
		handles[id] = &latencyNode{id: id, fp: fp}
	}
	st, err := store.NewRunStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	m, err := master.New(master.Config{
		Exp: fanoutExp(names), S: s, Bus: bus, Nodes: handles,
		Fanout: fanout, Store: st,
	})
	if err != nil {
		b.Fatal(err)
	}
	var rep *master.Report
	s.Go("experimaster", func() { rep, _ = m.RunAll() })
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if rep == nil || rep.Completed != 1 {
		b.Fatalf("fan-out run incomplete: %+v", rep)
	}
}

// BenchmarkControlFanout measures the master's per-run control-plane wall
// time over 8 nodes with 5 ms injected RPC latency: the sequential
// baseline pays every RPC serially (prepare + 3-sample timesync + cleanup
// + 3-way harvest ≈ 64 round trips), the fan-out path pays the slowest
// node per phase. The ratio demonstrates the near-linear speedup of the
// parallel control plane.
func BenchmarkControlFanout(b *testing.B) {
	const nodes = 8
	const rpcLatency = 5 * time.Millisecond
	for _, fo := range []int{1, nodes} {
		name := "sequential"
		if fo > 1 {
			name = fmt.Sprintf("fanout=%d", fo)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFanoutExperiment(b, nodes, fo, rpcLatency)
			}
		})
	}
}

// BenchmarkTableIStorageIngest measures conditioning + ingest of a
// multi-run experiment into the Table I schema and its single-file
// round trip.
func BenchmarkTableIStorageIngest(b *testing.B) {
	// Prepare one level-2 store, reused across iterations.
	dir := b.TempDir()
	e := desc.OneShot(30)
	e.Repl.Count = 10
	x, err := core.New(e, core.Options{StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		b.Fatal(err)
	}
	xml, _ := desc.EncodeString(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := store.Condition(x.Store(), store.Meta{ExpXML: xml, Name: e.Name})
		if err != nil {
			b.Fatal(err)
		}
		path := dir + "/bench.xcdb"
		if err := db.Save(path); err != nil {
			b.Fatal(err)
		}
		if _, err := store.OpenExperimentDB(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLevel3OpenAnalyze measures the read side of level 3 the way
// excovery-report and a level-4 repository use it: open the file, extract
// R / t_R with metrics.FromDB, then analyse every run's packets. ns/run is
// the number to watch: it must not grow with the size of the experiment
// (50 vs 200 runs), which it did when an opened database had lost its
// indexes and every per-run query scanned all rows.
func BenchmarkLevel3OpenAnalyze(b *testing.B) {
	for _, runs := range []int{50, 200} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			dir := b.TempDir()
			e := desc.OneShot(30)
			e.Repl.Count = runs
			x, err := core.New(e, core.Options{StoreDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := x.Run(); err != nil {
				b.Fatal(err)
			}
			db, err := x.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			path := dir + "/bench.xcdb"
			if err := db.Save(path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := store.OpenExperimentDB(path)
				if err != nil {
					b.Fatal(err)
				}
				ms, err := metrics.FromDB(db, "", "")
				if err != nil || len(ms) != runs {
					b.Fatalf("%d run metrics, err %v", len(ms), err)
				}
				ids, err := db.RunIDs()
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					pkts, err := db.PacketsOfRun(id)
					if err != nil || len(pkts) == 0 {
						b.Fatalf("run %d: %d packets, err %v", id, len(pkts), err)
					}
					metrics.AnalyzePackets(pkts)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runs), "ns/run")
		})
	}
}

// BenchmarkExpACaseStudySweep reproduces the case-study factorial sweep:
// sub-benchmarks report the t_R / responsiveness series per treatment,
// i.e. the table the paper's evaluation would print.
func BenchmarkExpACaseStudySweep(b *testing.B) {
	for _, pairs := range []int{5, 20} {
		for _, bw := range []int{10, 50, 100} {
			name := fmt.Sprintf("pairs=%d/bw=%d", pairs, bw)
			b.Run(name, func(b *testing.B) {
				var all []metrics.RunMetric
				for i := 0; i < b.N; i++ {
					e := desc.CaseStudy(2)
					e.Factors[1] = desc.IntFactor("fact_pairs", desc.UsageConstant, pairs)
					e.Factors[2] = desc.IntFactor("fact_bw", desc.UsageConstant, bw)
					all = append(all, runExperiment(b, e, core.Options{
						Seed: int64(i + 1),
						Node: netem.NodeParams{RateBps: 1_500_000},
					})...)
				}
				reportDiscovery(b, all, time.Second)
			})
		}
	}
}

// BenchmarkExpBResponsivenessVsLoss sweeps injected message loss on the
// SM ([25]-shaped series).
func BenchmarkExpBResponsivenessVsLoss(b *testing.B) {
	for _, loss := range []float64{0, 0.2, 0.4} {
		b.Run(fmt.Sprintf("loss=%.1f", loss), func(b *testing.B) {
			var all []metrics.RunMetric
			for i := 0; i < b.N; i++ {
				e := lossSweepExperiment(loss, 2)
				all = append(all, runExperiment(b, e, core.Options{Seed: int64(i + 1)})...)
			}
			reportDiscovery(b, all, 2*time.Second)
		})
	}
}

// lossSweepExperiment builds a one-treatment loss-injection experiment
// (the examples/faultinjection scenario at a single level).
func lossSweepExperiment(loss float64, reps int) *desc.Experiment {
	e := desc.OneShot(15)
	e.Name = "sd-loss-bench"
	e.Repl.Count = reps
	e.Factors = append(e.Factors, desc.FloatFactor("fact_loss", desc.UsageConstant, loss))
	e.ManipProcesses = []desc.ManipulationProcess{{
		Actor: "actor0", NodesRef: "fact_nodes",
		Actions: []desc.Action{
			desc.Act("fault_msg_loss", "direction", "both", "proto", "sd").
				WithFactorRef("prob", "fact_loss"),
			desc.Flag("fault_armed"),
			desc.WaitEvent(desc.WaitSpec{Event: "done"}),
			desc.Act("fault_stop", "kind", "fault_msg_loss"),
		},
	}}
	sm := &e.NodeProcesses[0]
	sm.Actions = append([]desc.Action{
		desc.WaitEvent(desc.WaitSpec{Event: "fault_armed"}),
	}, sm.Actions...)
	return e
}

// BenchmarkExpCResponsivenessVsHops sweeps the SU↔SM distance in a chain
// topology ([26]-shaped series: responsiveness falls with hop count).
func BenchmarkExpCResponsivenessVsHops(b *testing.B) {
	for _, hops := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			var all []metrics.RunMetric
			for i := 0; i < b.N; i++ {
				e := desc.OneShot(30)
				nodes := []string{"A"}
				for r := 0; r < hops-1; r++ {
					nodes = append(nodes, fmt.Sprintf("r%d", r))
				}
				nodes = append(nodes, "B")
				e.AbstractNodes = nodes
				all = append(all, runExperiment(b, e, core.Options{
					Topology: core.TopoChain,
					Seed:     int64(i + 1),
					Link:     netem.LinkParams{Delay: time.Millisecond, Jitter: time.Millisecond, Loss: 0.05},
				})...)
			}
			reportDiscovery(b, all, time.Second)
		})
	}
}

// BenchmarkExpDArchitectureUnderLoad compares the two architectures at
// idle and under background load (the crossover experiment).
func BenchmarkExpDArchitectureUnderLoad(b *testing.B) {
	for _, arch := range []string{"two-party", "three-party"} {
		for _, load := range []int{0, 400} {
			b.Run(fmt.Sprintf("%s/load=%d", arch, load), func(b *testing.B) {
				var all []metrics.RunMetric
				for i := 0; i < b.N; i++ {
					e := archExperiment(arch, load, 2)
					all = append(all, runExperiment(b, e, core.Options{
						Seed: int64(i + 1),
						Node: netem.NodeParams{RateBps: 1_000_000},
					})...)
				}
				reportDiscovery(b, all, 2*time.Second)
			})
		}
	}
}

func archExperiment(arch string, loadKbps, reps int) *desc.Experiment {
	var e *desc.Experiment
	if arch == "two-party" {
		e = desc.CaseStudy(reps)
	} else {
		e = desc.ThreeParty(30, reps)
		e.EnvironmentNodes = []string{"E0", "E1", "E2", "E3"}
		e.EnvProcesses = desc.CaseStudy(1).EnvProcesses
	}
	for i := range e.Factors {
		switch e.Factors[i].ID {
		case "fact_pairs":
			e.Factors[i] = desc.IntFactor("fact_pairs", desc.UsageConstant, 4)
		case "fact_bw":
			e.Factors[i] = desc.IntFactor("fact_bw", desc.UsageConstant, maxInt(loadKbps, 1))
		}
	}
	if e.Factor("fact_pairs") == nil {
		e.Factors = append(e.Factors,
			desc.IntFactor("fact_pairs", desc.UsageConstant, 4),
			desc.IntFactor("fact_bw", desc.UsageConstant, maxInt(loadKbps, 1)))
	}
	if loadKbps == 0 {
		e.EnvProcesses = nil
		for pi := range e.NodeProcesses {
			var kept []desc.Action
			for _, a := range e.NodeProcesses[pi].Actions {
				if a.Wait != nil && a.Wait.Event == "ready_to_init" {
					continue
				}
				kept = append(kept, a)
			}
			e.NodeProcesses[pi].Actions = kept
		}
	}
	return e
}

// BenchmarkAblationSimVsReal contrasts virtual-time execution with
// real-time pacing (DESIGN.md §5): the virtual mode finishes a 5+ virtual
// second experiment in milliseconds.
func BenchmarkAblationSimVsReal(b *testing.B) {
	b.Run("virtual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runExperiment(b, desc.OneShot(30), core.Options{Seed: int64(i + 1)})
		}
	})
	b.Run("realtime-200x", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runExperiment(b, desc.OneShot(30), core.Options{
				Seed: int64(i + 1), RealTime: true, Speed: 0.005,
			})
		}
	})
}

// BenchmarkAblationContention isolates the shared-medium model: with
// contention off, background load no longer inflates t_R.
func BenchmarkAblationContention(b *testing.B) {
	for _, contention := range []bool{true, false} {
		b.Run(fmt.Sprintf("contention=%v", contention), func(b *testing.B) {
			var all []metrics.RunMetric
			for i := 0; i < b.N; i++ {
				e := desc.CaseStudy(2)
				e.Factors[1] = desc.IntFactor("fact_pairs", desc.UsageConstant, 20)
				e.Factors[2] = desc.IntFactor("fact_bw", desc.UsageConstant, 100)
				x, err := core.New(e, core.Options{
					Seed: int64(i + 1),
					Node: netem.NodeParams{RateBps: 1_500_000},
				})
				if err != nil {
					b.Fatal(err)
				}
				x.Net.Contention = contention
				rep, err := x.Run()
				if err != nil {
					b.Fatal(err)
				}
				all = append(all, metrics.FromReport(e, rep, "", "")...)
			}
			reportDiscovery(b, all, time.Second)
		})
	}
}

// BenchmarkAblationTimeSync quantifies conditioning: without the time-sync
// correction, skewed node clocks produce causality violations. The checked
// causal pair is tight: the SU's "done" flag triggers the SM's
// sd_stop_publish about a millisecond later, so ±2 s node skew inverts the
// raw order with high probability. Each op samples eight seeds;
// conditioning must remove every violation.
func BenchmarkAblationTimeSync(b *testing.B) {
	const seedsPerOp = 8
	violations := func(b *testing.B, correct bool) float64 {
		count := 0.0
		for i := 0; i < b.N; i++ {
			for s := 0; s < seedsPerOp; s++ {
				e := desc.OneShot(30)
				dir := b.TempDir()
				opts := core.Options{StoreDir: dir, Seed: int64(i*seedsPerOp + s + 1)}
				opts.ClockSkew.MaxOffset = 2 * time.Second
				x, err := core.New(e, opts)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := x.Run()
				if err != nil {
					b.Fatal(err)
				}
				var cause, effect time.Time
				scan := func(evs []eventlog.Event) {
					for _, ev := range evs {
						switch {
						case ev.Type == "done" && ev.Node == "B":
							cause = ev.Time
						case ev.Type == "sd_stop_publish" && ev.Node == "A":
							effect = ev.Time
						}
					}
				}
				if correct {
					db, err := x.Finalize()
					if err != nil {
						b.Fatal(err)
					}
					evs, _ := db.EventsOfRun(0)
					scan(evs)
				} else {
					scan(rep.Results[0].Events)
				}
				if !cause.IsZero() && !effect.IsZero() && effect.Before(cause) {
					count++
				}
			}
		}
		return count
	}
	b.Run("uncorrected", func(b *testing.B) {
		v := violations(b, false)
		if v == 0 {
			b.Fatal("expected causality violations on raw skewed timestamps")
		}
		b.ReportMetric(v/float64(b.N), "violations/op")
	})
	b.Run("conditioned", func(b *testing.B) {
		v := violations(b, true)
		if v > 0 {
			b.Fatalf("conditioning left %v causality violations", v)
		}
		b.ReportMetric(0, "violations/op")
	})
}

// BenchmarkReldbInsert measures raw row ingest into the Events schema.
func BenchmarkReldbInsert(b *testing.B) {
	db := reldb.New()
	db.CreateTable(reldb.Schema{Name: "Events", Columns: []reldb.Column{
		{Name: "RunID", Type: reldb.Int64},
		{Name: "NodeID", Type: reldb.Text},
		{Name: "CommonTime", Type: reldb.Time},
		{Name: "EventType", Type: reldb.Text},
		{Name: "Parameter", Type: reldb.Text},
	}})
	t0 := time.Unix(0, 0).UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Insert("Events", reldb.Row{
			int64(i % 100), "node", t0.Add(time.Duration(i)), "ev", "",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReldbSelect contrasts full scans with hash-indexed equality
// lookups (DESIGN.md §5 storage ablation).
func BenchmarkReldbSelect(b *testing.B) {
	mk := func(indexed bool) *reldb.DB {
		db := reldb.New()
		db.CreateTable(reldb.Schema{Name: "T", Columns: []reldb.Column{
			{Name: "RunID", Type: reldb.Int64}, {Name: "V", Type: reldb.Text},
		}})
		for i := 0; i < 20000; i++ {
			db.Insert("T", reldb.Row{int64(i % 500), "v"})
		}
		if indexed {
			db.CreateIndex("T", "RunID")
		}
		return db
	}
	for _, indexed := range []bool{false, true} {
		b.Run(fmt.Sprintf("indexed=%v", indexed), func(b *testing.B) {
			db := mk(indexed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := db.Select(reldb.Query{Table: "T",
					Where: []reldb.Pred{reldb.Eq("RunID", int64(i%500))}})
				if err != nil || len(rows) != 40 {
					b.Fatalf("rows=%d err=%v", len(rows), err)
				}
			}
		})
	}
}

func idsToStrings(ids []netem.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestBenchHelpersCompile keeps the benchmark-only helpers under vet/test
// coverage even when benchmarks are not executed.
func TestBenchHelpersCompile(t *testing.T) {
	if maxInt(2, 1) != 2 || maxInt(1, 2) != 2 {
		t.Fatal("maxInt")
	}
	e := archExperiment("three-party", 0, 1)
	if err := desc.Validate(e); err != nil {
		t.Fatal(err)
	}
	e2 := lossSweepExperiment(0.5, 1)
	if err := desc.Validate(e2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(e.Name, " ") {
		t.Fatal("unexpected name")
	}
}

// steadyStateExchange builds the two-node handler-driven unicast ping-pong
// of the steady-state benchmarks (every delivery Sends the next packet — no
// tasks, no closures) and returns the nodes and a function that exchanges n
// packets. With runLen > 0 the captures are cleared every runLen packets,
// as node.Manager.PrepareRun does between runs.
func steadyStateExchange(tb testing.TB, runLen int) (a, c *netem.Node, exchange func(n int)) {
	s := sched.NewVirtual()
	nw := netem.New(s, 7)
	a = nw.AddNode("a", netem.NodeParams{})
	c = nw.AddNode("b", netem.NodeParams{})
	nw.AddLink("a", "b", netem.LinkParams{Delay: 500 * time.Microsecond, Jitter: 100 * time.Microsecond})
	payload := make([]byte, 120)
	remaining := 0
	next := func(from *netem.Node, to netem.NodeID) {
		if remaining > 0 {
			remaining--
			if runLen > 0 && remaining%runLen == 0 {
				a.ClearCaptures()
				c.ClearCaptures()
			}
			from.Send(netem.Unicast(to), "traffic", payload)
		}
	}
	a.SetHandler(func(p *netem.Packet) { next(a, "b") })
	c.SetHandler(func(p *netem.Packet) { next(c, "a") })
	return a, c, func(n int) {
		remaining = n
		s.Go("kick", func() { a.Send(netem.Unicast("b"), "traffic", payload) })
		if err := s.Run(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEmulatorDeliverySteadyState gates the pooled data path: after
// warm-up, a delivery must not allocate — with capture off (the bare
// transport) and with capture on, which is what every run of every campaign
// executes (node.Manager.PrepareRun): the capture record and its path go
// into the node's recycled buffers (DESIGN.md §18). bench-thresholds.json
// pins allocs/op and B/op of both cases to zero; `make bench-gate-zero`
// fails CI on either.
func BenchmarkEmulatorDeliverySteadyState(b *testing.B) {
	for _, capture := range []string{"off", "on"} {
		b.Run("capture="+capture, func(b *testing.B) {
			const runLen = 1024
			a, c, exchange := steadyStateExchange(b, runLen)
			a.SetCapture(capture == "on")
			c.SetCapture(capture == "on")
			// Warm the packet pool, timer pool, rings, routes and — over
			// two run lengths — the capture buffers.
			exchange(2*runLen + 512)
			b.ReportAllocs()
			b.ResetTimer()
			exchange(b.N)
		})
	}
}

// BenchmarkLevel2WritePackets is the write end of the capture path: one
// node's harvest of one run (512 captured packets, copied out by
// store.FromCaptures) encoded into a staged capture file. Allocations are
// the staging directory's and the file's, not the records'.
func BenchmarkLevel2WritePackets(b *testing.B) {
	a, _, exchange := steadyStateExchange(b, 0)
	a.SetCapture(true)
	exchange(511)
	pkts := store.FromCaptures(a.Captures())
	if len(pkts) != 512 {
		b.Fatalf("harvest has %d records", len(pkts))
	}
	rs, err := store.NewRunStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := rs.StageRun(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := sr.Store().WritePackets(0, "a", pkts); err != nil {
			b.Fatal(err)
		}
		sr.Abort()
	}
	b.ReportMetric(float64(len(pkts)), "packets/op")
}
