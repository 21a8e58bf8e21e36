// Package core is the public facade of the ExCovery reproduction: it
// assembles an emulated platform (network, node managers, SD agents,
// event bus, master) from an abstract experiment description and runs the
// experiment end to end — description in, level-3 database out.
//
// A minimal session:
//
//	exp := desc.CaseStudy(100)
//	x, err := core.New(exp, core.Options{})
//	rep, err := x.Run()
//	db, err := x.Finalize()   // level-3 database (Table I)
//
// The emulated platform substitutes the paper's DES wireless testbed (see
// DESIGN.md); all behaviour relevant to the experiments — multicast
// flooding, per-link loss and delay, radio serialization, background
// traffic, clock skew — is reproduced by internal/netem and friends.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/master"
	"excovery/internal/netem"
	"excovery/internal/node"
	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/sd/hybrid"
	"excovery/internal/sd/scmdir"
	"excovery/internal/sd/zeroconf"
	"excovery/internal/store"
	"excovery/internal/vclock"
)

// TopologyKind selects how the platform nodes are wired.
type TopologyKind string

const (
	// TopoFull is a single collision domain (one-hop WLAN); default.
	TopoFull TopologyKind = "full"
	// TopoChain is a linear multi-hop chain in platform-node order.
	TopoChain TopologyKind = "chain"
	// TopoGrid is a row-major grid; set GridWidth.
	TopoGrid TopologyKind = "grid"
	// TopoGeometric is a random geometric graph; the geo_radius eeparam
	// sets the link radius.
	TopoGeometric TopologyKind = "geometric"
)

// Options tune the emulated platform.
type Options struct {
	// Topology selects the wiring of the platform nodes; default full.
	Topology TopologyKind
	// GridWidth is the grid column count (TopoGrid).
	GridWidth int
	// Link parameterizes all links; zero value means netem.DefaultLink.
	Link netem.LinkParams
	// Node parameterizes all radios (rate, queue).
	Node netem.NodeParams
	// Seed overrides the description seed for platform randomness.
	Seed int64
	// ClockSkew enables per-node clock deviation: offsets uniform in
	// ±MaxOffset, drift uniform in ±MaxDriftPPM.
	ClockSkew struct {
		MaxOffset   time.Duration
		MaxDriftPPM float64
	}
	// StoreDir is the level-2 directory; "" disables persistent
	// storage (the Report still carries all events).
	StoreDir string
	// MaxRunTime bounds one run; 0 means 120 s.
	MaxRunTime time.Duration
	// Resume skips runs already marked done in StoreDir.
	Resume bool
	// Journal opens a write-ahead run journal in StoreDir: every attempt
	// is recorded before it executes, and Resume replays the journal to
	// discard and re-execute runs that died mid-attempt in a crashed
	// session. Requires StoreDir.
	Journal bool
	// MaxAttempts re-executes failed or aborted runs in place up to this
	// many times (run-level retry); values <= 1 disable it.
	MaxAttempts int
	// Failpoints, if set, is consulted at the master's failpoint sites
	// (crash injection for durability tests).
	Failpoints *failpoint.Registry
	// CrashFn is invoked when a crash failpoint fires; it must not
	// return. Nil makes the run return master.ErrCrashed instead.
	CrashFn func()
	// OnRunDone observes completed runs.
	OnRunDone func(run desc.Run, rr master.RunResult)
	// RealTime runs the platform on a wall-clock-paced scheduler instead
	// of virtual time; Speed scales the pacing (0.1 = ten times faster
	// than real time). Used by the distributed XML-RPC deployment, where
	// external RPC requests must interleave with emulated time.
	RealTime bool
	Speed    float64
	// OnEvent observes every event published on the bus (the node-host
	// side of the distributed deployment forwards them to the master).
	OnEvent func(ev eventlog.Event)
	// S, if set, hosts the platform on an existing scheduler instead of
	// creating one; RealTime and Speed are ignored. Multi-replica fleet
	// tests use it to run several platform instances in one deterministic
	// virtual timeline.
	S *sched.Scheduler
	// Bus, if set, overrides the platform's event bus (shared-bus fleet
	// tests). Requires S.
	Bus *eventlog.Bus
	// Metrics, if set, instruments the emulator data path: the network
	// gets per-node/per-rule packet counters and queue-depth gauges, the
	// scheduler event-loop counters (see internal/obs/names.go). Nil
	// leaves both uninstrumented and allocation-free.
	Metrics *obs.Registry
}

// Experiment is an assembled emulated experiment.
type Experiment struct {
	Exp *desc.Experiment
	S   *sched.Scheduler
	Net *netem.Network
	Bus *eventlog.Bus
	// Managers by platform node id.
	Managers map[string]*node.Manager
	// Master drives the runs.
	Master *master.Master
	// Env is the environment executor.
	Env *EnvExec

	opts Options
	st   *store.RunStore
	j    *store.Journal
}

// handle adapts node.Manager to master.NodeHandle.
type handle struct{ m *node.Manager }

func (h handle) ID() string                                  { return h.m.ID() }
func (h handle) PrepareRun(run int)                          { h.m.PrepareRun(run) }
func (h handle) CleanupRun(run int)                          { h.m.CleanupRun(run) }
func (h handle) Execute(a string, p map[string]string) error { return h.m.Execute(a, p) }
func (h handle) Emit(t string, p map[string]string)          { h.m.Emit(t, p) }
func (h handle) LocalTime() time.Time                        { return h.m.LocalTime() }
func (h handle) HarvestEvents(run int) []eventlog.Event      { return h.m.Recorder().RunEvents(run) }
func (h handle) HarvestPackets() []store.PacketRecord        { return h.m.HarvestRun() }
func (h handle) HarvestExtras() []store.ExtraMeasurement     { return h.m.HarvestExtras() }

// applyEEParams folds the description's EE-specific parameters (§IV-E:
// "expose specific parameters used in the implementation to the
// description file") into zero-valued options, so a document alone can
// configure the platform. Recognized keys:
//
//	topology              full | chain | grid | geometric
//	grid_width            grid column count
//	geo_radius            geometric link radius in the unit square (default 0.4)
//	link_delay_ms         per-link delay
//	link_jitter_ms        per-link jitter
//	link_loss             per-link loss probability
//	link_burst_p_gb       Gilbert–Elliott good→bad transition probability
//	link_burst_p_bg       Gilbert–Elliott bad→good transition probability
//	link_burst_loss_good  loss probability in the good state
//	link_burst_loss_bad   loss probability in the bad state
//	radio_rate_bps        node transmission rate
//	max_run_time_s        per-run execution bound
//
// Any link_burst_* key replaces the independent link loss with the
// Gilbert–Elliott model (netem.LinkParams.Burst). Explicit Options fields
// win over document parameters; the geometric radius, which has no
// option, is returned.
func applyEEParams(e *desc.Experiment, opts *Options) (geoRadius float64, err error) {
	// set parses key into dst when the document has it.
	set := func(key string, dst func(float64)) (bool, error) {
		v := e.EEParam(key, "")
		if v == "" {
			return false, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return false, fmt.Errorf("core: eeparam %s: bad value %q", key, v)
		}
		dst(f)
		return true, nil
	}
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	if opts.Topology == "" {
		opts.Topology = TopologyKind(e.EEParam("topology", ""))
	}
	if _, err := set("geo_radius", func(f float64) { geoRadius = f }); err != nil {
		return 0, err
	}
	if opts.GridWidth == 0 {
		if _, err := set("grid_width", func(f float64) { opts.GridWidth = int(f) }); err != nil {
			return 0, err
		}
	}
	if opts.Link == (netem.LinkParams{}) {
		lp := netem.DefaultLink()
		var burst netem.BurstLoss
		changed, bursty := false, false
		for _, p := range []struct {
			key   string
			dst   func(float64)
			burst bool
		}{
			{"link_delay_ms", func(f float64) { lp.Delay = ms(f) }, false},
			{"link_jitter_ms", func(f float64) { lp.Jitter = ms(f) }, false},
			{"link_loss", func(f float64) { lp.Loss = f }, false},
			{"link_burst_p_gb", func(f float64) { burst.PGoodToBad = f }, true},
			{"link_burst_p_bg", func(f float64) { burst.PBadToGood = f }, true},
			{"link_burst_loss_good", func(f float64) { burst.LossGood = f }, true},
			{"link_burst_loss_bad", func(f float64) { burst.LossBad = f }, true},
		} {
			ok, err := set(p.key, p.dst)
			if err != nil {
				return 0, err
			}
			changed = changed || ok
			bursty = bursty || ok && p.burst
		}
		if bursty {
			lp.Burst = &burst
		}
		if changed {
			opts.Link = lp
		}
	}
	if opts.Node.RateBps == 0 {
		if _, err := set("radio_rate_bps", func(f float64) { opts.Node.RateBps = int64(f) }); err != nil {
			return 0, err
		}
	}
	if opts.MaxRunTime == 0 {
		if _, err := set("max_run_time_s", func(f float64) { opts.MaxRunTime = time.Duration(f * float64(time.Second)) }); err != nil {
			return 0, err
		}
	}
	return geoRadius, nil
}

// New assembles the emulated platform for a description.
func New(e *desc.Experiment, opts Options) (*Experiment, error) {
	if err := desc.Validate(e); err != nil {
		return nil, err
	}
	geoRadius, err := applyEEParams(e, &opts)
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = e.Seed
	}
	if seed == 0 {
		seed = 1
	}
	s := opts.S
	if s == nil {
		if opts.RealTime {
			s = sched.New(sched.RealTime, time.Date(2014, 5, 19, 0, 0, 0, 0, time.UTC))
			if opts.Speed > 0 {
				s.SetSpeed(opts.Speed)
			}
		} else {
			s = sched.NewVirtual()
		}
		if opts.Metrics != nil {
			s.Instrument(opts.Metrics)
		}
	}
	nw := netem.New(s, seed)
	nw.Instrument(opts.Metrics)
	bus := opts.Bus
	if bus == nil {
		bus = eventlog.NewBus(s)
		if opts.Metrics != nil {
			bus.Instrument(opts.Metrics)
		}
	}

	actorIDs, envIDs := platformNodeIDs(e)
	all := append(append([]string{}, actorIDs...), envIDs...)
	if len(all) == 0 {
		return nil, fmt.Errorf("core: description names no nodes")
	}

	// Create nodes, optionally with skewed clocks.
	skewRng := rand.New(rand.NewSource(seed ^ 0x51c3))
	for _, id := range all {
		np := opts.Node
		nd := nw.AddNode(netem.NodeID(id), np)
		if opts.ClockSkew.MaxOffset > 0 || opts.ClockSkew.MaxDriftPPM > 0 {
			var off time.Duration
			if opts.ClockSkew.MaxOffset > 0 {
				off = time.Duration(skewRng.Int63n(int64(2*opts.ClockSkew.MaxOffset))) - opts.ClockSkew.MaxOffset
			}
			drift := (skewRng.Float64()*2 - 1) * opts.ClockSkew.MaxDriftPPM
			nd.SetClock(vclock.NewSkewed(s, off, drift))
		}
	}
	if err := wireTopology(nw, all, opts, geoRadius, seed); err != nil {
		return nil, err
	}

	proto := e.ParamValue("sd_protocol")
	if proto == "" {
		proto = "zeroconf"
	}
	scheme := sd.Scheme(e.ParamValue("sd_scheme"))

	x := &Experiment{Exp: e, S: s, Net: nw, Bus: bus,
		Managers: map[string]*node.Manager{}, opts: opts}

	mkAgent := func(id string, nd *netem.Node, sink sd.EventSink) (sd.Agent, error) {
		aseed := seed ^ int64(len(id))*7919 ^ int64(id[0])<<13 ^ int64(id[len(id)-1])
		switch proto {
		case "zeroconf":
			return zeroconf.New(s, nd, zeroconf.Config{Scheme: scheme}, sink, aseed), nil
		case "scmdir":
			return scmdir.New(s, nd, scmdir.Config{}, sink, aseed), nil
		case "hybrid":
			cfg := hybrid.Config{}
			cfg.Zeroconf.Scheme = scheme
			return hybrid.New(s, nd, cfg, sink, aseed), nil
		default:
			return nil, fmt.Errorf("core: unknown sd_protocol %q", proto)
		}
	}

	handles := map[string]master.NodeHandle{}
	for _, id := range all {
		id := id
		nd := nw.Node(netem.NodeID(id))
		rec := eventlog.NewRecorder(id, nd.Clock(), func(ev eventlog.Event) {
			ev = bus.Publish(ev)
			if opts.OnEvent != nil {
				opts.OnEvent(ev)
			}
		})
		sink := sd.EventSink(func(typ string, params map[string]string) {
			rec.Emit(typ, params)
		})
		agent, err := mkAgent(id, nd, sink)
		if err != nil {
			return nil, err
		}
		mgr := node.New(s, nd, rec, agent)
		// SD packets go to the agent; the dispatch by protocol label
		// mirrors the NodeManager's component delegation (Fig. 12).
		nd.SetHandler(func(p *netem.Packet) {
			if p.Proto != "sd" {
				return
			}
			switch a := mgr.Agent().(type) {
			case *zeroconf.Agent:
				a.HandlePacket(p)
			case *scmdir.Agent:
				a.HandlePacket(p)
			case *hybrid.Agent:
				a.HandlePacket(p)
			}
		})
		x.Managers[id] = mgr
		handles[id] = handle{mgr}
	}

	x.Env = NewEnvExec(s, nw, actorIDs, envIDs, func(typ string, params map[string]string) {
		// Environment events surface on the master's recorder via the
		// bus only after the master exists; buffer through the bus
		// directly with node "env".
		bus.Publish(eventlog.Event{Run: -2, Node: "env", Time: s.Now(), Type: typ, Params: params})
	})
	x.Env.Instrument(opts.Metrics)

	var st *store.RunStore
	if opts.StoreDir != "" {
		var err error
		st, err = store.NewRunStore(opts.StoreDir)
		if err != nil {
			return nil, err
		}
	}
	x.st = st
	if opts.Journal {
		if st == nil {
			return nil, fmt.Errorf("core: Journal requires StoreDir")
		}
		var err error
		x.j, err = store.OpenJournal(opts.StoreDir)
		if err != nil {
			return nil, err
		}
	}

	m, err := master.New(master.Config{
		Exp: e, S: s, Bus: bus, Nodes: handles, Env: x.Env, Store: st,
		Journal:      x.j,
		PlatformSeed: seed,
		MaxRunTime:   opts.MaxRunTime, Resume: opts.Resume,
		Retry:      master.RetryPolicy{MaxAttempts: opts.MaxAttempts},
		Failpoints: opts.Failpoints,
		CrashFn:    opts.CrashFn,
		OnRunDone:  opts.OnRunDone,
		Metrics:    opts.Metrics,
		TopologyMeasure: func() string {
			return formatHopMatrix(nw)
		},
	})
	if err != nil {
		if x.j != nil {
			x.j.Close()
		}
		return nil, err
	}
	x.Master = m
	return x, nil
}

// Close releases resources held outside the scheduler (currently the
// write-ahead journal's file handle). Safe to call on any Experiment.
func (x *Experiment) Close() error {
	return x.j.Close()
}

// Run executes the experiment to completion and returns the report. Its
// nodes capture packets only if the master harvests them into the store
// (DESIGN.md §23).
func (x *Experiment) Run() (*master.Report, error) {
	for _, mgr := range x.Managers {
		mgr.Node().SetCapture(x.st != nil)
	}
	var rep *master.Report
	var err error
	x.S.Go("experimaster", func() {
		rep, err = x.Master.RunAll()
	})
	if rerr := x.S.Run(); rerr != nil {
		return nil, rerr
	}
	return rep, err
}

// Finalize conditions the level-2 store into the level-3 database.
func (x *Experiment) Finalize() (*store.ExperimentDB, error) {
	return x.Master.Finalize()
}

// Store returns the level-2 store (nil when StoreDir was empty).
func (x *Experiment) Store() *store.RunStore { return x.st }

// platformNodeIDs derives the platform node ids: the platform mapping if
// present, else the abstract node ids directly.
func platformNodeIDs(e *desc.Experiment) (actors, env []string) {
	if len(e.Platform.Actors) > 0 {
		for _, n := range e.Platform.Actors {
			actors = append(actors, n.ID)
		}
		for _, n := range e.Platform.Env {
			env = append(env, n.ID)
		}
		return actors, env
	}
	actors = append(actors, e.AbstractNodes...)
	env = append(env, e.EnvironmentNodes...)
	return actors, env
}

// wireTopology connects the given nodes per the options; geoRadius is the
// TopoGeometric link radius, 0 for the default.
func wireTopology(nw *netem.Network, ids []string, opts Options, geoRadius float64, seed int64) error {
	lp := opts.Link
	if lp == (netem.LinkParams{}) {
		lp = netem.DefaultLink()
	}
	nodes := make([]netem.NodeID, len(ids))
	for i, id := range ids {
		nodes[i] = netem.NodeID(id)
	}
	sorted := append([]netem.NodeID(nil), nodes...)
	slices.Sort(sorted)
	switch opts.Topology {
	case TopoFull, "":
		netem.WireFull(nw, sorted, lp)
	case TopoChain:
		netem.WireChain(nw, nodes, lp)
	case TopoGrid:
		if opts.GridWidth <= 0 {
			return fmt.Errorf("core: grid topology needs GridWidth")
		}
		netem.WireGrid(nw, nodes, opts.GridWidth, lp)
	case TopoGeometric:
		r := geoRadius
		if r == 0 {
			r = 0.4
		}
		rng := rand.New(rand.NewSource(seed ^ 0x6e0))
		xs := make([]float64, len(sorted))
		ys := make([]float64, len(sorted))
		for i := range sorted {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
		for {
			for i := range sorted {
				for j := i + 1; j < len(sorted); j++ {
					dx, dy := xs[i]-xs[j], ys[i]-ys[j]
					if dx*dx+dy*dy <= r*r && nw.Link(sorted[i], sorted[j]) == nil {
						nw.AddLink(sorted[i], sorted[j], lp)
					}
				}
			}
			if connected(nw, sorted) {
				break
			}
			r *= 1.25
		}
	default:
		return fmt.Errorf("core: unknown topology %q", opts.Topology)
	}
	return nil
}

func connected(nw *netem.Network, ids []netem.NodeID) bool {
	for _, b := range ids[1:] {
		if nw.HopCount(ids[0], b) < 0 {
			return false
		}
	}
	return true
}

// formatHopMatrix serializes the hop-count measurement (§IV-B4).
func formatHopMatrix(nw *netem.Network) string {
	m := nw.HopMatrix()
	ids := nw.Nodes()
	out := ""
	for _, a := range ids {
		for _, b := range ids {
			if a >= b {
				continue
			}
			out += fmt.Sprintf("%s %s %d\n", a, b, m[a][b])
		}
	}
	return out
}
