package main

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/noderpc"
	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/xmlrpc"
)

// hooks are what the benchmark attaches to a world it assembles. The zero
// value attaches nothing.
type hooks struct {
	onRunDone func(desc.Run, master.RunResult)
	// onEvent observes the platform's node events (host side on
	// rpc-loopback).
	onEvent func(eventlog.Event)
	// metrics instruments the emulator data path (traced runs only).
	metrics *obs.Registry
	// masterTracer is handed to the master the benchmark assembles itself
	// (rpc-loopback, traced runs only).
	masterTracer *obs.Tracer
	// calls, if set, wraps every node handle in a timing decorator.
	calls *callLog
	// speed overrides the workload's real-time pacing factor (pacing guard).
	speed float64
}

// world is one assembled platform, ready to execute its plan once.
type world struct {
	exp  *desc.Experiment
	plan *desc.Plan
	// x is the emulated platform (the node-host side on rpc-loopback).
	x     *core.Experiment
	run   func() (*master.Report, error)
	close func() error
	// clients are the master's control-channel clients (rpc-loopback).
	clients []*xmlrpc.Client
	handles map[string]master.NodeHandle
	// How long the three steps of assembling it took.
	parse, planning, wiring time.Duration
}

// build takes a description document to a world: parse, validate and plan,
// then wire the platform. dir is the level-2 directory of a durable
// workload.
func build(w *workload, text string, seed int64, dir string, hk hooks) (*world, error) {
	wd := &world{}
	t0 := wallNow()
	e, err := desc.ParseString(text)
	if err != nil {
		return nil, fmt.Errorf("parse description: %w", err)
	}
	t1 := wallNow()
	if err := desc.Validate(e); err != nil {
		return nil, fmt.Errorf("validate description: %w", err)
	}
	plan, err := desc.GeneratePlan(e)
	if err != nil {
		return nil, fmt.Errorf("generate plan: %w", err)
	}
	t2 := wallNow()
	wd.exp, wd.plan = e, plan
	wd.parse, wd.planning = t1.Sub(t0), t2.Sub(t1)

	opts := w.options()
	opts.Seed = seed
	opts.OnEvent = hk.onEvent
	opts.Metrics = hk.metrics
	if hk.speed > 0 {
		opts.Speed = hk.speed
	}
	if w.kind == kindRPC {
		err = wd.wireRPC(opts, hk)
	} else {
		if w.durable {
			opts.StoreDir = dir
			opts.Journal = true
		}
		opts.OnRunDone = hk.onRunDone
		wd.x, err = core.New(e, opts)
		if err == nil {
			wd.run = wd.x.Run
			wd.close = wd.x.Close
		}
	}
	if err != nil {
		return nil, fmt.Errorf("assemble platform: %w", err)
	}
	wd.wiring = wallNow().Sub(t2)
	return wd, nil
}

// served is one loopback HTTP server and the goroutine serving it.
type served struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

func (s *served) stop() {
	s.srv.Close()
	<-s.done
}

// wireRPC assembles the distributed deployment of Fig. 12 inside one
// process, the way cmd/excovery-node and cmd/excovery-master do across
// two: the platform behind a noderpc.Host, the master on its own real-time
// scheduler, static wiring, one retrying client per node proxy, and
// Fanout 2 — no more connections than the reference host has cores.
func (wd *world) wireRPC(opts core.Options, hk hooks) error {
	var host *noderpc.Host
	observe := opts.OnEvent
	opts.OnEvent = func(ev eventlog.Event) {
		if observe != nil {
			observe(ev)
		}
		host.ForwardEvent(ev)
	}
	x, err := core.New(wd.exp, opts)
	if err != nil {
		return err
	}
	host = noderpc.NewHost(x)
	x.S.SetKeepAlive(true)
	hostHTTP, err := serve(host.Server())
	if err != nil {
		return err
	}
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()

	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(opts.Speed)
	bus := eventlog.NewBus(ms)
	stopHost := func() {
		x.S.Stop()
		<-hostDone
		host.Close()
		hostHTTP.stop()
	}
	masterHTTP, err := serve(noderpc.MasterServer(ms, bus))
	if err != nil {
		stopHost()
		return err
	}
	wd.close = func() error {
		stopHost()
		masterHTTP.stop()
		return nil
	}

	dial := func() *xmlrpc.Client {
		c := xmlrpc.NewRetryingClient(hostHTTP.url, xmlrpc.DefaultRetryPolicy())
		wd.clients = append(wd.clients, c)
		return c
	}
	hostClient := dial()
	if _, err := hostClient.Call("host.set_master", masterHTTP.url); err != nil {
		wd.close()
		return err
	}
	ids, err := noderpc.FetchNodes(hostClient, 1, 0)
	if err != nil {
		wd.close()
		return err
	}
	wd.handles = map[string]master.NodeHandle{}
	for _, id := range ids {
		rn := &noderpc.RemoteNode{NodeID: id, C: dial()}
		if hk.calls != nil {
			wd.handles[id] = timedNode{RemoteNode: rn, log: hk.calls}
		} else {
			wd.handles[id] = rn
		}
	}
	m, err := master.New(master.Config{
		Exp: wd.exp, S: ms, Bus: bus, Nodes: wd.handles, Fanout: 2,
		Env:       &noderpc.RemoteEnv{C: dial()},
		OnRunDone: hk.onRunDone,
		Tracer:    hk.masterTracer,
	})
	if err != nil {
		wd.close()
		return err
	}
	wd.x = x
	wd.run = func() (*master.Report, error) {
		var rep *master.Report
		var runErr error
		ms.Go("experimaster", func() { rep, runErr = m.RunAll() })
		if err := ms.Run(); err != nil {
			return nil, err
		}
		return rep, runErr
	}
	return nil
}

// rpcStats sums the control-channel counters over the master's clients.
func (wd *world) rpcStats() xmlrpc.ClientStats {
	var t xmlrpc.ClientStats
	for _, c := range wd.clients {
		s := c.Stats()
		t.Calls += s.Calls
		t.Attempts += s.Attempts
		t.Retries += s.Retries
		t.Failures += s.Failures
	}
	return t
}

// sortedHandles returns the node handles in node-id order.
func (wd *world) sortedHandles() []master.NodeHandle {
	ids := make([]string, 0, len(wd.handles))
	for id := range wd.handles {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]master.NodeHandle, len(ids))
	for i, id := range ids {
		out[i] = wd.handles[id]
	}
	return out
}

// handleOp names the node-handle operations the decorator times.
type handleOp int

const (
	opHealth handleOp = iota
	opPrepare
	opLocalTime
	opExecute
	opCleanup
	opHarvest
	nHandleOps
)

var handleOpNames = [nHandleOps]string{"health", "prepare", "localtime", "execute", "cleanup", "harvest"}

// call is one timed node-handle call.
type call struct {
	op         handleOp
	node       string
	start, end time.Time
}

// callLog collects the decorator's timings; handles are called from the
// master's fan-out goroutines, hence the lock.
type callLog struct {
	mu    sync.Mutex
	calls []call
}

func (l *callLog) add(op handleOp, node string, start time.Time) {
	end := wallNow()
	l.mu.Lock()
	l.calls = append(l.calls, call{op, node, start, end})
	l.mu.Unlock()
}

// snapshot returns the calls logged so far.
func (l *callLog) snapshot() []call {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]call(nil), l.calls...)
}

// timedNode is the timing decorator around a node proxy. It embeds the
// concrete proxy so the optional interfaces the master probes for (health,
// run errors, trace parent) stay visible and a traced run issues exactly
// the calls an untraced one does.
type timedNode struct {
	*noderpc.RemoteNode
	log *callLog
}

func (n timedNode) Health() error {
	defer n.log.add(opHealth, n.NodeID, wallNow())
	return n.RemoteNode.Health()
}

func (n timedNode) PrepareRun(run int) {
	defer n.log.add(opPrepare, n.NodeID, wallNow())
	n.RemoteNode.PrepareRun(run)
}

func (n timedNode) LocalTime() time.Time {
	defer n.log.add(opLocalTime, n.NodeID, wallNow())
	return n.RemoteNode.LocalTime()
}

func (n timedNode) Execute(action string, params map[string]string) error {
	defer n.log.add(opExecute, n.NodeID, wallNow())
	return n.RemoteNode.Execute(action, params)
}

func (n timedNode) CleanupRun(run int) {
	defer n.log.add(opCleanup, n.NodeID, wallNow())
	n.RemoteNode.CleanupRun(run)
}

func (n timedNode) HarvestEvents(run int) []eventlog.Event {
	defer n.log.add(opHarvest, n.NodeID, wallNow())
	return n.RemoteNode.HarvestEvents(run)
}
