// Package node implements the NodeManager, the central component of a
// node participating in experiments (§VI-A, Fig. 12). It exposes the
// experiment process actions (the SD actions of §V), the fault injection
// actions (§IV-D1) and management procedures; their implementation is
// delegated to sub-components — the SD actions to an sd.Agent (the
// prototype delegated to Avahi), the faults to the fault package. All
// components use the node's event recorder to signal event occurrences.
//
// A plugin mechanism lets experimenters extend the action vocabulary with
// custom functions (§IV-B: "a plugin concept to extend these data with
// custom measurements on demand").
package node

import (
	"fmt"
	"strconv"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/fault"
	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/seeds"
	"excovery/internal/store"
)

// DefaultServiceType is the service class used when an action does not
// name one.
const DefaultServiceType sd.ServiceType = "_expproc._udp"

// PluginFunc is a custom action or measurement registered by an
// experimenter.
type PluginFunc func(params map[string]string) error

// Manager is one node's experiment agent.
type Manager struct {
	s     *sched.Scheduler
	nd    *netem.Node
	rec   *eventlog.Recorder
	agent sd.Agent

	faults  map[string][]activeFault // kind → active injections
	plugins map[string]PluginFunc
	extras  []store.ExtraMeasurement // plugin measurements of the run

	// runParams is the {"run": paramsRun} map of the last run event.
	runParams map[string]string
	paramsRun int
}

// activeFault is one registered injection or scenario; cancel stops its
// pending transitions and deactivates it.
type activeFault struct {
	cancel func()
}

// faultEvents maps each fault action to its registry-constant transition
// events (§IV-D3: one event per action; see internal/eventlog/names.go).
var faultEvents = map[string]struct{ start, stop eventlog.Name }{
	"fault_interface":     {eventlog.EvFaultInterfaceStart, eventlog.EvFaultInterfaceStop},
	"fault_msg_loss":      {eventlog.EvFaultMsgLossStart, eventlog.EvFaultMsgLossStop},
	"fault_msg_delay":     {eventlog.EvFaultMsgDelayStart, eventlog.EvFaultMsgDelayStop},
	"fault_path_loss":     {eventlog.EvFaultPathLossStart, eventlog.EvFaultPathLossStop},
	"fault_path_delay":    {eventlog.EvFaultPathDelayStart, eventlog.EvFaultPathDelayStop},
	"fault_msg_corrupt":   {eventlog.EvFaultMsgCorruptStart, eventlog.EvFaultMsgCorruptStop},
	"fault_msg_duplicate": {eventlog.EvFaultMsgDuplicateStart, eventlog.EvFaultMsgDuplicateStop},
	"fault_msg_reorder":   {eventlog.EvFaultMsgReorderStart, eventlog.EvFaultMsgReorderStop},
	"fault_rate_limit":    {eventlog.EvFaultRateLimitStart, eventlog.EvFaultRateLimitStop},
	"fault_node_kill":     {eventlog.EvFaultNodeKillStart, eventlog.EvFaultNodeKillStop},
	"fault_node_pause":    {eventlog.EvFaultNodePauseStart, eventlog.EvFaultNodePauseStop},
	"fault_node_stress":   {eventlog.EvFaultNodeStressStart, eventlog.EvFaultNodeStressStop},
}

// New creates a manager for a netem node. agent may be nil for pure
// environment nodes. The recorder should report to the master's bus. The
// node captures packets; a campaign that harvests none switches that off
// on the netem node (DESIGN.md §23).
func New(s *sched.Scheduler, nd *netem.Node, rec *eventlog.Recorder, agent sd.Agent) *Manager {
	nd.SetCapture(true)
	return &Manager{
		s: s, nd: nd, rec: rec, agent: agent,
		faults:  make(map[string][]activeFault),
		plugins: make(map[string]PluginFunc),
	}
}

// ID returns the platform node id.
func (m *Manager) ID() string { return string(m.nd.ID()) }

// Recorder returns the node's event recorder.
func (m *Manager) Recorder() *eventlog.Recorder { return m.rec }

// Node returns the underlying netem node.
func (m *Manager) Node() *netem.Node { return m.nd }

// Agent returns the SD agent (nil on environment nodes).
func (m *Manager) Agent() sd.Agent { return m.agent }

// Emit records an event on this node.
func (m *Manager) Emit(typ string, params map[string]string) {
	m.rec.Emit(typ, params)
}

// LocalTime returns the node's local clock reading; the master's time-sync
// estimator probes it (§IV-B3).
func (m *Manager) LocalTime() time.Time { return m.nd.Clock().Now() }

// AddExtra records a named plugin measurement for the current run; the
// master harvests it into the level-2 store, from where conditioning moves
// it into the ExtraRunMeasurements table (§IV-B5: plugins have a separate
// storage location that must be accessible during collection).
func (m *Manager) AddExtra(name string, content []byte) {
	m.extras = append(m.extras, store.ExtraMeasurement{
		Run: m.rec.Run(), Node: m.ID(), Name: name, Content: content,
	})
}

// HarvestExtras returns and clears the plugin measurements.
func (m *Manager) HarvestExtras() []store.ExtraMeasurement {
	out := m.extras
	m.extras = nil
	return out
}

// RegisterPlugin adds a custom action; it becomes invocable from process
// descriptions under its name.
func (m *Manager) RegisterPlugin(name string, fn PluginFunc) {
	if _, dup := m.plugins[name]; dup {
		panic("node: duplicate plugin " + name)
	}
	m.plugins[name] = fn
}

// PrepareRun resets per-run state: the run id on the recorder, leftover
// packets and rules in the network, pending faults, and packet captures
// (§IV-C1: "the whole environment of the experiment process must be reset
// to a defined initial working condition"). Whether the run captures is
// left as it was set.
func (m *Manager) PrepareRun(run int) {
	m.rec.SetRun(run)
	m.StopAllFaults()
	m.nd.ResetRunState()
	m.nd.ClearCaptures()
	m.nd.SetTagging(true)
	m.Emit(eventlog.EvRunInit, m.runParamsOf(run))
}

// CleanupRun terminates a run on this node (§IV-C1 clean-up phase).
func (m *Manager) CleanupRun(run int) {
	if m.agent != nil {
		m.agent.Exit()
	}
	m.StopAllFaults()
	m.Emit(eventlog.EvRunExit, m.runParamsOf(run))
}

// runParamsOf returns the {"run": N} params of run's run_init and run_exit:
// one map per run, which both events share (params are read-only once
// emitted).
func (m *Manager) runParamsOf(run int) map[string]string {
	if m.runParams == nil || m.paramsRun != run {
		m.runParams, m.paramsRun = map[string]string{"run": strconv.Itoa(run)}, run
	}
	return m.runParams
}

// HarvestRun returns and clears the packet captures of the current run. It
// is the one place captures leave node-owned memory: the records are a copy
// (store.FromCaptures), so whoever holds them — the master's committer, an
// RPC reply being encoded — is unaffected by the next run overwriting the
// node's buffers.
func (m *Manager) HarvestRun() []store.PacketRecord {
	out := store.FromCaptures(m.nd.Captures())
	m.nd.ClearCaptures()
	return out
}

// StopAllFaults deactivates every active fault injection and scenario.
func (m *Manager) StopAllFaults() {
	for kind, list := range m.faults {
		for _, af := range list {
			af.cancel()
		}
		delete(m.faults, kind)
	}
}

// ActiveFaults returns the number of active injections.
func (m *Manager) ActiveFaults() int {
	n := 0
	for _, list := range m.faults {
		n += len(list)
	}
	return n
}

// Execute dispatches one experiment action (process.Executor contract for
// node-bound processes).
func (m *Manager) Execute(action string, params map[string]string) error {
	switch action {
	case "sd_init":
		return m.sdInit(params)
	case "sd_exit":
		m.needAgent()
		m.agent.Exit()
		return nil
	case "sd_start_search":
		m.needAgent()
		m.agent.StartSearch(serviceType(params))
		return nil
	case "sd_stop_search":
		m.needAgent()
		m.agent.StopSearch(serviceType(params))
		return nil
	case "sd_start_publish":
		m.needAgent()
		m.agent.StartPublish(m.instance(params))
		return nil
	case "sd_stop_publish":
		m.needAgent()
		m.agent.StopPublish(m.instanceName(params))
		return nil
	case "sd_update_publish":
		m.needAgent()
		inst := m.instance(params)
		inst.TXT = map[string]string{"updated": "1"}
		m.agent.UpdatePublish(inst)
		return nil
	case "fault_interface", "fault_msg_loss", "fault_msg_delay",
		"fault_path_loss", "fault_path_delay",
		"fault_msg_corrupt", "fault_msg_duplicate", "fault_msg_reorder",
		"fault_rate_limit",
		"fault_node_kill", "fault_node_pause", "fault_node_stress":
		return m.startFault(action, params)
	case "fault_flap":
		return m.startFlap(params)
	case "fault_ramp":
		return m.startRamp(params)
	case "fault_stop":
		return m.stopFault(params)
	default:
		if fn, ok := m.plugins[action]; ok {
			return fn(params)
		}
		return fmt.Errorf("node %s: unknown action %q", m.ID(), action)
	}
}

func (m *Manager) needAgent() {
	if m.agent == nil {
		panic("node: SD action on a node without SD agent")
	}
}

func (m *Manager) sdInit(params map[string]string) error {
	m.needAgent()
	role := sd.Role(params["role"])
	switch role {
	case sd.RoleSU, sd.RoleSM, sd.RoleSCM:
	case "":
		return fmt.Errorf("node %s: sd_init without role", m.ID())
	default:
		return fmt.Errorf("node %s: unknown SD role %q", m.ID(), params["role"])
	}
	return m.agent.Init(role)
}

func serviceType(params map[string]string) sd.ServiceType {
	if t := params["type"]; t != "" {
		return sd.ServiceType(t)
	}
	return DefaultServiceType
}

func (m *Manager) instanceName(params map[string]string) string {
	if n := params["name"]; n != "" {
		return n
	}
	return m.ID() + "." + string(serviceType(params))
}

func (m *Manager) instance(params map[string]string) sd.Instance {
	return sd.Instance{
		Name:    m.instanceName(params),
		Type:    serviceType(params),
		Node:    m.nd.ID(),
		Address: params["address"],
		Port:    atoiDefault(params["port"], 4711),
	}
}

// newInjection builds the fault injection for one fault action. Common
// parameters: direction, proto (default "sd"), randomseed; specific
// parameters: prob, corr, delay_ms, peer, rate_kbps, burst, factor.
func (m *Manager) newInjection(kind string, params map[string]string) (fault.Injection, error) {
	dir := fault.Direction(params["direction"])
	if dir == "" {
		dir = fault.DirBoth
	}
	proto := params["proto"]
	if proto == "" {
		proto = "sd"
	}
	seed := int64(atoiDefault(params["randomseed"], seeds.DefaultRandomSeed))
	switch kind {
	case "fault_interface":
		return fault.NewInterfaceFault(m.nd, dir, seed)
	case "fault_msg_loss":
		return fault.NewMessageLoss(m.nd, atofDefault(params["prob"], 1), dir, proto, seed)
	case "fault_msg_delay":
		return fault.NewMessageDelay(m.nd, msParam(params, "delay_ms"), dir, proto, seed)
	case "fault_path_loss":
		return fault.NewPathLoss(m.nd, netem.NodeID(params["peer"]), atofDefault(params["prob"], 1), dir, proto, seed)
	case "fault_path_delay":
		return fault.NewPathDelay(m.nd, netem.NodeID(params["peer"]), msParam(params, "delay_ms"), dir, proto, seed)
	case "fault_msg_corrupt":
		return fault.NewMessageCorrupt(m.nd, atofDefault(params["prob"], 1), dir, proto, seed)
	case "fault_msg_duplicate":
		return fault.NewMessageDuplicate(m.nd, atofDefault(params["prob"], 1), dir, proto, seed)
	case "fault_msg_reorder":
		return fault.NewMessageReorder(m.nd, atofDefault(params["prob"], 0.5),
			atofDefault(params["corr"], 0), msParam(params, "delay_ms"), dir, proto, seed)
	case "fault_rate_limit":
		return fault.NewRateLimit(m.nd, int64(atofDefault(params["rate_kbps"], 64)*1000),
			atoiDefault(params["burst"], 0), dir, proto, seed)
	case "fault_node_kill":
		return fault.NewNodeKill(m.nd), nil
	case "fault_node_pause":
		return fault.NewNodePause(m.nd), nil
	case "fault_node_stress":
		return fault.NewNodeStress(m.nd, atofDefault(params["factor"], 1))
	default:
		return nil, fmt.Errorf("node %s: unknown fault kind %q", m.ID(), kind)
	}
}

// emitTransition returns an onEvent callback translating "start"/"stop"
// notifications into the kind's registry events.
func (m *Manager) emitTransition(kind string) func(string) {
	ev := faultEvents[kind]
	return func(what string) {
		name := ev.start
		if what == "stop" {
			name = ev.stop
		}
		m.Emit(name, map[string]string{"target": m.ID()})
	}
}

// startFault creates, schedules and registers a fault injection. Common
// parameters: direction, proto (default "sd"), duration_s, rate,
// randomseed. The action emits a <kind>_start event; the scheduled stop
// (if timed) emits <kind>_stop (§IV-D3).
func (m *Manager) startFault(kind string, params map[string]string) error {
	inj, err := m.newInjection(kind, params)
	if err != nil {
		return err
	}
	tm := fault.Timing{
		Duration: time.Duration(atofDefault(params["duration_s"], 0) * float64(time.Second)),
		Rate:     atofDefault(params["rate"], 0),
		Seed:     int64(atoiDefault(params["randomseed"], seeds.DefaultRandomSeed)),
	}
	applied := fault.Apply(m.s, inj, tm, m.emitTransition(kind))
	m.faults[kind] = append(m.faults[kind], activeFault{cancel: func() { applied.Cancel(inj) }})
	return nil
}

// startFlap schedules a flap scenario: the inner fault (param kind) is
// toggled with period_s and duty for cycles periods. Inner fault
// parameters ride along on the same action.
func (m *Manager) startFlap(params map[string]string) error {
	kind := params["kind"]
	if _, ok := faultEvents[kind]; !ok {
		return fmt.Errorf("node %s: fault_flap with unknown kind %q", m.ID(), kind)
	}
	inj, err := m.newInjection(kind, params)
	if err != nil {
		return err
	}
	period := time.Duration(atofDefault(params["period_s"], 1) * float64(time.Second))
	sc, err := fault.Flap(m.s, inj, period,
		atofDefault(params["duty"], 0.5), atoiDefault(params["cycles"], 1),
		m.emitTransition(kind))
	if err != nil {
		return err
	}
	m.faults["fault_flap"] = append(m.faults["fault_flap"], activeFault{cancel: sc.Cancel})
	return nil
}

// rampKinds maps the fault kinds a ramp can sweep to the parameter the
// interpolated level feeds.
var rampKinds = map[string]string{
	"fault_msg_loss":   "prob",
	"fault_msg_delay":  "delay_ms",
	"fault_rate_limit": "rate_kbps",
}

// startRamp schedules a ramp scenario sweeping the inner fault's intensity
// from from to to in steps equal steps of step_s seconds each.
func (m *Manager) startRamp(params map[string]string) error {
	kind := params["kind"]
	levelParam, ok := rampKinds[kind]
	if !ok {
		return fmt.Errorf("node %s: fault_ramp cannot sweep kind %q", m.ID(), kind)
	}
	mk := func(level float64) (fault.Injection, error) {
		p := make(map[string]string, len(params)+1)
		for k, v := range params {
			p[k] = v
		}
		p[levelParam] = strconv.FormatFloat(level, 'g', -1, 64)
		return m.newInjection(kind, p)
	}
	stepDur := time.Duration(atofDefault(params["step_s"], 1) * float64(time.Second))
	steps := atoiDefault(params["steps"], 1)
	sc, err := fault.Ramp(m.s, mk,
		atofDefault(params["from"], 0), atofDefault(params["to"], 1),
		steps, stepDur,
		func(step int, level float64) {
			name := eventlog.EvFaultRampStep
			if step == steps {
				name = eventlog.EvFaultRampDone
			}
			m.Emit(name, map[string]string{
				"target": m.ID(), "kind": kind,
				"step":  strconv.Itoa(step),
				"level": strconv.FormatFloat(level, 'g', -1, 64),
			})
		})
	if err != nil {
		return err
	}
	m.faults["fault_ramp"] = append(m.faults["fault_ramp"], activeFault{cancel: sc.Cancel})
	return nil
}

// stopFault stops active injections: all of one kind (param kind), or all.
func (m *Manager) stopFault(params map[string]string) error {
	kind := params["kind"]
	if kind == "" {
		m.StopAllFaults()
		return nil
	}
	list, ok := m.faults[kind]
	if !ok {
		return fmt.Errorf("node %s: no active fault of kind %q", m.ID(), kind)
	}
	for _, af := range list {
		af.cancel()
	}
	delete(m.faults, kind)
	if ev, ok := faultEvents[kind]; ok {
		m.Emit(ev.stop, map[string]string{"target": m.ID()})
	}
	return nil
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	if v, err := strconv.Atoi(s); err == nil {
		return v
	}
	return def
}

func atofDefault(s string, def float64) float64 {
	if s == "" {
		return def
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	return def
}

func msParam(params map[string]string, key string) time.Duration {
	return time.Duration(atofDefault(params[key], 0) * float64(time.Millisecond))
}
