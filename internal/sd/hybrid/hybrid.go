// Package hybrid implements the adaptive SD architecture of §III-B:
// "mixed forms that can switch among two- and three-party, called adaptive
// or hybrid architectures".
//
// The hybrid agent runs a two-party zeroconf agent and a three-party
// directory client side by side. Discovery starts immediately over
// multicast; in parallel the directory client keeps probing for an SCM
// ("in a hybrid architecture, SU and SM agents keep looking for SCMs and
// emit scm_found events", §V) and, once one is present, registrations and
// directed queries flow through it as well. Observable SD events are
// deduplicated: an instance is reported added when either path learns it
// first, and removed only when it is gone from both.
package hybrid

import (
	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/sd/scmdir"
	"excovery/internal/sd/zeroconf"
	"excovery/internal/seeds"
)

// Config bundles the sub-protocol configurations.
type Config struct {
	// Zeroconf configures the two-party path.
	Zeroconf zeroconf.Config
	// Directory configures the three-party path.
	Directory scmdir.Config
}

const (
	childZC = iota
	childDir
)

// Agent is the adaptive two-/three-party SD agent.
type Agent struct {
	emit    sd.EventSink
	zc      *zeroconf.Agent
	dir     *scmdir.Agent
	running bool
	role    sd.Role
	// present tracks which child paths currently know an instance.
	present map[string]map[int]bool
	insts   map[string]sd.Instance
}

// New creates a hybrid agent on a node.
func New(s *sched.Scheduler, node *netem.Node, cfg Config, emit sd.EventSink, seed int64) *Agent {
	if emit == nil {
		emit = func(string, map[string]string) {}
	}
	a := &Agent{
		emit:    emit,
		present: make(map[string]map[int]bool),
		insts:   make(map[string]sd.Instance),
	}
	a.zc = zeroconf.New(s, node, cfg.Zeroconf, a.childSink(childZC),
		seeds.Derive(seeds.Key{Tag: seeds.HybridZC, Seed: seed}))
	a.dir = scmdir.New(s, node, cfg.Directory, a.childSink(childDir),
		seeds.Derive(seeds.Key{Tag: seeds.HybridDir, Seed: seed}))
	return a
}

// childSink filters a sub-agent's events: lifecycle events are emitted by
// the hybrid agent itself, SCM events pass through, and service add/del
// events are deduplicated across the two paths.
func (a *Agent) childSink(child int) sd.EventSink {
	return func(typ string, params map[string]string) {
		switch typ {
		case sd.EvSCMStarted, sd.EvSCMFound, sd.EvSCMRegAdd, sd.EvSCMRegDel, sd.EvSCMRegUpd:
			a.emit(typ, params)
		case sd.EvServiceAdd:
			name := params["service"]
			if a.present[name] == nil {
				a.present[name] = make(map[int]bool)
			}
			first := len(a.present[name]) == 0
			a.present[name][child] = true
			if first {
				a.emit(typ, params)
			}
		case sd.EvServiceDel:
			name := params["service"]
			if a.present[name] == nil {
				return
			}
			delete(a.present[name], child)
			if len(a.present[name]) == 0 {
				delete(a.present, name)
				a.emit(typ, params)
			}
		case sd.EvServiceUpd:
			a.emit(typ, params)
		default:
			// Lifecycle events (init/exit/search/publish) are emitted
			// once by the hybrid agent itself.
		}
	}
}

// Init implements sd.Agent. For the SCM role the agent degrades to a pure
// directory server (the two-party path has no SCM concept).
func (a *Agent) Init(role sd.Role) error {
	a.role = role
	a.running = true
	if role != sd.RoleSCM {
		if err := a.zc.Init(role); err != nil {
			return err
		}
	}
	if err := a.dir.Init(role); err != nil {
		return err
	}
	a.emit(sd.EvInitDone, map[string]string{"role": string(role), "architecture": "hybrid"})
	return nil
}

// Exit implements sd.Agent.
func (a *Agent) Exit() {
	if !a.running {
		return
	}
	a.running = false
	if a.role != sd.RoleSCM {
		a.zc.Exit()
	}
	a.dir.Exit()
	a.present = make(map[string]map[int]bool)
	a.emit(sd.EvExitDone, nil)
}

// StartSearch implements sd.Agent: both paths search concurrently.
func (a *Agent) StartSearch(t sd.ServiceType) {
	if !a.running {
		return
	}
	a.emit(sd.EvStartSearch, map[string]string{"type": string(t), "architecture": "hybrid"})
	a.zc.StartSearch(t)
	a.dir.StartSearch(t)
}

// StopSearch implements sd.Agent.
func (a *Agent) StopSearch(t sd.ServiceType) {
	a.zc.StopSearch(t)
	a.dir.StopSearch(t)
	a.emit(sd.EvStopSearch, map[string]string{"type": string(t)})
}

// StartPublish implements sd.Agent: announce over multicast and register
// on the SCM when one is (or becomes) known.
func (a *Agent) StartPublish(inst sd.Instance) {
	if !a.running {
		return
	}
	a.emit(sd.EvStartPublish, sd.InstParams(inst))
	a.zc.StartPublish(inst)
	a.dir.StartPublish(inst)
}

// StopPublish implements sd.Agent.
func (a *Agent) StopPublish(name string) {
	a.zc.StopPublish(name)
	a.dir.StopPublish(name)
	a.emit(sd.EvStopPublish, map[string]string{"service": name})
}

// UpdatePublish implements sd.Agent.
func (a *Agent) UpdatePublish(inst sd.Instance) {
	a.emit(sd.EvServiceUpd, sd.InstParams(inst))
	a.zc.UpdatePublish(inst)
	a.dir.UpdatePublish(inst)
}

// Discovered implements sd.Agent: the union of both paths' caches.
func (a *Agent) Discovered(t sd.ServiceType) []sd.Instance {
	seen := map[string]bool{}
	var out []sd.Instance
	for _, inst := range a.zc.Discovered(t) {
		seen[inst.Name] = true
		out = append(out, inst)
	}
	for _, inst := range a.dir.Discovered(t) {
		if !seen[inst.Name] {
			out = append(out, inst)
		}
	}
	sortInstances(out)
	return out
}

// SCM reports the directory path's SCM, or "" while operating two-party.
func (a *Agent) SCM() netem.NodeID { return a.dir.SCM() }

// HandlePacket routes an SD packet to both sub-protocols; each ignores
// messages of the other's wire format (the JSON kinds are disjoint).
func (a *Agent) HandlePacket(p *netem.Packet) {
	a.zc.HandlePacket(p)
	a.dir.HandlePacket(p)
}

func sortInstances(insts []sd.Instance) {
	for i := 1; i < len(insts); i++ {
		for j := i; j > 0 && insts[j].Name < insts[j-1].Name; j-- {
			insts[j], insts[j-1] = insts[j-1], insts[j]
		}
	}
}
