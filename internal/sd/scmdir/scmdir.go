// Package scmdir implements a three-party service discovery protocol with
// a service cache manager (SCM), in the style of SLP directory agents or
// Jini lookup services (§III-B).
//
// Protocol outline:
//
//   - An SCM announces itself by answering multicast probes with a unicast
//     "scm_here". SUs and SMs discover it at runtime — the paper notes that
//     a centralized architecture "does not imply a preceding administrative
//     configuration" because the SCM itself is discovered as part of SD.
//   - SMs register their instances with the SCM (registration TTL, renewed
//     at half life). Registrations expire if not renewed; an SM that loses
//     its SCM re-enters discovery and re-registers.
//   - SUs send directed unicast queries to the SCM and subscribe for
//     notifications; the SCM pushes notify_add/notify_del on registration
//     changes, which gives SUs the monitoring half of
//     "Service-Description Discovery and Monitoring" (§V).
//
// The SCM emits the scm_* events of §V: scm_started,
// scm_registration_add/del/upd; SUs and SMs emit scm_found.
package scmdir

import (
	"encoding/json"
	"time"

	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/seeds"
)

// Proto is the netem protocol label of scmdir packets.
const Proto = "sd"

// Protocol timing. Every platform runs the directory protocol with these
// values; the case study varies only its factors.
const (
	// group is the SCM discovery multicast group.
	group = "scmdisc"
	// probeInterval is the first SCM probe backoff step; each step
	// multiplies it by probeBackoff, capped at probeMax.
	probeInterval = 500 * time.Millisecond
	probeBackoff  = 2
	probeMax      = 30 * time.Second
	// regTTL is the registration lifetime on the SCM; renewals happen at
	// half life.
	regTTL = 60 * time.Second
	// responseDelayMin/Max bound the SCM's random response delay for
	// probe answers.
	responseDelayMin = 5 * time.Millisecond
	responseDelayMax = 25 * time.Millisecond
	// ackTimeout bounds how long an SM waits for a registration ack
	// before considering the SCM lost.
	ackTimeout = 5 * time.Second
	// requeryInterval is the first directed-requery backoff step: the SU
	// repeats subscribe+query with exponential backoff (doubling, capped
	// at requeryMax) while a search is active, so lost unicast queries or
	// notifications are recovered.
	requeryInterval = time.Second
	requeryMax      = 30 * time.Second
)

type record struct {
	Inst   sd.Instance `json:"inst"`
	TTLSec float64     `json:"ttl_sec"`
}

type message struct {
	Kind    string           `json:"kind"`
	From    netem.NodeID     `json:"from"`
	SCM     netem.NodeID     `json:"scm,omitempty"`
	QID     uint32           `json:"qid,omitempty"`
	Types   []sd.ServiceType `json:"types,omitempty"`
	Records []record         `json:"records,omitempty"`
	Name    string           `json:"name,omitempty"`
}

// Agent is a three-party SD agent. Depending on the role passed to Init it
// acts as SCM, SM or SU.
type Agent struct {
	s    *sched.Scheduler
	node *netem.Node
	emit sd.EventSink
	rng  *seeds.Rand

	running bool
	epoch   int
	role    sd.Role

	// SCM state.
	registry *sd.Cache
	subs     map[sd.ServiceType]map[netem.NodeID]bool

	// SU/SM state.
	scm       netem.NodeID // discovered SCM; "" while unknown
	probing   bool
	published map[string]sd.Instance
	searches  map[sd.ServiceType]bool
	cache     *sd.Cache
	qidSeq    uint32
	lastAck   time.Time
}

// New creates an agent on a node.
func New(s *sched.Scheduler, node *netem.Node, emit sd.EventSink, seed int64) *Agent {
	if emit == nil {
		emit = func(string, map[string]string) {}
	}
	a := &Agent{
		s: s, node: node, emit: emit,
		rng:       seeds.Key{Tag: seeds.Agent, Seed: seed}.Rand(),
		subs:      make(map[sd.ServiceType]map[netem.NodeID]bool),
		published: make(map[string]sd.Instance),
		searches:  make(map[sd.ServiceType]bool),
	}
	a.cache = sd.NewCache(s)
	a.cache.OnAdd = func(inst sd.Instance) {
		if a.running && a.searches[inst.Type] {
			a.emit(sd.EvServiceAdd, sd.InstParams(inst))
		}
	}
	a.cache.OnDel = func(inst sd.Instance) {
		if a.running && a.searches[inst.Type] {
			a.emit(sd.EvServiceDel, sd.InstParams(inst))
		}
	}
	a.cache.OnUpd = func(inst sd.Instance) {
		if a.running && a.searches[inst.Type] {
			a.emit(sd.EvServiceUpd, sd.InstParams(inst))
		}
	}
	return a
}

// Cache exposes the agent's local service cache.
func (a *Agent) Cache() *sd.Cache { return a.cache }

// Registry exposes the SCM's registration store (SCM role only).
func (a *Agent) Registry() *sd.Cache { return a.registry }

// SCM returns the currently known SCM node, or "".
func (a *Agent) SCM() netem.NodeID { return a.scm }

// Init implements sd.Agent.
func (a *Agent) Init(role sd.Role) error {
	a.role = role
	a.running = true
	if role == sd.RoleSCM {
		a.registry = sd.NewCache(a.s)
		a.registry.OnDel = func(inst sd.Instance) {
			// Expired or revoked registration.
			a.emit(sd.EvSCMRegDel, sd.InstParams(inst))
			a.notify("notify_del", inst)
		}
		a.node.Net().Join(group, a.node.ID())
		a.emit(sd.EvSCMStarted, nil)
		a.emit(sd.EvInitDone, map[string]string{"role": string(role)})
		return nil
	}
	// SU/SM: discover the SCM at runtime; sd_init_done follows scm_found.
	a.startProbing()
	return nil
}

// Exit implements sd.Agent.
func (a *Agent) Exit() {
	if !a.running {
		return
	}
	if a.role != sd.RoleSCM && a.scm != "" {
		for name := range a.published {
			a.sendToSCM(message{Kind: "deregister", Name: name})
		}
		for t := range a.searches {
			a.sendToSCM(message{Kind: "unsubscribe", Types: []sd.ServiceType{t}})
		}
	}
	if a.role == sd.RoleSCM {
		a.node.Net().Leave(group, a.node.ID())
		a.registry.Flush()
	}
	a.published = make(map[string]sd.Instance)
	a.searches = make(map[sd.ServiceType]bool)
	a.cache.Flush()
	a.scm = ""
	a.probing = false
	a.running = false
	a.epoch++
	a.emit(sd.EvExitDone, nil)
}

// StartSearch implements sd.Agent.
func (a *Agent) StartSearch(t sd.ServiceType) {
	if !a.running || a.searches[t] {
		return
	}
	a.searches[t] = true
	a.emit(sd.EvStartSearch, map[string]string{"type": string(t)})
	for _, inst := range a.cache.Lookup(t) {
		a.emit(sd.EvServiceAdd, sd.InstParams(inst))
	}
	if a.scm != "" {
		a.directedSearch(t)
	}
}

// StopSearch implements sd.Agent.
func (a *Agent) StopSearch(t sd.ServiceType) {
	if !a.searches[t] {
		return
	}
	delete(a.searches, t)
	if a.scm != "" {
		// Removal of notification requests previously given to SCMs (§V).
		a.sendToSCM(message{Kind: "unsubscribe", Types: []sd.ServiceType{t}})
	}
	a.emit(sd.EvStopSearch, map[string]string{"type": string(t)})
}

// StartPublish implements sd.Agent.
func (a *Agent) StartPublish(inst sd.Instance) {
	if !a.running {
		return
	}
	inst.Node = a.node.ID()
	a.published[inst.Name] = inst
	a.emit(sd.EvStartPublish, sd.InstParams(inst))
	if a.scm != "" {
		a.register(inst)
	}
}

// StopPublish implements sd.Agent.
func (a *Agent) StopPublish(name string) {
	inst, ok := a.published[name]
	if !ok {
		return
	}
	delete(a.published, name)
	if a.scm != "" {
		a.sendToSCM(message{Kind: "deregister", Name: name})
	}
	a.emit(sd.EvStopPublish, sd.InstParams(inst))
}

// UpdatePublish implements sd.Agent.
func (a *Agent) UpdatePublish(inst sd.Instance) {
	old, ok := a.published[inst.Name]
	if !ok {
		return
	}
	a.emit(sd.EvServiceUpd, sd.InstParams(old))
	inst.Node = a.node.ID()
	inst.Version = old.Version + 1
	a.published[inst.Name] = inst
	if a.scm != "" {
		a.register(inst)
	}
}

// Discovered implements sd.Agent.
func (a *Agent) Discovered(t sd.ServiceType) []sd.Instance {
	return a.cache.Lookup(t)
}

// --- SCM discovery (SU/SM side) ---

func (a *Agent) startProbing() {
	if a.probing {
		return
	}
	a.probing = true
	a.probe(probeInterval)
}

func (a *Agent) probe(interval time.Duration) {
	if !a.running || !a.probing || a.scm != "" {
		return
	}
	a.send(netem.Multicast(group), message{Kind: "scm_probe"})
	next := min(interval*probeBackoff, probeMax)
	epoch := a.epoch
	a.s.ScheduleFunc(interval, "scm-probe", func() {
		if a.epoch != epoch {
			return
		}
		a.probe(next)
	})
}

// scmFound finalizes SCM discovery: pending publications register and
// pending searches subscribe.
func (a *Agent) scmFound(scm netem.NodeID) {
	if a.scm == scm || !a.running {
		return
	}
	first := a.scm == ""
	a.scm = scm
	a.probing = false
	a.lastAck = a.s.Now()
	a.emit(sd.EvSCMFound, map[string]string{"scm": string(scm)})
	if first {
		a.emit(sd.EvInitDone, map[string]string{"role": string(a.role)})
	}
	for _, inst := range sortedInstances(a.published) {
		a.register(inst)
	}
	for _, t := range sortedTypes(a.searches) {
		a.directedSearch(t)
	}
}

// scmLost re-enters SCM discovery after missing acks.
func (a *Agent) scmLost() {
	if a.scm == "" {
		return
	}
	a.scm = ""
	a.startProbing()
}

func (a *Agent) register(inst sd.Instance) {
	a.sendToSCM(message{Kind: "register",
		Records: []record{{Inst: inst, TTLSec: regTTL.Seconds()}}})
	a.scheduleRenew(inst.Name)
	a.scheduleAckCheck()
}

func (a *Agent) scheduleRenew(name string) {
	epoch := a.epoch
	a.s.ScheduleFunc(regTTL/2, "scm-renew", func() {
		if a.epoch != epoch || !a.running {
			return
		}
		inst, still := a.published[name]
		if !still {
			return
		}
		if a.scm == "" {
			return // re-registration happens on scmFound
		}
		a.sendToSCM(message{Kind: "renew",
			Records: []record{{Inst: inst, TTLSec: regTTL.Seconds()}}})
		a.scheduleRenew(name)
		a.scheduleAckCheck()
	})
}

// scheduleAckCheck declares the SCM lost if no ack arrives in time.
func (a *Agent) scheduleAckCheck() {
	epoch := a.epoch
	sentAt := a.s.Now()
	a.s.ScheduleFunc(ackTimeout, "scm-ack-check", func() {
		if a.epoch != epoch || !a.running {
			return
		}
		if a.lastAck.Before(sentAt) {
			a.scmLost()
		}
	})
}

// directedSearch sends subscribe+query to the SCM and keeps re-sending
// with exponential backoff while the search stays active, recovering lost
// unicast queries and notifications.
func (a *Agent) directedSearch(t sd.ServiceType) {
	a.directedSearchStep(t, requeryInterval)
}

func (a *Agent) directedSearchStep(t sd.ServiceType, interval time.Duration) {
	if !a.running || !a.searches[t] || a.scm == "" {
		return
	}
	a.qidSeq++
	a.sendToSCM(message{Kind: "subscribe", Types: []sd.ServiceType{t}})
	a.sendToSCM(message{Kind: "query", QID: a.qidSeq, Types: []sd.ServiceType{t}})
	next := min(interval*2, requeryMax)
	epoch := a.epoch
	a.s.ScheduleFunc(interval, "scm-requery", func() {
		if a.epoch != epoch {
			return
		}
		a.directedSearchStep(t, next)
	})
}

func (a *Agent) sendToSCM(m message) {
	if a.scm == "" {
		return
	}
	a.send(netem.Unicast(a.scm), m)
}

func (a *Agent) send(dst netem.Dest, m message) {
	m.From = a.node.ID()
	payload, err := json.Marshal(m)
	if err != nil {
		panic("scmdir: marshal: " + err.Error())
	}
	a.node.Send(dst, Proto, payload)
}

// --- packet handling ---

// HandlePacket processes one received SD packet.
func (a *Agent) HandlePacket(p *netem.Packet) {
	if !a.running {
		return
	}
	var m message
	if err := json.Unmarshal(p.Payload, &m); err != nil {
		return
	}
	if m.From == a.node.ID() {
		return
	}
	if a.role == sd.RoleSCM {
		a.handleAsSCM(m)
		return
	}
	a.handleAsClient(m)
}

func (a *Agent) handleAsSCM(m message) {
	switch m.Kind {
	case "scm_probe":
		delay := responseDelayMin + time.Duration(a.rng.Int63n(int64(responseDelayMax-responseDelayMin)))
		from := m.From
		epoch := a.epoch
		a.s.ScheduleFunc(delay, "scm-here", func() {
			if a.epoch != epoch || !a.running {
				return
			}
			a.send(netem.Unicast(from), message{Kind: "scm_here", SCM: a.node.ID()})
		})
	case "register", "renew":
		for _, r := range m.Records {
			inst := r.Inst
			_, known := a.registry.Get(inst.Name)
			prev, _ := a.registry.Get(inst.Name)
			a.registry.Upsert(inst, time.Duration(r.TTLSec*float64(time.Second)))
			if m.Kind == "register" {
				if !known {
					a.emit(sd.EvSCMRegAdd, sd.InstParams(inst))
					a.notify("notify_add", inst)
				} else if !prev.Equal(inst) {
					a.emit(sd.EvSCMRegUpd, sd.InstParams(inst))
					a.notify("notify_add", inst)
				}
			} else {
				// Renewals refresh subscriber caches so their TTLs
				// track the registration's lifetime.
				a.notify("notify_add", inst)
			}
		}
		a.send(netem.Unicast(m.From), message{Kind: "reg_ack"})
	case "deregister":
		// Remove fires registry.OnDel, which emits scm_registration_del
		// and notifies subscribers.
		a.registry.Remove(m.Name)
	case "query":
		var recs []record
		for _, t := range m.Types {
			for _, inst := range a.registry.Lookup(t) {
				recs = append(recs, record{Inst: inst, TTLSec: regTTL.Seconds()})
			}
		}
		a.send(netem.Unicast(m.From), message{Kind: "query_resp", QID: m.QID, Records: recs})
	case "subscribe":
		for _, t := range m.Types {
			if a.subs[t] == nil {
				a.subs[t] = make(map[netem.NodeID]bool)
			}
			a.subs[t][m.From] = true
		}
	case "unsubscribe":
		for _, t := range m.Types {
			delete(a.subs[t], m.From)
		}
	}
}

// notify pushes a registration change to all subscribers of the type.
func (a *Agent) notify(kind string, inst sd.Instance) {
	subs := a.subs[inst.Type]
	for _, n := range sortedNodes(subs) {
		ttl := regTTL.Seconds()
		if kind == "notify_del" {
			ttl = 0
		}
		a.send(netem.Unicast(n), message{Kind: kind,
			Records: []record{{Inst: inst, TTLSec: ttl}}})
	}
}

func (a *Agent) handleAsClient(m message) {
	switch m.Kind {
	case "scm_here":
		a.scmFound(m.SCM)
	case "reg_ack":
		a.lastAck = a.s.Now()
	case "query_resp", "notify_add":
		for _, r := range m.Records {
			a.cache.Upsert(r.Inst, time.Duration(r.TTLSec*float64(time.Second)))
		}
	case "notify_del":
		for _, r := range m.Records {
			a.cache.Remove(r.Inst.Name)
		}
	}
}

func sortedInstances(m map[string]sd.Instance) []sd.Instance {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sortStrings(names)
	out := make([]sd.Instance, len(names))
	for i, n := range names {
		out[i] = m[n]
	}
	return out
}

func sortedTypes(m map[sd.ServiceType]bool) []sd.ServiceType {
	names := make([]string, 0, len(m))
	for t := range m {
		names = append(names, string(t))
	}
	sortStrings(names)
	out := make([]sd.ServiceType, len(names))
	for i, n := range names {
		out[i] = sd.ServiceType(n)
	}
	return out
}

func sortedNodes(m map[netem.NodeID]bool) []netem.NodeID {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, string(n))
	}
	sortStrings(names)
	out := make([]netem.NodeID, len(names))
	for i, n := range names {
		out[i] = netem.NodeID(n)
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
