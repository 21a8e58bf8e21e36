// Package zeroconf implements a two-party service discovery protocol in
// the style of Zeroconf (mDNS/DNS-SD), the SDP family of the ExCovery
// prototype (§VI used Avahi [24]).
//
// Behaviour modeled after mDNS continuous querying:
//
//   - Publishing sends a burst of unsolicited multicast announcements and
//     thereafter answers multicast queries for the published type, delaying
//     each response by a small random interval (collision avoidance) and
//     applying known-answer suppression.
//   - Active searching multicasts queries with exponential backoff
//     (1 s, 2 s, 4 s, … capped) carrying the cache content as known
//     answers; passive searching only listens to announcements.
//   - Records carry a TTL and expire from the cache; goodbyes (TTL 0)
//     remove them immediately.
//   - Every query carries an identifier which responses echo. This
//     reproduces the paper's Avahi modification "to allow the association
//     of request and response pairs" (§VI) for per-packet response-time
//     analysis.
package zeroconf

import (
	"encoding/json"
	"fmt"
	"time"

	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/seeds"
)

// Proto is the netem protocol label of zeroconf packets; fault injections
// targeting the experiment process select it.
const Proto = "sd"

// Config tunes protocol timing. The zero value is completed with defaults
// resembling mDNS.
type Config struct {
	// Group is the multicast group; default "mdns".
	Group string
	// AnnounceCount is the number of unsolicited announcements sent when
	// publishing starts; default 3.
	AnnounceCount int
	// AnnounceInterval spaces the announcement burst; default 1 s.
	AnnounceInterval time.Duration
	// QueryInterval is the first query backoff step; default 1 s.
	QueryInterval time.Duration
	// QueryBackoff is the backoff multiplier; default 2.
	QueryBackoff float64
	// QueryMax caps the backoff; default 60 s.
	QueryMax time.Duration
	// ResponseDelayMin/Max bound the random response delay; default
	// 20–120 ms (mDNS shared-record response jitter).
	ResponseDelayMin time.Duration
	ResponseDelayMax time.Duration
	// TTL is the record lifetime; default 75 s.
	TTL time.Duration
	// Scheme selects active or passive discovery; default active.
	Scheme sd.Scheme
}

func (c *Config) fill() {
	if c.Group == "" {
		c.Group = "mdns"
	}
	if c.AnnounceCount == 0 {
		c.AnnounceCount = 3
	}
	if c.AnnounceInterval == 0 {
		c.AnnounceInterval = time.Second
	}
	if c.QueryInterval == 0 {
		c.QueryInterval = time.Second
	}
	if c.QueryBackoff == 0 {
		c.QueryBackoff = 2
	}
	if c.QueryMax == 0 {
		c.QueryMax = 60 * time.Second
	}
	if c.ResponseDelayMin == 0 {
		c.ResponseDelayMin = 20 * time.Millisecond
	}
	if c.ResponseDelayMax == 0 {
		c.ResponseDelayMax = 120 * time.Millisecond
	}
	if c.TTL == 0 {
		c.TTL = 75 * time.Second
	}
	if c.Scheme == "" {
		c.Scheme = sd.SchemeActive
	}
}

// message is the wire format.
type message struct {
	Kind    string           `json:"kind"` // query | response | announce | goodbye
	QID     uint32           `json:"qid,omitempty"`
	From    netem.NodeID     `json:"from"`
	Types   []sd.ServiceType `json:"types,omitempty"`
	Known   []knownAnswer    `json:"known,omitempty"`
	Records []record         `json:"records,omitempty"`
}

type knownAnswer struct {
	Name         string  `json:"name"`
	RemainingSec float64 `json:"remaining_sec"`
}

type record struct {
	Inst   sd.Instance `json:"inst"`
	TTLSec float64     `json:"ttl_sec"`
}

// QueryRecord associates one sent query with its first answer, enabling
// per-packet response time analysis (§VI).
type QueryRecord struct {
	QID        uint32
	Type       sd.ServiceType
	SentAt     time.Time
	AnsweredAt time.Time
	Answered   bool
}

type search struct {
	typ      sd.ServiceType
	interval time.Duration
	timer    *sched.Timer
}

// Agent is a two-party zeroconf SD agent bound to one netem node.
type Agent struct {
	s    *sched.Scheduler
	node *netem.Node
	cfg  Config
	emit sd.EventSink
	rng  *seeds.Rand

	running   bool
	epoch     int // invalidates scheduled callbacks from earlier lifecycles
	role      sd.Role
	cache     *sd.Cache
	published map[string]sd.Instance
	searches  map[sd.ServiceType]*search
	qidSeq    uint32
	queries   map[uint32]*QueryRecord
	qlog      []*QueryRecord
}

// New creates an agent on a node. All randomness (response jitter) derives
// from seed.
func New(s *sched.Scheduler, node *netem.Node, cfg Config, emit sd.EventSink, seed int64) *Agent {
	cfg.fill()
	if emit == nil {
		emit = func(string, map[string]string) {}
	}
	a := &Agent{
		s: s, node: node, cfg: cfg, emit: emit,
		rng:       seeds.Key{Tag: seeds.Agent, Seed: seed}.Rand(),
		published: make(map[string]sd.Instance),
		searches:  make(map[sd.ServiceType]*search),
		queries:   make(map[uint32]*QueryRecord),
	}
	a.cache = sd.NewCache(s)
	a.cache.OnAdd = func(inst sd.Instance) {
		if a.running && a.searches[inst.Type] != nil {
			a.emit(sd.EvServiceAdd, sd.InstParams(inst))
		}
	}
	a.cache.OnDel = func(inst sd.Instance) {
		if a.running && a.searches[inst.Type] != nil {
			a.emit(sd.EvServiceDel, sd.InstParams(inst))
		}
	}
	a.cache.OnUpd = func(inst sd.Instance) {
		if a.running && a.searches[inst.Type] != nil {
			a.emit(sd.EvServiceUpd, sd.InstParams(inst))
		}
	}
	return a
}

// Cache exposes the agent's service cache (read-mostly; used by tests and
// metrics).
func (a *Agent) Cache() *sd.Cache { return a.cache }

// QueryLog returns the request/response association records.
func (a *Agent) QueryLog() []QueryRecord {
	out := make([]QueryRecord, len(a.qlog))
	for i, q := range a.qlog {
		out[i] = *q
	}
	return out
}

// Init implements sd.Agent. Zeroconf has no SCM role.
func (a *Agent) Init(role sd.Role) error {
	if role == sd.RoleSCM {
		return fmt.Errorf("zeroconf: SCM role not supported by a two-party protocol")
	}
	a.role = role
	a.running = true
	a.node.Net().Join(a.cfg.Group, a.node.ID())
	a.emit(sd.EvInitDone, map[string]string{"role": string(role)})
	return nil
}

// Exit implements sd.Agent.
func (a *Agent) Exit() {
	if !a.running {
		return
	}
	for name := range a.published {
		a.sendGoodbye(a.published[name])
	}
	a.published = make(map[string]sd.Instance)
	for _, se := range a.searches {
		if se.timer != nil {
			se.timer.Stop()
		}
	}
	a.searches = make(map[sd.ServiceType]*search)
	a.cache.Flush()
	a.node.Net().Leave(a.cfg.Group, a.node.ID())
	a.running = false
	a.epoch++
	a.emit(sd.EvExitDone, nil)
}

// StartSearch implements sd.Agent.
func (a *Agent) StartSearch(t sd.ServiceType) {
	if !a.running || a.searches[t] != nil {
		return
	}
	se := &search{typ: t, interval: a.cfg.QueryInterval}
	a.searches[t] = se
	a.emit(sd.EvStartSearch, map[string]string{"type": string(t)})
	// Instances already in the local cache count as discovered by this
	// search (§III-A: local caches reduce network load).
	for _, inst := range a.cache.Lookup(t) {
		a.emit(sd.EvServiceAdd, sd.InstParams(inst))
	}
	if a.cfg.Scheme == sd.SchemeActive {
		a.sendQuery(se)
	}
}

// StopSearch implements sd.Agent.
func (a *Agent) StopSearch(t sd.ServiceType) {
	se, ok := a.searches[t]
	if !ok {
		return
	}
	if se.timer != nil {
		se.timer.Stop()
	}
	delete(a.searches, t)
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
	a.announce(inst, a.cfg.AnnounceCount)
}

// StopPublish implements sd.Agent.
func (a *Agent) StopPublish(name string) {
	inst, ok := a.published[name]
	if !ok {
		return
	}
	delete(a.published, name)
	a.sendGoodbye(inst)
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
	a.announce(inst, 1)
}

// Discovered implements sd.Agent.
func (a *Agent) Discovered(t sd.ServiceType) []sd.Instance {
	return a.cache.Lookup(t)
}

// announce sends count unsolicited announcements spaced by the announce
// interval.
func (a *Agent) announce(inst sd.Instance, count int) {
	epoch := a.epoch
	a.sendRecords("announce", 0, []sd.Instance{inst})
	for i := 1; i < count; i++ {
		a.s.ScheduleFunc(time.Duration(i)*a.cfg.AnnounceInterval, "zc-announce", func() {
			if a.epoch != epoch || !a.running {
				return
			}
			// Re-read the instance: an UpdatePublish between burst
			// ticks must not be shadowed by the stale closure value.
			if cur, still := a.published[inst.Name]; still {
				a.sendRecords("announce", 0, []sd.Instance{cur})
			}
		})
	}
}

func (a *Agent) sendGoodbye(inst sd.Instance) {
	a.send(message{Kind: "goodbye", From: a.node.ID(),
		Records: []record{{Inst: inst, TTLSec: 0}}})
}

func (a *Agent) sendRecords(kind string, qid uint32, insts []sd.Instance) {
	recs := make([]record, len(insts))
	for i, inst := range insts {
		recs[i] = record{Inst: inst, TTLSec: a.cfg.TTL.Seconds()}
	}
	a.send(message{Kind: kind, QID: qid, From: a.node.ID(), Records: recs})
}

// sendQuery multicasts one query for a search and schedules the next one
// with exponential backoff.
func (a *Agent) sendQuery(se *search) {
	a.qidSeq++
	qid := a.qidSeq
	qr := &QueryRecord{QID: qid, Type: se.typ, SentAt: a.s.Now()}
	a.queries[qid] = qr
	a.qlog = append(a.qlog, qr)
	var known []knownAnswer
	for _, inst := range a.cache.Lookup(se.typ) {
		known = append(known, knownAnswer{Name: inst.Name, RemainingSec: a.cfg.TTL.Seconds() / 2})
	}
	a.send(message{Kind: "query", QID: qid, From: a.node.ID(),
		Types: []sd.ServiceType{se.typ}, Known: known})

	epoch := a.epoch
	interval := se.interval
	se.interval = time.Duration(float64(se.interval) * a.cfg.QueryBackoff)
	if se.interval > a.cfg.QueryMax {
		se.interval = a.cfg.QueryMax
	}
	se.timer = a.s.ScheduleFunc(interval, "zc-query", func() {
		if a.epoch != epoch || !a.running || a.searches[se.typ] != se {
			return
		}
		a.sendQuery(se)
	})
}

func (a *Agent) send(m message) {
	payload, err := json.Marshal(m)
	if err != nil {
		panic("zeroconf: marshal: " + err.Error())
	}
	a.node.Send(netem.Multicast(a.cfg.Group), Proto, payload)
}

// HandlePacket processes one received SD packet. The node manager routes
// packets with Proto here.
func (a *Agent) HandlePacket(p *netem.Packet) {
	if !a.running {
		return
	}
	var m message
	if err := json.Unmarshal(p.Payload, &m); err != nil {
		return // corrupted packets (Modify rules) are dropped
	}
	if m.From == a.node.ID() {
		return
	}
	switch m.Kind {
	case "query":
		a.handleQuery(m)
	case "response", "announce":
		for _, r := range m.Records {
			a.cache.Upsert(r.Inst, time.Duration(r.TTLSec*float64(time.Second)))
		}
		if m.QID != 0 {
			if qr := a.queries[m.QID]; qr != nil && !qr.Answered {
				qr.Answered = true
				qr.AnsweredAt = a.s.Now()
			}
		}
	case "goodbye":
		for _, r := range m.Records {
			a.cache.Remove(r.Inst.Name)
		}
	}
}

// handleQuery answers queries for published types after a random delay,
// with known-answer suppression.
func (a *Agent) handleQuery(m message) {
	var matches []sd.Instance
	for _, inst := range a.published {
		for _, t := range m.Types {
			if inst.Type != t {
				continue
			}
			suppressed := false
			for _, ka := range m.Known {
				// Suppress if the querier already knows the record
				// with at least half its lifetime remaining.
				if ka.Name == inst.Name && ka.RemainingSec >= a.cfg.TTL.Seconds()/2 {
					suppressed = true
					break
				}
			}
			if !suppressed {
				matches = append(matches, inst)
			}
		}
	}
	if len(matches) == 0 {
		return
	}
	// Sort for determinism: map iteration order must not leak into the
	// simulation.
	sortInstances(matches)
	jitter := a.cfg.ResponseDelayMax - a.cfg.ResponseDelayMin
	delay := a.cfg.ResponseDelayMin
	if jitter > 0 {
		delay += time.Duration(a.rng.Int63n(int64(jitter)))
	}
	epoch := a.epoch
	qid := m.QID
	a.s.ScheduleFunc(delay, "zc-respond", func() {
		if a.epoch != epoch || !a.running {
			return
		}
		live := matches[:0]
		for _, inst := range matches {
			if cur, still := a.published[inst.Name]; still {
				live = append(live, cur)
			}
		}
		if len(live) > 0 {
			a.sendRecords("response", qid, live)
		}
	})
}

func sortInstances(insts []sd.Instance) {
	for i := 1; i < len(insts); i++ {
		for j := i; j > 0 && insts[j].Name < insts[j-1].Name; j-- {
			insts[j], insts[j-1] = insts[j-1], insts[j]
		}
	}
}
