// Package noderpc implements the distributed deployment of Fig. 12: the
// ExperiMaster and the NodeManagers run in separate processes connected by
// a dedicated XML-RPC control channel (§IV-A1, §VI-A).
//
// The node-host process serves the platform — the emulated network and one
// NodeManager per platform node — behind an XML-RPC server whose methods
// mirror the NodeHandle contract. The master process runs the treatment plan
// and the experiment processes, issuing every action as a synchronous RPC,
// exactly like the prototype's xmlrpclib-based ExperiMaster.
//
// Node events take one path to the master (DESIGN.md §20; the paper's nodes
// report measurements over the control channel). An event recorded while
// the host serves a data-path call — node.prepare_run, node.execute,
// node.emit, node.cleanup_run, env.execute, env.reset — comes back in that
// call's reply, and the master publishes it when the call returns. Only
// events recorded between calls, such as SD traffic while the master waits
// for an event, are pushed to the master's own XML-RPC endpoint. The reply
// to node.cleanup_run is the run's barrier: every event recorded before it
// is on the master's bus. Replies, pushes and node.harvest_events all carry
// the text of a level-2 events file (store.AppendEventLine).
package noderpc

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"excovery/internal/core"
	"excovery/internal/eventlog"
	"excovery/internal/node"
	"excovery/internal/obs"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// Host serves a core.Experiment's nodes over XML-RPC. Create the
// experiment with Options.RealTime so RPC requests interleave with
// emulated time, and wire Options.OnEvent to Host.ForwardEvent.
type Host struct {
	x *core.Experiment

	mu     sync.Mutex
	outbox []eventlog.Event
	// calls counts the event-carrying calls in flight (carrying): events
	// recorded meanwhile wait in the outbox for a reply to take them.
	calls int
	// pushing is set while the pump has a batch on the wire; pushDone (on
	// mu) wakes the replies that wait for it.
	pushing  bool
	pushDone *sync.Cond
	kick     chan struct{}
	master   *xmlrpc.Client
	stop     chan struct{}

	// Master session lease (§IV-A1 control channel, hardened): the host
	// tracks which master session owns it and until when. A master that
	// stops renewing loses the binding at the deadline; a new (or
	// restarted) master re-adopts the host by registering again.
	session   string
	lease     LeaseRecord
	adoptions int
	expiries  int
	watching  bool
	now       func() time.Time // wall clock; overridable in tests

	// Fencing (DESIGN.md §14): the highest registry claim epoch accepted
	// on host.set_master. A set_master or fenced data-path RPC carrying an
	// older epoch is refused — a master that lost its claim to a registry
	// takeover cannot keep driving the nodes (split-brain prevention).
	// Epoch 0 (static -host wiring, no registry) is never fenced.
	epoch         int64
	fencedRejects int

	// Cross-process tracing (DESIGN.md §13): the host records one span per
	// control-channel request on its own tracer. Span ids are seeded into a
	// space disjoint from the master's, so when the master merges harvested
	// host spans into the per-run trace.json, parent links stay unambiguous.
	tracer *obs.Tracer
	track  string
	curRun int // run of the last node.prepare_run; attributes runless RPCs

	// Event-pump instrumentation (nil-safe without Instrument).
	obs        *obs.Registry
	mForwarded *obs.Counter
	mCarried   *obs.Counter
	mBatches   *obs.Counter
	mPushErrs  *obs.Counter
	mOutbox    *obs.Gauge
	mAdopt     *obs.Counter
	mRenew     *obs.Counter
	mExpire    *obs.Counter
	mFenced    *obs.Counter
}

// NewHost wraps an assembled experiment.
func NewHost(x *core.Experiment) *Host {
	track := "host"
	if ids := sortedKeys(x.Managers); len(ids) > 0 {
		track += ":" + ids[0]
	}
	tr := obs.NewTracer(x.S.Now)
	// Host span ids live in the upper half of a 64-bit space keyed by the
	// host's track name: merged master+host traces keep disjoint id spaces
	// without any coordination (the master allocates from 1 upward).
	fh := fnv.New32a()
	fh.Write([]byte(track))
	tr.SeedIDs((uint64(fh.Sum32()) | 1) << 32)
	h := &Host{x: x, kick: make(chan struct{}, 1), stop: make(chan struct{}),
		now: time.Now, tracer: tr, track: track, curRun: -1}
	h.pushDone = sync.NewCond(&h.mu)
	return h
}

// Tracer returns the host's span tracer (never nil).
func (h *Host) Tracer() *obs.Tracer { return h.tracer }

// Instrument registers the host's event-pump metrics in reg and passes the
// registry on to clients the host creates (the master-push client). Call
// before serving.
func (h *Host) Instrument(reg *obs.Registry) {
	h.obs = reg
	h.mForwarded = reg.Counter(obs.MHostEventsForwarded,
		"node events queued for the master")
	h.mCarried = reg.Counter(obs.MHostEventsCarried,
		"node events returned in the reply of a call in flight when they were recorded")
	h.mBatches = reg.Counter(obs.MHostEventBatches,
		"event batches pushed to the master endpoint (events recorded between calls)")
	h.mPushErrs = reg.Counter(obs.MHostEventPushErrors,
		"failed event pushes (batch requeued for redelivery) and events dropped because they cannot be encoded")
	h.mOutbox = reg.Gauge(obs.MHostOutboxLen,
		"events waiting in the outbox for a reply or a push")
	h.mAdopt = reg.Counter(obs.MHostMasterAdoptions,
		"master sessions that registered or re-adopted this host")
	h.mRenew = reg.Counter(obs.MHostLeaseRenewals,
		"master lease renewals accepted")
	h.mExpire = reg.Counter(obs.MHostLeaseExpiries,
		"master leases that expired without renewal")
	h.mFenced = reg.Counter(obs.MHostFencedRejections,
		"RPCs refused because they carried a stale fencing epoch")
}

// FenceEpoch returns the highest registry claim epoch this host has
// accepted. The discovery agent sends it with every re-registration, so a
// restarted registry re-learns the fleet's epoch high-water mark from one
// heartbeat interval of traffic.
func (h *Host) FenceEpoch() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch
}

// HostStatus is the /status document of a node host.
type HostStatus struct {
	// Nodes are the platform node ids served by this host.
	Nodes []string `json:"nodes"`
	// MasterSet reports whether a master registered its event endpoint.
	MasterSet bool `json:"master_set"`
	// Session is the id of the master session currently holding the
	// lease ("" without a session-aware master).
	Session string `json:"session,omitempty"`
	// LeaseRemaining is how long until the master's lease expires, in
	// seconds (absent without a lease).
	LeaseRemaining float64 `json:"lease_remaining_s,omitempty"`
	// Adoptions counts master registrations, including re-adoptions by a
	// restarted master.
	Adoptions int `json:"adoptions,omitempty"`
	// LeaseExpiries counts leases lost to a silent master.
	LeaseExpiries int `json:"lease_expiries,omitempty"`
	// FenceEpoch is the highest registry claim epoch accepted (0 when the
	// host has only ever been driven by static wiring).
	FenceEpoch int64 `json:"fence_epoch,omitempty"`
	// FencedRejections counts RPCs refused for carrying a stale epoch.
	FencedRejections int `json:"fenced_rejections,omitempty"`
	// OutboxLen is the number of events awaiting a reply or a push.
	OutboxLen int `json:"outbox_len"`
	// VirtualTime is the host scheduler's current time.
	VirtualTime time.Time `json:"virtual_time"`
}

// Status returns a live snapshot for the obs /status endpoint. Safe to
// call from any goroutine.
func (h *Host) Status() HostStatus {
	h.mu.Lock()
	h.checkLeaseLocked()
	st := HostStatus{
		MasterSet:        h.master != nil,
		Session:          h.session,
		Adoptions:        h.adoptions,
		LeaseExpiries:    h.expiries,
		FenceEpoch:       h.epoch,
		FencedRejections: h.fencedRejects,
		OutboxLen:        len(h.outbox),
		LeaseRemaining:   h.lease.Remaining(h.now()).Seconds(),
	}
	h.mu.Unlock()
	st.Nodes = sortedKeys(h.x.Managers)
	st.VirtualTime = h.x.S.Now()
	return st
}

// checkLeaseLocked drops the master binding when its lease deadline has
// passed: the host stops pushing events into the void and becomes free
// for the next master session to adopt. Events already in the outbox are
// retained and delivered to whichever master registers next. Callers
// hold h.mu.
func (h *Host) checkLeaseLocked() {
	if !h.lease.Lapse(h.now()) {
		return
	}
	h.master = nil
	h.session = ""
	h.expiries++
	h.mExpire.Inc()
}

// expireLease is the host's part of the lease Sweep, which expires a
// silent master even while the host is idle: one goroutine per host,
// started with the first host.set_master.
func (h *Host) expireLease() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checkLeaseLocked()
	return h.lease.TTL()
}

// ForwardEvent queues an event for the master. While an event-carrying
// call is in flight the event waits for that call's reply; otherwise the
// pump pushes it. It is safe to call from scheduler task context: queuing
// never blocks.
func (h *Host) ForwardEvent(ev eventlog.Event) {
	h.mu.Lock()
	h.outbox = append(h.outbox, ev)
	h.mOutbox.Set(int64(len(h.outbox)))
	idle := h.calls == 0
	h.mu.Unlock()
	h.mForwarded.Inc()
	if idle {
		h.wake()
	}
}

// wake kicks the pump without blocking.
func (h *Host) wake() {
	select {
	case h.kick <- struct{}{}:
	default:
	}
}

// pump pushes the events recorded between calls to the master endpoint.
// Runs on a plain goroutine: HTTP calls must not block the cooperative
// scheduler.
func (h *Host) pump() {
	for {
		select {
		case <-h.stop:
			return
		case <-h.kick:
		}
		for {
			h.mu.Lock()
			if len(h.outbox) == 0 || h.master == nil || h.calls > 0 {
				h.mu.Unlock()
				break
			}
			batch := h.outbox
			h.outbox = nil
			h.mOutbox.Set(0)
			h.pushing = true
			c := h.master
			h.mu.Unlock()
			batch, doc := h.eventLines(batch)
			var err error
			if len(batch) > 0 {
				_, err = c.Call("master.events", doc)
			}
			h.mu.Lock()
			h.pushing = false
			h.pushDone.Broadcast()
			if err != nil {
				// Redeliver on the next kick, or in the next reply; the
				// control channel is expected to be reliable (§IV-A1), so
				// transient HTTP errors only delay events.
				h.outbox = append(batch, h.outbox...)
				h.mOutbox.Set(int64(len(h.outbox)))
			}
			h.mu.Unlock()
			if err != nil {
				h.mPushErrs.Inc()
				time.Sleep(50 * time.Millisecond)
				h.wake()
				break
			}
			if len(batch) > 0 {
				h.mBatches.Inc()
			}
		}
	}
}

// carrying makes a data-path handler answer the events recorded while it
// ran. Events recorded during the call stay in the outbox. A successful
// call first waits for a push already on the wire, then takes the whole
// outbox, in record order, as its reply: a string of event lines, empty
// when there are none. A failed call leaves the events to the pump. A
// retried call is answered from the idempotency cache, so its events still
// reach the master once.
func (h *Host) carrying(fn func(params []any) error) xmlrpc.Handler {
	return func(params []any) (any, error) {
		h.mu.Lock()
		h.calls++
		h.mu.Unlock()
		err := fn(params)
		var evs []eventlog.Event
		h.mu.Lock()
		if err == nil {
			for h.pushing {
				h.pushDone.Wait()
			}
			evs = h.outbox
			h.outbox = nil
			h.mOutbox.Set(0)
		}
		h.calls--
		idle := h.calls == 0 && len(h.outbox) > 0
		h.mu.Unlock()
		if err != nil {
			if idle {
				h.wake()
			}
			return nil, err
		}
		evs, doc := h.eventLines(evs)
		h.mCarried.Add(int64(len(evs)))
		return doc, nil
	}
}

// eventLines encodes events as the lines of a level-2 events file, the
// text of every event document on the control channel. An event that
// cannot be encoded — a time whose year is outside 0–9999 — is dropped and
// counted as a push error; kept is events without it.
func (h *Host) eventLines(events []eventlog.Event) (kept []eventlog.Event, doc string) {
	buf := make([]byte, 0, 160*len(events))
	kept = events[:0]
	for i := range events {
		var err error
		if buf, err = store.AppendEventLine(buf, &events[i]); err != nil {
			h.mPushErrs.Inc()
			continue
		}
		kept = append(kept, events[i])
	}
	return kept, string(buf)
}

// Close stops the event pump.
func (h *Host) Close() { close(h.stop) }

// traced wraps a data-path handler with cross-process span recording: the
// call's trace parent (set by the master's RemoteNode proxy) becomes the
// span's parent, so host spans slot into the master's run/phase tree when
// the traces are merged.
func (h *Host) traced(method string, fn xmlrpc.MetaHandler) xmlrpc.MetaHandler {
	return func(meta xmlrpc.Meta, params []any) (any, error) {
		sp := h.tracer.Begin(meta.TraceParent, h.track, "rpc", method, h.spanRun(params), 0, nil)
		res, err := fn(meta, params)
		if err != nil {
			h.tracer.EndWith(sp, map[string]string{"err": err.Error()})
		} else {
			h.tracer.End(sp)
		}
		return res, err
	}
}

// fenced wraps a handler with the fencing check on the call's epoch.
func (h *Host) fenced(method string, fn xmlrpc.Handler) xmlrpc.MetaHandler {
	return func(meta xmlrpc.Meta, params []any) (any, error) {
		if err := h.checkEpoch(method, meta.FenceEpoch); err != nil {
			return nil, err
		}
		return fn(params)
	}
}

// checkEpoch compares a call's fence epoch (set by a registry-claiming
// master) against the epoch of the last accepted host.set_master. A stale
// epoch means the caller's claim was superseded — the RPC is refused so
// two masters can never drive the same node. Calls without an epoch
// (static wiring) pass.
func (h *Host) checkEpoch(method string, epoch int64) error {
	if epoch <= 0 {
		return nil
	}
	h.mu.Lock()
	cur := h.epoch
	if epoch < cur {
		h.fencedRejects++
	}
	h.mu.Unlock()
	if epoch >= cur {
		return nil
	}
	h.mFenced.Inc()
	return fmt.Errorf("%s: fenced: stale epoch %d (host claimed at epoch %d)",
		method, epoch, cur)
}

// spanRun attributes an RPC to a run: methods carrying (node or nodes, run)
// use the explicit argument; the rest (ping, local_time, execute, emit,
// packet and extra harvests, env actions) fall back to the run of the last
// prepare_run.
func (h *Host) spanRun(params []any) int {
	if run, ok := xmlrpc.Arg[int](params, 1); ok {
		return run
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.curRun
}

func (h *Host) setRun(run int) {
	h.mu.Lock()
	h.curRun = run
	h.mu.Unlock()
}

// Server builds the XML-RPC method registry for this host.
func (h *Host) Server() *xmlrpc.Server {
	srv := xmlrpc.NewServer()
	srv.Obs = h.obs
	s := h.x.S
	// Data-path methods are traced and fenced. The six that act on the
	// platform answer the events recorded while they ran (carrying).
	dataPath := func(method string, fn xmlrpc.Handler) xmlrpc.MetaHandler {
		return h.traced(method, h.fenced(method, fn))
	}

	srv.Register("host.ping", func(params []any) (any, error) {
		return "pong", nil
	})
	srv.Register("host.nodes", func(params []any) (any, error) {
		ids := make([]any, 0, len(h.x.Managers))
		for _, id := range sortedKeys(h.x.Managers) {
			ids = append(ids, id)
		}
		return ids, nil
	})
	// host.set_master registers the master's event endpoint and starts
	// the push pump. The optional (session, ttl_ms) pair opens a lease:
	// the registration expires unless host.renew_lease keeps it alive;
	// without a TTL it stays unleased, session or not. A
	// later registration — same master restarted under a new session id,
	// or a different master — adopts the host, superseding the old
	// binding; queued events flow to the adopter. The call's fence epoch is
	// the registry claim epoch: a registration older than one already
	// accepted is refused, a newer one raises the host's epoch.
	srv.RegisterMeta("host.set_master", func(meta xmlrpc.Meta, params []any) (any, error) {
		url, ok := xmlrpc.Arg[string](params, 0)
		if !ok {
			return nil, fmt.Errorf("host.set_master: want url string")
		}
		session, _ := xmlrpc.Arg[string](params, 1)
		ttlMS, _ := xmlrpc.Arg[int](params, 2)
		if err := h.checkEpoch("host.set_master", meta.FenceEpoch); err != nil {
			return nil, err
		}
		// Event pushes ride the same resilient transport as the master's
		// calls: retried with backoff, deduplicated by idempotency key so
		// a lost response cannot double-publish a batch.
		h.mu.Lock()
		pumpStarted := h.watching
		h.watching = true
		h.master = xmlrpc.NewRetryingClient(url, xmlrpc.DefaultRetryPolicy())
		h.master.Obs = h.obs
		h.session = session
		h.lease.Grant(h.now(), time.Duration(ttlMS)*time.Millisecond)
		if meta.FenceEpoch > h.epoch {
			h.epoch = meta.FenceEpoch
		}
		h.adoptions++
		h.mu.Unlock()
		h.mAdopt.Inc()
		if !pumpStarted {
			go h.pump()
			go Sweep(h.stop, h.expireLease)
		}
		// Wake the pump: a re-adopting master must receive events queued
		// while no master was bound.
		h.wake()
		return true, nil
	})
	// host.renew_lease extends the registered master session's deadline.
	// A session the host does not know — it restarted, its lease expired,
	// or another master adopted it — is refused, telling the caller to
	// re-register with host.set_master.
	srv.Register("host.renew_lease", func(params []any) (any, error) {
		session, ok := xmlrpc.Arg[string](params, 0)
		if !ok {
			return nil, fmt.Errorf("host.renew_lease: want (session, ttl_ms)")
		}
		ttlMS, _ := xmlrpc.Arg[int](params, 1)
		h.mu.Lock()
		defer h.mu.Unlock()
		h.checkLeaseLocked()
		if h.session == "" || h.session != session {
			return nil, fmt.Errorf("host.renew_lease: unknown session %q", session)
		}
		h.lease.Renew(h.now(), time.Duration(ttlMS)*time.Millisecond)
		h.mRenew.Inc()
		return true, nil
	})

	// The four broadcast methods of a run — node.ping, node.prepare_run,
	// node.local_time and node.cleanup_run — take a list of node ids, so
	// the master makes one call per host and phase instead of one per node
	// (DESIGN.md §13.1). Every id is checked before any node is touched.
	//
	// node.ping is the health probe of the master's preflight check: it
	// verifies the control channel and that the nodes are served here.
	srv.RegisterMeta("node.ping", dataPath("node.ping", func(params []any) (any, error) {
		if _, err := h.nodesArg(params); err != nil {
			return nil, err
		}
		return "pong", nil
	}))
	srv.RegisterMeta("node.prepare_run", dataPath("node.prepare_run", h.carrying(func(params []any) error {
		mgrs, err := h.nodesArg(params)
		if err != nil {
			return err
		}
		run, ok := xmlrpc.Arg[int](params, 1)
		if !ok {
			return fmt.Errorf("node.prepare_run: want (nodes, run int)")
		}
		h.setRun(run)
		s.InjectWait("rpc prepare_run", func() {
			for _, mgr := range mgrs {
				mgr.PrepareRun(run)
			}
		})
		return nil
	})))
	srv.RegisterMeta("node.cleanup_run", dataPath("node.cleanup_run", h.carrying(func(params []any) error {
		mgrs, err := h.nodesArg(params)
		if err != nil {
			return err
		}
		run, ok := xmlrpc.Arg[int](params, 1)
		if !ok {
			return fmt.Errorf("node.cleanup_run: want (nodes, run int)")
		}
		s.InjectWait("rpc cleanup_run", func() {
			for _, mgr := range mgrs {
				mgr.CleanupRun(run)
			}
		})
		return nil
	})))
	srv.RegisterMeta("node.execute", dataPath("node.execute", h.carrying(func(params []any) error {
		id, ok := xmlrpc.Arg[string](params, 0)
		action, ok2 := xmlrpc.Arg[string](params, 1)
		if !ok || !ok2 {
			return fmt.Errorf("node.execute: want (node, action, params)")
		}
		pm := map[string]string{}
		if raw, ok := xmlrpc.Arg[map[string]any](params, 2); ok {
			for k, v := range raw {
				pm[k] = fmt.Sprint(v)
			}
		}
		mgr := h.x.Managers[id]
		if mgr == nil {
			return fmt.Errorf("no node %q", id)
		}
		var execErr error
		s.InjectWait("rpc execute "+action, func() { execErr = mgr.Execute(action, pm) })
		return execErr
	})))
	srv.RegisterMeta("node.emit", dataPath("node.emit", h.carrying(func(params []any) error {
		id, ok := xmlrpc.Arg[string](params, 0)
		typ, ok2 := xmlrpc.Arg[string](params, 1)
		if !ok || !ok2 {
			return fmt.Errorf("node.emit: want (node, type, params)")
		}
		pm := map[string]string{}
		if raw, ok := xmlrpc.Arg[map[string]any](params, 2); ok {
			for k, v := range raw {
				pm[k] = fmt.Sprint(v)
			}
		}
		mgr := h.x.Managers[id]
		if mgr == nil {
			return fmt.Errorf("no node %q", id)
		}
		s.InjectWait("rpc emit", func() { mgr.Emit(typ, pm) })
		return nil
	})))
	// node.local_time answers one RFC3339Nano string per listed node, in
	// request order, all read at one instant of the host's clock.
	srv.RegisterMeta("node.local_time", dataPath("node.local_time", func(params []any) (any, error) {
		mgrs, err := h.nodesArg(params)
		if err != nil {
			return nil, err
		}
		times := make([]time.Time, len(mgrs))
		s.InjectWait("rpc local_time", func() {
			for i, mgr := range mgrs {
				times[i] = mgr.LocalTime()
			}
		})
		out := make([]any, len(times))
		for i, t := range times {
			out[i] = t.Format(time.RFC3339Nano)
		}
		return out, nil
	}))
	srv.RegisterMeta("node.harvest_events", dataPath("node.harvest_events", func(params []any) (any, error) {
		id, run, err := nodeRunArgs(params)
		if err != nil {
			return nil, err
		}
		mgr := h.x.Managers[id]
		if mgr == nil {
			return nil, fmt.Errorf("no node %q", id)
		}
		var events []eventlog.Event
		s.InjectWait("rpc harvest_events", func() { events = mgr.HarvestEvents(run) })
		var buf []byte
		for i := range events {
			if buf, err = store.AppendEventLine(buf, &events[i]); err != nil {
				return nil, err
			}
		}
		return string(buf), nil
	}))
	srv.RegisterMeta("node.harvest_packets", dataPath("node.harvest_packets", func(params []any) (any, error) {
		id, ok := xmlrpc.Arg[string](params, 0)
		if !ok {
			return nil, fmt.Errorf("node.harvest_packets: want node")
		}
		mgr := h.x.Managers[id]
		if mgr == nil {
			return nil, fmt.Errorf("no node %q", id)
		}
		// The harvest owns its memory (node.Manager.HarvestPackets), so it is
		// encoded here, off the scheduler: the emulation does not wait for
		// encoding/json.
		var pkts []store.PacketRecord
		s.InjectWait("rpc harvest_packets", func() { pkts = mgr.HarvestPackets() })
		data, err := json.Marshal(pkts)
		if err != nil {
			return nil, err
		}
		return string(data), nil
	}))
	srv.RegisterMeta("node.harvest_extras", dataPath("node.harvest_extras", func(params []any) (any, error) {
		id, ok := xmlrpc.Arg[string](params, 0)
		if !ok {
			return nil, fmt.Errorf("node.harvest_extras: want node")
		}
		mgr := h.x.Managers[id]
		if mgr == nil {
			return nil, fmt.Errorf("no node %q", id)
		}
		var data []byte
		var jerr error
		s.InjectWait("rpc harvest_extras", func() {
			data, jerr = json.Marshal(mgr.HarvestExtras())
		})
		if jerr != nil {
			return nil, jerr
		}
		return string(data), nil
	}))
	srv.RegisterMeta("env.execute", dataPath("env.execute", h.carrying(func(params []any) error {
		action, ok := xmlrpc.Arg[string](params, 0)
		if !ok {
			return fmt.Errorf("env.execute: want (action, params)")
		}
		pm := map[string]string{}
		if raw, ok := xmlrpc.Arg[map[string]any](params, 1); ok {
			for k, v := range raw {
				pm[k] = fmt.Sprint(v)
			}
		}
		var execErr error
		s.InjectWait("rpc env "+action, func() { execErr = h.x.Env.Execute(action, pm) })
		return execErr
	})))
	srv.RegisterMeta("env.reset", dataPath("env.reset", h.carrying(func(params []any) error {
		s.InjectWait("rpc env reset", func() { h.x.Env.Reset() })
		return nil
	})))
	// host.harvest_trace returns the host tracer's closed spans of one run
	// as a trace.json document; the master merges them (dedup'd by span id)
	// into the per-run level-2 trace artifact.
	srv.RegisterMeta("host.harvest_trace", h.fenced("host.harvest_trace", func(params []any) (any, error) {
		run, ok := xmlrpc.Arg[int](params, 0)
		if !ok {
			return nil, fmt.Errorf("host.harvest_trace: want run")
		}
		return string(obs.MarshalSpans(h.tracer.RunSpans(run))), nil
	}))
	// host.obs_snapshot ships the host's metric registry — including the
	// emulator data-path series of internal/netem and internal/sched — to
	// the master's campaign fan-in as a JSON []obs.MetricPoint.
	srv.RegisterMeta("host.obs_snapshot", h.fenced("host.obs_snapshot", func(params []any) (any, error) {
		data, err := json.Marshal(h.obs.Snapshot())
		if err != nil {
			return nil, err
		}
		return string(data), nil
	}))
	return srv
}

// nodesArg resolves the node-id list the broadcast methods take first.
// The call is refused as a whole, before any node is touched, when the
// list is empty or names an unknown or repeated id; the error names it.
func (h *Host) nodesArg(params []any) ([]*node.Manager, error) {
	ids, ok := xmlrpc.Arg[[]any](params, 0)
	if !ok || len(ids) == 0 {
		return nil, fmt.Errorf("want a list of node ids first")
	}
	mgrs := make([]*node.Manager, len(ids))
	seen := make(map[string]bool, len(ids))
	for i, v := range ids {
		id, _ := v.(string)
		if mgrs[i] = h.x.Managers[id]; mgrs[i] == nil {
			return nil, fmt.Errorf("no node %q", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("node %q listed twice", id)
		}
		seen[id] = true
	}
	return mgrs, nil
}

func nodeRunArgs(params []any) (string, int, error) {
	id, ok := xmlrpc.Arg[string](params, 0)
	run, ok2 := xmlrpc.Arg[int](params, 1)
	if !ok || !ok2 {
		return "", 0, fmt.Errorf("want (node string, run int)")
	}
	return id, run, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
