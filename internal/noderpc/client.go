package noderpc

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// RemoteNode is the master-process proxy of one node on a host; it
// implements master.NodeHandle over XML-RPC. Transport errors of the
// infallible parts of the NodeHandle contract are accounted per run:
// PrepareRun clears the previous run's error, so one transient failure no
// longer poisons the proxy for the rest of the experiment.
//
// It also implements the master's host-group extension: proxies of one
// host (equal ObsSource) are driven together, and the four broadcast
// phases of a run — ping, prepare, local time, clean-up — go out as one
// call naming every node of the group. The per-node methods are the same
// calls with a list of one.
//
// The node events a host records while serving a prepare, execute, emit or
// clean-up call come back in the call's reply. They wait in the proxy that
// made the call, the first member's for a group call, until the master
// takes them (TakeEvents).
type RemoteNode struct {
	// NodeID is the platform node id on the host.
	NodeID string
	// C is the host's XML-RPC endpoint.
	C *xmlrpc.Client

	mu     sync.Mutex
	runErr error
	meta   xmlrpc.Meta
	carried
}

// proxied is satisfied by *RemoteNode and by every handle that embeds one
// (a timing or recording decorator), so such handles take part in host
// groups with their own error accounting.
type proxied interface{ proxy() *RemoteNode }

func (r *RemoteNode) proxy() *RemoteNode { return r }

// members returns the node ids of a host group and the proxies whose
// per-run error windows its calls account to.
func members(group []master.NodeHandle) ([]string, []*RemoteNode) {
	ids := make([]string, len(group))
	rs := make([]*RemoteNode, 0, len(group))
	for i, h := range group {
		ids[i] = h.ID()
		if p, ok := h.(proxied); ok {
			rs = append(rs, p.proxy())
		}
	}
	return ids, rs
}

// SetTraceParent sets the master-side span id attached to every subsequent
// RPC of this proxy as call metadata, so the host's request spans parent
// under the master's run/phase tree (DESIGN.md §13). The master updates it
// at each broadcast site; zero detaches.
func (r *RemoteNode) SetTraceParent(id uint64) {
	r.mu.Lock()
	r.meta.TraceParent = id
	r.mu.Unlock()
}

// SetFenceEpoch attaches a registry claim epoch to every subsequent RPC of
// this proxy as call metadata (DESIGN.md §14): the host refuses the call
// once a newer claim has taken the host over, so a master that lost its
// claim cannot keep driving the node. Zero (static wiring) detaches.
func (r *RemoteNode) SetFenceEpoch(epoch int64) {
	r.mu.Lock()
	r.meta.FenceEpoch = epoch
	r.mu.Unlock()
}

// call issues one control-channel RPC under the proxy's current metadata.
func (r *RemoteNode) call(method string, params ...any) (any, error) {
	r.mu.Lock()
	meta := r.meta
	r.mu.Unlock()
	return r.C.CallMeta(method, meta, params...)
}

// carried holds the node events that the replies of a proxy's calls
// carried, until the master takes them.
type carried struct {
	mu  sync.Mutex
	evs []eventlog.Event
}

// keep decodes the reply v of an event-carrying call — a string of event
// lines, empty when the call recorded none — and keeps its events. err is
// the call's, and returned as is.
func (c *carried) keep(v any, err error) error {
	if err != nil {
		return err
	}
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("want event lines, got %T", v)
	}
	if s == "" {
		return nil
	}
	evs, err := store.ParseEventLines([]byte(s))
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.evs = append(c.evs, evs...)
	c.mu.Unlock()
	return nil
}

// TakeEvents implements the master's event-carrier extension: it returns
// the events that the replies of the proxy's calls carried since the last
// take, in record order.
func (c *carried) TakeEvents() []eventlog.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	evs := c.evs
	c.evs = nil
	return evs
}

func (r *RemoteNode) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.runErr == nil {
		r.runErr = err
	}
}

// Err returns the first transport error of the current run (nil when the
// control channel has been healthy since the last PrepareRun). The master
// reads it after each run and fails a run whose measurements went missing.
func (r *RemoteNode) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runErr
}

// Health implements master.HealthChecker: a node-scoped ping over the
// control channel, used by the master's preflight check.
func (r *RemoteNode) Health() error {
	return r.GroupHealth([]master.NodeHandle{r})
}

// GroupHealth pings every node of a host group in one node.ping.
func (r *RemoteNode) GroupHealth(group []master.NodeHandle) error {
	ids, _ := members(group)
	_, err := r.call("node.ping", ids)
	return err
}

// ID implements master.NodeHandle.
func (r *RemoteNode) ID() string { return r.NodeID }

// PrepareRun implements master.NodeHandle. It opens a fresh error-
// accounting window before touching the wire.
func (r *RemoteNode) PrepareRun(run int) {
	r.GroupPrepareRun([]master.NodeHandle{r}, run)
}

// GroupPrepareRun prepares every node of a host group in one
// node.prepare_run. Each member's error window opens before the call, and
// a failed call lands in every member's window.
func (r *RemoteNode) GroupPrepareRun(group []master.NodeHandle, run int) {
	ids, rs := members(group)
	for _, m := range rs {
		m.mu.Lock()
		m.runErr = nil
		m.mu.Unlock()
	}
	v, err := r.call("node.prepare_run", ids, run)
	failAll(rs, r.keep(v, err))
}

// CleanupRun implements master.NodeHandle.
func (r *RemoteNode) CleanupRun(run int) {
	r.GroupCleanupRun([]master.NodeHandle{r}, run)
}

// GroupCleanupRun ends the run on every node of a host group in one
// node.cleanup_run; a failed call lands in every member's error window.
func (r *RemoteNode) GroupCleanupRun(group []master.NodeHandle, run int) {
	ids, rs := members(group)
	v, err := r.call("node.cleanup_run", ids, run)
	failAll(rs, r.keep(v, err))
}

func failAll(rs []*RemoteNode, err error) {
	for _, m := range rs {
		m.fail(err)
	}
}

// Execute implements master.NodeHandle.
func (r *RemoteNode) Execute(action string, params map[string]string) error {
	v, err := r.call("node.execute", r.NodeID, action, params)
	return r.keep(v, err)
}

// Emit implements master.NodeHandle.
func (r *RemoteNode) Emit(typ string, params map[string]string) {
	if params == nil {
		params = map[string]string{}
	}
	v, err := r.call("node.emit", r.NodeID, typ, params)
	r.fail(r.keep(v, err))
}

// LocalTime implements master.NodeHandle: the zero time when the clock
// could not be read.
func (r *RemoteNode) LocalTime() time.Time {
	times, err := r.GroupLocalTime([]master.NodeHandle{r})
	if err != nil {
		return time.Time{}
	}
	return times[0]
}

// GroupLocalTime reads the clocks of every node of a host group in one
// node.local_time, one time per member in group order; RFC3339Nano over the
// wire keeps sub-second resolution that plain XML-RPC dateTime lacks. A
// failed call or a malformed reply lands in every member's error window.
func (r *RemoteNode) GroupLocalTime(group []master.NodeHandle) ([]time.Time, error) {
	ids, rs := members(group)
	v, err := r.call("node.local_time", ids)
	var times []time.Time
	if err == nil {
		times, err = parseTimes(v, len(ids))
	}
	if err != nil {
		failAll(rs, err)
		return nil, err
	}
	return times, nil
}

// parseTimes decodes node.local_time's reply for n nodes.
func parseTimes(v any, n int) ([]time.Time, error) {
	raw, ok := v.([]any)
	if !ok || len(raw) != n {
		return nil, fmt.Errorf("node.local_time: want %d times, got %v", n, v)
	}
	times := make([]time.Time, n)
	for i, x := range raw {
		s, _ := x.(string)
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return nil, fmt.Errorf("node.local_time: %w", err)
		}
		times[i] = t
	}
	return times, nil
}

// HarvestEvents implements master.NodeHandle.
func (r *RemoteNode) HarvestEvents(run int) []eventlog.Event {
	v, err := r.call("node.harvest_events", r.NodeID, run)
	if err != nil {
		r.fail(err)
		return nil
	}
	s, _ := v.(string)
	events, err := store.ParseEventLines([]byte(s))
	if err != nil {
		r.fail(err)
		return nil
	}
	return events
}

// HarvestPackets implements master.NodeHandle.
func (r *RemoteNode) HarvestPackets() []store.PacketRecord {
	v, err := r.call("node.harvest_packets", r.NodeID)
	if err != nil {
		r.fail(err)
		return nil
	}
	s, _ := v.(string)
	var pkts []store.PacketRecord
	if err := json.Unmarshal([]byte(s), &pkts); err != nil {
		r.fail(err)
		return nil
	}
	return pkts
}

// HarvestExtras implements master.NodeHandle.
func (r *RemoteNode) HarvestExtras() []store.ExtraMeasurement {
	v, err := r.call("node.harvest_extras", r.NodeID)
	if err != nil {
		r.fail(err)
		return nil
	}
	s, _ := v.(string)
	var extras []store.ExtraMeasurement
	if err := json.Unmarshal([]byte(s), &extras); err != nil {
		r.fail(err)
		return nil
	}
	return extras
}

// HarvestTrace implements the master's optional trace-harvest extension:
// it fetches the host tracer's closed spans of one run for merging into the
// per-run trace.json artifact. Best-effort — transport or decode errors
// yield nil without poisoning the run's error accounting.
func (r *RemoteNode) HarvestTrace(run int) []obs.Span {
	v, err := r.call("host.harvest_trace", run)
	if err != nil {
		return nil
	}
	s, _ := v.(string)
	spans, err := obs.UnmarshalSpans([]byte(s))
	if err != nil {
		return nil
	}
	return spans
}

// ObsSnapshot implements the master's campaign fan-in extension: one RPC
// fetches the host's full metric registry as a flat sample list.
func (r *RemoteNode) ObsSnapshot() ([]obs.MetricPoint, error) {
	v, err := r.call("host.obs_snapshot")
	if err != nil {
		return nil, err
	}
	s, _ := v.(string)
	var pts []obs.MetricPoint
	if err := json.Unmarshal([]byte(s), &pts); err != nil {
		return nil, err
	}
	return pts, nil
}

// ObsSource identifies the host behind this proxy: the master groups
// proxies by it, so the broadcast phases, the registry fan-in and the trace
// harvest each make one call per host however many nodes it serves.
func (r *RemoteNode) ObsSource() string { return r.C.URL }

// RemoteEnv proxies environment actions to the host; it implements
// master.EnvExecutor. Like RemoteNode it keeps the first transport error
// of the current run, read through Err: the master resets the environment
// twice per attempt, to prepare the run and to clean it up, and the window
// opens at the first of the two. It also keeps the node events that its
// calls' replies carried, until the master takes them.
type RemoteEnv struct {
	C *xmlrpc.Client
	// Epoch, when positive, fences env RPCs like RemoteNode.SetFenceEpoch.
	Epoch int64

	mu       sync.Mutex
	runErr   error
	prepared bool // the last Reset prepared a run; the next cleans it up
	carried
}

// Execute implements master.EnvExecutor.
func (r *RemoteEnv) Execute(action string, params map[string]string) error {
	if params == nil {
		params = map[string]string{}
	}
	v, err := r.C.CallMeta("env.execute", xmlrpc.Meta{FenceEpoch: r.Epoch}, action, params)
	return r.keep(v, err)
}

// Reset implements master.EnvExecutor. A preparing reset opens a fresh
// error window; a failed reset of either kind lands in it.
func (r *RemoteEnv) Reset() {
	err := r.keep(r.C.CallMeta("env.reset", xmlrpc.Meta{FenceEpoch: r.Epoch}))
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.prepared {
		r.runErr = nil
	}
	r.prepared = !r.prepared
	if err != nil && r.runErr == nil {
		r.runErr = err
	}
}

// Err returns the first env.reset error since the run's preparing reset.
func (r *RemoteEnv) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runErr
}

// FetchNodes lists the platform node ids a host serves (host.nodes), with
// a bounded retry: a node host that is still assembling its platform when
// the master preflights it — the cold-start race of a fleet brought up by
// one script — answers after a beat instead of failing the campaign. The
// error names the host, the attempt budget and the last failure so the
// operator knows exactly which endpoint to look at.
func FetchNodes(c *xmlrpc.Client, attempts int, backoff time.Duration) ([]string, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
		}
		v, err := c.Call("host.nodes")
		if err != nil {
			lastErr = err
			continue
		}
		raw, ok := v.([]any)
		if !ok {
			lastErr = fmt.Errorf("host.nodes: unexpected reply %T", v)
			continue
		}
		ids := make([]string, 0, len(raw))
		for _, n := range raw {
			if s, ok := n.(string); ok {
				ids = append(ids, s)
			}
		}
		sort.Strings(ids)
		return ids, nil
	}
	return nil, fmt.Errorf("host %s: host.nodes failed after %d attempts: %w",
		c.URL, attempts, lastErr)
}

// MasterServer receives the event pushes of node hosts — the events
// recorded between calls — and publishes them into the master's bus via
// scheduler injection. A host answers node.cleanup_run only after its push
// on the wire was served, and the master yields once after the clean-up
// phase, so a run's pushes publish before its snapshot.
func MasterServer(s *sched.Scheduler, bus *eventlog.Bus) *xmlrpc.Server {
	srv := xmlrpc.NewServer()
	srv.Register("master.events", func(params []any) (any, error) {
		data, ok := xmlrpc.Arg[string](params, 0)
		if !ok {
			return nil, errBadArgs("master.events", "event lines string")
		}
		events, err := store.ParseEventLines([]byte(data))
		if err != nil {
			return nil, err
		}
		// Fire and forget: the push must not block the host's pump when
		// the master is already shutting down.
		s.Inject("rpc master.events", func() {
			for _, ev := range events {
				ev.Seq = 0 // bus assigns master-side sequence numbers
				bus.Publish(ev)
			}
		})
		return true, nil
	})
	return srv
}

func errBadArgs(method, want string) error {
	return &xmlrpc.Fault{Code: -32602, String: method + ": want " + want}
}
