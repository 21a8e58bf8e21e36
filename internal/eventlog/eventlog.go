// Package eventlog implements ExCovery's event measurement concept
// (§IV-B1) and the event-based flow control it supports (§IV-C2).
//
// State changes on nodes are recorded as events: each event carries the node
// it occurred on, a local timestamp taken from that node's clock, an event
// type and optional parameters. Nodes keep their own Recorder (the paper's
// per-node temporary storage); the experiment master aggregates reported
// events in a Bus, against which processes synchronize with wait_for_event
// and wait_marker.
package eventlog

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"excovery/internal/obs"
	"excovery/internal/sched"
	"excovery/internal/vclock"
)

// Event is a recorded state change (§IV-B1).
type Event struct {
	// Run identifies the experiment run the event belongs to; -1 marks
	// experiment-scoped events outside any run.
	Run int
	// Node is the identifier of the node the event occurred on.
	Node string
	// Time is the local timestamp of the originating node.
	Time time.Time
	// Type names the state change, e.g. "sd_service_add".
	Type string
	// Params carries additional event parameters, e.g. the identifier of
	// a discovered service. Copies of an event share the map — the
	// recorder, the bus, the run report and OnEvent hooks all hold it — so
	// it is read-only once emitted, and an emitter may pass one map to
	// several events.
	Params map[string]string
	// Seq is the global arrival order at the master's Bus. It is assigned
	// by the Bus, not the recorder.
	Seq uint64
}

// Param returns the named parameter or "".
func (e Event) Param(k string) string { return e.Params[k] }

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[run %d] %s@%s %s", e.Run, e.Type, e.Node, e.Time.Format("15:04:05.000000"))
	if len(e.Params) > 0 {
		keys := make([]string, 0, len(e.Params))
		for k := range e.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%s", k, e.Params[k])
		}
		b.WriteString("}")
	}
	return b.String()
}

// Match selects events in wait_for_event dependencies. Zero fields match
// anything, mirroring the paper's "if omitted, they default to any".
type Match struct {
	// Type is the required event type; empty matches any type.
	Type string
	// Nodes restricts the originating node to this set (the paper's
	// location dependency: a single abstract node or the nodes bound to an
	// actor role); empty matches any node.
	Nodes []string
	// Params are required parameter values; a parameter mapped to "" only
	// requires presence. Events may carry additional parameters.
	Params map[string]string
}

// Matches reports whether ev satisfies the match.
func (m Match) Matches(ev Event) bool {
	if m.Type != "" && ev.Type != m.Type {
		return false
	}
	if len(m.Nodes) > 0 {
		ok := false
		for _, n := range m.Nodes {
			if ev.Node == n {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for k, v := range m.Params {
		got, present := ev.Params[k]
		if !present {
			return false
		}
		if v != "" && got != v {
			return false
		}
	}
	return true
}

// Recorder is a node's local event store (the paper's temporary storage
// until the master collects a run, §IV-B1). Events are timestamped with the
// node's local clock and optionally forwarded to the master's Bus via the
// report hook (the dedicated control channel of §IV-A1).
//
// A recorder holds the events of the run it is recording plus the
// experiment-scoped ones (run -1): moving to another run releases the
// previous run's events. Both harvest sites read a run before the next
// PrepareRun moves its recorder on.
type Recorder struct {
	node   string
	clock  vclock.Clock
	run    int
	events []Event
	report func(Event)
}

// NewRecorder creates a recorder for a node. report may be nil.
func NewRecorder(node string, clock vclock.Clock, report func(Event)) *Recorder {
	return &Recorder{node: node, clock: clock, run: -1, report: report}
}

// SetRun sets the run identifier stamped on subsequent events. Run -1 marks
// experiment-scoped events and releases nothing. Any other run that is not
// the current one releases the events of every run but -1; setting the
// current run again (an in-place retry) keeps its earlier attempts.
func (r *Recorder) SetRun(run int) {
	if run >= 0 && run != r.run {
		kept := r.events[:0]
		for _, ev := range r.events {
			if ev.Run == -1 {
				kept = append(kept, ev)
			}
		}
		clear(r.events[len(kept):])
		r.events = kept
	}
	r.run = run
}

// Run returns the current run identifier.
func (r *Recorder) Run() int { return r.run }

// Node returns the recorder's node identifier.
func (r *Recorder) Node() string { return r.node }

// Emit records an event with the node's local timestamp and forwards it to
// the master.
func (r *Recorder) Emit(typ string, params map[string]string) Event {
	ev := Event{
		Run:    r.run,
		Node:   r.node,
		Time:   r.clock.Now(),
		Type:   typ,
		Params: params,
	}
	r.events = append(r.events, ev)
	if r.report != nil {
		r.report(ev)
	}
	return ev
}

// RunEvents returns the held events of one run, in recording order, as a
// copy; a run the recorder has moved past returns none. Its cost is the
// held log: one run plus the experiment-scoped events.
func (r *Recorder) RunEvents(run int) []Event {
	n := 0
	for i := range r.events {
		if r.events[i].Run == run {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, ev := range r.events {
		if ev.Run == run {
			out = append(out, ev)
		}
	}
	return out
}

// Bus is the master-side aggregation of reported events. Processes block on
// it with WaitFor; wait_marker corresponds to taking Marker() and passing it
// as the from argument of the next WaitFor.
type Bus struct {
	s      *sched.Scheduler
	cond   *sched.Cond
	events []Event
	seq    uint64
	epoch  uint64 // incremented by CancelWaiters; pending waits give up

	// Throughput instrumentation (nil-safe: unset without Instrument).
	// The counters are atomic, so the obs HTTP handlers read them from
	// foreign goroutines while the bus mutates in scheduler context.
	mPublished *obs.Counter
	mResets    *obs.Counter
	mCancels   *obs.Counter
	mLen       *obs.Gauge
}

// NewBus creates an empty bus on the scheduler.
func NewBus(s *sched.Scheduler) *Bus {
	return &Bus{s: s, cond: s.NewCond("eventbus")}
}

// Instrument registers the bus's throughput metrics in reg. Call before
// execution starts; a nil registry keeps the bus uninstrumented.
func (b *Bus) Instrument(reg *obs.Registry) {
	b.mPublished = reg.Counter(obs.MEventbusPublished,
		"events published to the master's bus")
	b.mResets = reg.Counter(obs.MEventbusResets,
		"bus resets (one per run preparation)")
	b.mCancels = reg.Counter(obs.MEventbusCancelWaiters,
		"CancelWaiters broadcasts (run aborts)")
	b.mLen = reg.Gauge(obs.MEventbusLen,
		"events currently held by the bus (current run)")
}

// Publish stores the event, assigns its global sequence number and wakes all
// waiters. It must run in scheduler task context.
func (b *Bus) Publish(ev Event) Event {
	b.seq++
	ev.Seq = b.seq
	b.events = append(b.events, ev)
	b.mPublished.Inc()
	b.mLen.Set(int64(len(b.events)))
	b.cond.Broadcast()
	return ev
}

// Marker returns the current position in the event stream. A subsequent
// WaitFor with this marker considers only events published after it
// (§IV-C2, wait_marker).
func (b *Bus) Marker() uint64 { return b.seq }

// Events returns all published events. The slice is the bus's own backing
// array, which the next run overwrites after Reset; keep a Snapshot instead.
func (b *Bus) Events() []Event { return b.events }

// Snapshot returns a copy of all published events, detached from the
// bus's backing array (which Reset reuses between runs). The copy is
// exact-size — a run's event count is known here, so there is no reason
// to pay append's doubling growth. Returns nil when no events were
// published, matching append([]Event(nil), ...) semantics.
func (b *Bus) Snapshot() []Event {
	if len(b.events) == 0 {
		return nil
	}
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// Len returns the number of published events.
func (b *Bus) Len() int { return len(b.events) }

// Reset discards all events and restarts sequence numbering. The backing
// array is cleared and kept, so the next run publishes without regrowing it.
func (b *Bus) Reset() {
	clear(b.events)
	b.events = b.events[:0]
	b.seq = 0
	b.mResets.Inc()
	b.mLen.Set(0)
}

// CancelWaiters aborts every pending WaitFor/WaitForDistinct: the waits
// return unsuccessfully at their next wake-up. The master uses it when a
// run is aborted so orphaned process tasks cannot linger into later runs.
func (b *Bus) CancelWaiters() {
	b.epoch++
	b.mCancels.Inc()
	b.cond.Broadcast()
}

// WaitFor blocks the calling task until an event with Seq > from matches m,
// or until timeout elapses (timeout <= 0 means wait forever). On success it
// returns the first matching event. It implements wait_for_event (§IV-C2).
func (b *Bus) WaitFor(m Match, from uint64, timeout time.Duration) (Event, bool) {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = b.s.Now().Add(timeout)
	}
	epoch := b.epoch
	next := from
	for {
		if b.epoch != epoch {
			return Event{}, false
		}
		for _, ev := range b.since(next) {
			next = ev.Seq
			if m.Matches(ev) {
				return ev, true
			}
		}
		if !deadline.IsZero() {
			remain := deadline.Sub(b.s.Now())
			if remain <= 0 {
				return Event{}, false
			}
			if !b.cond.WaitTimeout(remain) && b.seq == next {
				return Event{}, false
			}
		} else {
			b.cond.Wait()
		}
	}
}

// WaitForDistinct blocks until, counting events with Seq > from that match
// m, the set of observed values of param key covers want. It returns the
// matched events in arrival order (one per distinct value) and true on
// success, or the partial set and false on timeout. This implements waiting
// for an event "from all instances" with a parameter covering a node set
// (Fig. 10: all SMs discovered).
func (b *Bus) WaitForDistinct(m Match, key string, want []string, from uint64, timeout time.Duration) ([]Event, bool) {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = b.s.Now().Add(timeout)
	}
	missing := make(map[string]bool, len(want))
	for _, w := range want {
		missing[w] = true
	}
	epoch := b.epoch
	var got []Event
	next := from
	for {
		if b.epoch != epoch {
			return got, false
		}
		for _, ev := range b.since(next) {
			next = ev.Seq
			if !m.Matches(ev) {
				continue
			}
			v := ev.Params[key]
			if missing[v] {
				delete(missing, v)
				got = append(got, ev)
			}
		}
		if len(missing) == 0 {
			return got, true
		}
		if !deadline.IsZero() {
			remain := deadline.Sub(b.s.Now())
			if remain <= 0 {
				return got, false
			}
			b.cond.WaitTimeout(remain)
		} else {
			b.cond.Wait()
		}
	}
}

// since returns events with Seq > from. Sequence numbers are dense (1,2,…)
// so the slice offset is computed directly.
func (b *Bus) since(from uint64) []Event {
	if len(b.events) == 0 {
		return nil
	}
	first := b.events[0].Seq
	idx := int(from - first + 1)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(b.events) {
		return nil
	}
	return b.events[idx:]
}

// FindFirst scans the published history (without blocking) and returns the
// first event matching m. Analysis helpers use it after execution.
func (b *Bus) FindFirst(m Match) (Event, bool) {
	for _, ev := range b.events {
		if m.Matches(ev) {
			return ev, true
		}
	}
	return Event{}, false
}
