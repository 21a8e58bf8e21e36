package master

import (
	"errors"
	"strings"
	"sync"
	"time"
)

// fanOut runs fn(slot) for every slot in [0, n), bounded to at most limit
// concurrent invocations. With limit <= 1 (or fewer than two slots) the
// calls run strictly sequentially in the caller's context — no goroutines
// at all — which is the required mode for platforms whose node handles
// are not safe for concurrent use (the in-process emulated platform
// publishes into the cooperative scheduler's event bus from its handles).
//
// With limit > 1 the slots run on real goroutines. Callers must hand out
// disjoint slot-indexed result storage so collected measurements keep the
// deterministic node order of the sequential path; fanOut itself
// guarantees only that all invocations finished when it returns.
// Blocking the calling scheduler task here is no worse than today's
// blocking sequential RPC: the cooperative scheduler stalls either way
// for the duration of the slowest call instead of the sum of all calls.
func fanOut(limit, n int, fn func(slot int)) {
	if limit <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if limit > n {
		limit = n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, limit)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(slot int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(slot)
		}(i)
	}
	wg.Wait()
}

// hostGroup is the nodes one broadcast call covers: every hostMember
// handle of one backing host, or a single handle without the extension.
type hostGroup struct {
	// key names the backing host (the members' ObsSource), or the node id
	// of a group of one plain handle.
	key string
	// name labels the group's master rpc spans: its node ids.
	name    string
	slots   []int // positions in Master.order, ascending
	ids     []string
	handles []NodeHandle
	// host is the first member's extension, nil for a plain handle.
	host hostMember
	// now is a plain handle's time-sync sample buffer.
	now [1]time.Time
}

// errNoLocalTime marks a plain handle's failed clock read: NodeHandle's
// LocalTime has no error result, so the zero time is its failure.
var errNoLocalTime = errors.New("master: node returned no local time")

// health probes the group; probed is false for a plain handle that is no
// HealthChecker.
func (g *hostGroup) health() (probed bool, err error) {
	if g.host != nil {
		return true, g.host.GroupHealth(g.handles)
	}
	if hc, ok := g.handles[0].(HealthChecker); ok {
		return true, hc.Health()
	}
	return false, nil
}

func (g *hostGroup) prepareRun(run int) {
	if g.host != nil {
		g.host.GroupPrepareRun(g.handles, run)
		return
	}
	g.handles[0].PrepareRun(run)
}

func (g *hostGroup) cleanupRun(run int) {
	if g.host != nil {
		g.host.GroupCleanupRun(g.handles, run)
		return
	}
	g.handles[0].CleanupRun(run)
}

// localTime is the group's time-sync probe (timesync.Probe).
func (g *hostGroup) localTime() ([]time.Time, error) {
	if g.host != nil {
		return g.host.GroupLocalTime(g.handles)
	}
	g.now[0] = g.handles[0].LocalTime()
	if g.now[0].IsZero() {
		return nil, errNoLocalTime
	}
	return g.now[:], nil
}

// groupByHost partitions the node order into broadcast groups: hostMember
// handles with equal ObsSource form one group, every other handle is a
// group of one. Groups are ordered by their first node. Called in New and
// whenever a failover swaps the handles.
func (m *Master) groupByHost() {
	m.groups = m.groups[:0]
	byHost := map[string]*hostGroup{}
	for slot, id := range m.order {
		h := m.cfg.Nodes[id]
		hm, ok := h.(hostMember)
		if !ok {
			m.groups = append(m.groups, &hostGroup{key: id,
				slots: []int{slot}, ids: []string{id}, handles: []NodeHandle{h}})
			continue
		}
		key := hm.ObsSource()
		g := byHost[key]
		if g == nil {
			g = &hostGroup{key: key, host: hm}
			byHost[key] = g
			m.groups = append(m.groups, g)
		}
		g.slots = append(g.slots, slot)
		g.ids = append(g.ids, id)
		g.handles = append(g.handles, h)
	}
	for _, g := range m.groups {
		g.name = strings.Join(g.ids, ",")
	}
}

// broadcast performs one control-plane operation per host group — the
// broadcast sites of a run with spans of their own are PrepareRun,
// timesync Measure and CleanupRun (the preflight probes parent under the
// prepare phase). Each group call gets one master rpc span, handed to the
// group's first handle as the trace parent its call carries to the host.
// Sequentially (Fanout <= 1) the groups go out in node order, each span
// opened and closed around its call. In parallel the spans are first
// opened in group order (RunSpans returns begin order, so trace.json keeps
// the sequential layout; under the virtual clock the timestamps are
// identical too) and the calls then fan out across groups, each goroutine
// closing its own span — the spans become siblings under the phase span.
func (m *Master) broadcast(parent uint64, label string, run, attempt int, op func(g *hostGroup)) {
	if m.cfg.Fanout <= 1 || len(m.groups) < 2 {
		for _, g := range m.groups {
			sp := m.rpcSpan(parent, label, g, run, attempt)
			setTraceParent(g.handles[0], sp)
			op(g)
			m.cfg.Tracer.End(sp)
		}
		return
	}
	spans := make([]uint64, len(m.groups))
	for i, g := range m.groups {
		spans[i] = m.rpcSpan(parent, label, g, run, attempt)
	}
	fanOut(m.cfg.Fanout, len(m.groups), func(i int) {
		g := m.groups[i]
		setTraceParent(g.handles[0], spans[i])
		op(g)
		m.cfg.Tracer.End(spans[i])
	})
}

// rpcSpan opens the master rpc span of one group call; without a tracer it
// is 0 and its name is never built.
func (m *Master) rpcSpan(parent uint64, label string, g *hostGroup, run, attempt int) uint64 {
	if m.cfg.Tracer == nil {
		return 0
	}
	return m.cfg.Tracer.Begin(parent, "master", "rpc", label+" "+g.name, run, attempt, nil)
}
