// Package obs is the framework's own observability layer: while ExCovery's
// measurement concept (§IV-B) instruments the system under study, obs
// instruments the experimentation environment itself — the master, the
// node hosts and the control channel between them.
//
// It provides three building blocks, all standard-library only and all
// nil-safe (a nil *Registry, *Tracer or *Status turns every call into a
// no-op, so instrumentation points need no guards):
//
//   - a metrics Registry of counters, gauges and latency histograms with
//     Prometheus text-format exposition;
//   - a span Tracer recording the hierarchical execution structure of an
//     experiment (experiment → run → phase → action/RPC call),
//     exportable as Chrome trace_event JSON;
//   - a live Status of the executing experiment (current run, treatment,
//     phase, per-node health), served as JSON.
//
// The HTTP side (NewMux, Serve) exposes /metrics, /healthz, /status and
// net/http/pprof on an opt-in listener (-obs-addr on the CLIs).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative values are ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefLatencyBuckets are the default histogram bounds for control-channel
// latencies, in seconds: 1 ms up to 30 s, roughly exponential.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket latency histogram (cumulative buckets in the
// Prometheus sense). All methods are safe for concurrent use and no-ops on
// a nil receiver.
type Histogram struct {
	bounds []float64 // upper bounds, ascending
	counts []atomic.Int64
	count  atomic.Int64
	sumUs  atomic.Int64 // sum of observations in microseconds
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation in seconds.
func (h *Histogram) Observe(seconds float64) {
	if h == nil || math.IsNaN(seconds) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumUs.Add(int64(seconds * 1e6))
}

// ObserveDuration records one observation from a duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations in seconds.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumUs.Load()) / 1e6
}

// metric is one registered instrument with its resolved labels.
type metric struct {
	labels string   // canonical rendered label set, `k="v",...` or ""
	pairs  []string // the original alternating key/value pairs
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all label variants of one metric name.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	by   map[string]*metric
	keys []string // insertion order of label sets
}

// Registry holds named metric families. The zero value is not usable; use
// NewRegistry. A nil *Registry is valid everywhere and yields nil
// instruments, whose methods are all no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString canonicalizes key/value pairs; keys are sorted.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// get returns the metric for name+labels, creating family and instrument on
// first use. labels are alternating key/value pairs.
func (r *Registry) get(name, help, typ string, labels []string) *metric {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, by: map[string]*metric{}}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	}
	m := f.by[ls]
	if m == nil {
		m = &metric{labels: ls, pairs: append([]string(nil), labels...)}
		f.by[ls] = m
		f.keys = append(f.keys, ls)
		sort.Strings(f.keys)
	}
	return m
}

// Counter returns (creating on first use) the counter name{labels...}.
// labels are alternating key/value pairs, e.g. ("method", "node.execute").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	m := r.get(name, help, "counter", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns (creating on first use) the gauge name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.get(name, help, "gauge", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns (creating on first use) the histogram name{labels...}
// with the given bucket bounds (nil means DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.get(name, help, "histogram", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.h == nil {
		m.h = newHistogram(bounds)
	}
	return m.h
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		r.mu.Lock()
		keys := append([]string(nil), f.keys...)
		ms := make([]*metric, len(keys))
		for i, k := range keys {
			ms[i] = f.by[k]
		}
		r.mu.Unlock()
		for _, m := range ms {
			if err := writeMetric(w, f, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeMetric(w io.Writer, f *family, m *metric) error {
	series := func(name, extra string, v string) error {
		lbl := m.labels
		if extra != "" {
			if lbl != "" {
				lbl += ","
			}
			lbl += extra
		}
		if lbl != "" {
			lbl = "{" + lbl + "}"
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, lbl, v)
		return err
	}
	switch f.typ {
	case "counter":
		return series(f.name, "", fmt.Sprint(m.c.Value()))
	case "gauge":
		return series(f.name, "", fmt.Sprint(m.g.Value()))
	case "histogram":
		h := m.h
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			if err := series(f.name+"_bucket", fmt.Sprintf(`le="%g"`, b), fmt.Sprint(cum)); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if err := series(f.name+"_bucket", `le="+Inf"`, fmt.Sprint(cum)); err != nil {
			return err
		}
		if err := series(f.name+"_sum", "", fmt.Sprintf("%g", h.Sum())); err != nil {
			return err
		}
		return series(f.name+"_count", "", fmt.Sprint(h.Count()))
	}
	return nil
}

// MetricPoint is one sample of a registry Snapshot — the JSON-friendly
// unit the campaign fan-in ships from a node host to the master. Labels
// are the original alternating key/value pairs, so the master can re-label
// (adding a node=... pair) without parsing the rendered form. Histograms
// flatten into two counter points, <name>_count and <name>_sum_seconds.
type MetricPoint struct {
	Name   string   `json:"name"`
	Type   string   `json:"type"` // "counter" or "gauge"
	Help   string   `json:"help,omitempty"`
	Labels []string `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// Snapshot returns every registered series as a flat, deterministic list
// (families sorted by name, series by canonical label set). A nil registry
// snapshots to nil.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []MetricPoint
	for _, name := range r.names {
		f := r.families[name]
		for _, k := range f.keys {
			m := f.by[k]
			switch {
			case m.c != nil:
				out = append(out, MetricPoint{Name: f.name, Type: "counter",
					Help: f.help, Labels: m.pairs, Value: float64(m.c.Value())})
			case m.g != nil:
				out = append(out, MetricPoint{Name: f.name, Type: "gauge",
					Help: f.help, Labels: m.pairs, Value: float64(m.g.Value())})
			case m.h != nil:
				out = append(out,
					MetricPoint{Name: f.name + "_count", Type: "counter",
						Help: f.help, Labels: m.pairs, Value: float64(m.h.Count())},
					MetricPoint{Name: f.name + "_sum_seconds", Type: "counter",
						Help: f.help, Labels: m.pairs, Value: m.h.Sum()})
			}
		}
	}
	return out
}

// CounterValue returns the current value of a registered counter series (0
// when absent) — a test and consistency-check helper.
func (r *Registry) CounterValue(name string, labels ...string) int64 {
	if r == nil {
		return 0
	}
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		return 0
	}
	m := f.by[ls]
	if m == nil || m.c == nil {
		return 0
	}
	return m.c.Value()
}

// CounterTotal sums a counter family across all label sets.
func (r *Registry) CounterTotal(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		return 0
	}
	var total int64
	for _, m := range f.by {
		if m.c != nil {
			total += m.c.Value()
		}
	}
	return total
}

// HistogramTotal sums a histogram family's observation counts across all
// label sets.
func (r *Registry) HistogramTotal(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		return 0
	}
	var total int64
	for _, m := range f.by {
		if m.h != nil {
			total += m.h.Count()
		}
	}
	return total
}
