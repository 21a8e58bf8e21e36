package master

import (
	"encoding/json"
	"sort"
	"strings"

	"excovery/internal/obs"
)

// harvestNodeTraces collects the node hosts' closed spans of one run via
// the optional traceHarvester extension: one RPC per host group, with a
// span-id dedup as a second line of defense. Must run in task context.
func (m *Master) harvestNodeTraces(run int) []obs.Span {
	var out []obs.Span
	seenID := map[uint64]bool{}
	for _, g := range m.groups {
		th, ok := g.handles[0].(traceHarvester)
		if !ok {
			continue
		}
		for _, sp := range th.HarvestTrace(run) {
			if sp.ID == 0 || seenID[sp.ID] {
				continue
			}
			seenID[sp.ID] = true
			out = append(out, sp)
		}
	}
	return out
}

// campaignDoc is the campaign_metrics.json level-2 artifact: one run's
// fan-in of every reporting host's metric registry, plus the fleet-wide
// rollup (series summed across hosts). encoding/json sorts the map keys,
// so the document is deterministic for a deterministic platform.
type campaignDoc struct {
	Run     int                        `json:"run"`
	Sources map[string]*campaignSource `json:"sources"`
	Fleet   map[string]float64         `json:"fleet"`
}

// campaignSource is one host's contribution: the node ids it serves and
// its registry snapshot.
type campaignSource struct {
	Nodes  []string          `json:"nodes"`
	Points []obs.MetricPoint `json:"points"`
}

// fanInMetrics performs the campaign metric fan-in at a run boundary: one
// host.obs_snapshot RPC per host group (via the optional metricSnapshotter
// extension), re-exported into the master's registry as gauges under
// MNodePrefix with a src label, summed into MFleetPrefix rollups, surfaced
// on /status, and returned as the run's campaign document (nil when no
// handle reports). Must run in task context.
func (m *Master) fanInMetrics(run int) *campaignDoc {
	sources := map[string]*campaignSource{}
	errs := 0
	for _, g := range m.groups {
		ms, ok := g.handles[0].(metricSnapshotter)
		if !ok {
			continue
		}
		pts, err := ms.ObsSnapshot()
		if err != nil {
			errs++
			m.counter(obs.MCampaignFaninErrors,
				"failed node metric snapshot collections").Inc()
			continue
		}
		sources[g.key] = &campaignSource{Nodes: g.ids, Points: filterFanIn(pts)}
	}
	if len(sources) == 0 && errs == 0 {
		return nil
	}
	m.counter(obs.MCampaignFanins,
		"campaign metric fan-in collections").Inc()
	m.cfg.Metrics.Gauge(obs.MCampaignNodesReporting,
		"node hosts that delivered a metric snapshot at the last fan-in").
		Set(int64(len(sources)))
	m.cfg.Status.FanIn(len(sources))

	// Sources are summed in host-key order: float addition is not
	// associative, so the order of the sum decides the fleet rollups'
	// bytes in campaign_metrics.json (TestFanInRollupIsByteIdentical).
	// Registration order does not matter: the registry sorts family
	// names and label sets itself.
	srcs := make([]string, 0, len(sources))
	for src := range sources {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	fleet := map[string]float64{}
	for _, src := range srcs {
		for _, p := range sources[src].Points {
			name, value := reExport(p)
			labels := append(append([]string(nil), p.Labels...), "src", src)
			m.cfg.Metrics.Gauge(obs.MNodePrefix+name, p.Help, labels...).
				Set(int64(value))
			fleet[name] += value
		}
	}
	for name, value := range fleet {
		m.cfg.Metrics.Gauge(obs.MFleetPrefix+name,
			"fan-in rollup: the node-host series summed across all reporting hosts").
			Set(int64(value))
	}
	return &campaignDoc{Run: run, Sources: sources, Fleet: fleet}
}

// encode renders the campaign_metrics.json artifact (nil for no document).
func (d *campaignDoc) encode() []byte {
	if d == nil {
		return nil
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return nil
	}
	return b
}

// filterFanIn drops points that must not round-trip through a fan-in: the
// master's own re-exports and rollups (a test wiring may point a handle at
// the master's registry, and re-importing them would compound per run) and
// the fan-in accounting itself.
func filterFanIn(pts []obs.MetricPoint) []obs.MetricPoint {
	out := pts[:0]
	for _, p := range pts {
		if strings.HasPrefix(p.Name, obs.MNodePrefix) ||
			strings.HasPrefix(p.Name, obs.MFleetPrefix) ||
			strings.HasPrefix(p.Name, "excovery_campaign_") {
			continue
		}
		out = append(out, p)
	}
	return out
}

// reExport maps a harvested point onto the master-side gauge name and
// value. The framework prefix is stripped (MNodePrefix re-adds its own),
// and fractional-second histogram sums become integral microseconds, since
// obs gauges are int64-valued.
func reExport(p obs.MetricPoint) (name string, value float64) {
	name = strings.TrimPrefix(p.Name, "excovery_")
	if strings.HasSuffix(name, "_sum_seconds") {
		return strings.TrimSuffix(name, "_sum_seconds") + "_sum_us", p.Value * 1e6
	}
	return name, p.Value
}
