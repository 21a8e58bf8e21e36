// Package metrics extracts dependability metrics from recorded
// experiments — the "set of functions for extraction and analysis of event
// and packet based metrics" of §VI.
//
// The key property is responsiveness: "the probability that a number of
// SMs is found within a deadline, as required by the application calling
// SD". Per run, the discovery time t_R (Fig. 11) spans from the SU's
// sd_start_search event to the sd_service_add event completing the
// required SM set; responsiveness over a run group is the fraction of runs
// with t_R within the deadline.
package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/sd"
	"excovery/internal/store"
)

// RunMetric is the per-run extraction result.
type RunMetric struct {
	// RunID identifies the run.
	RunID int
	// Treatment maps factor ids to the applied level values (for
	// grouping); empty when extracted from a bare event list.
	Treatment map[string]string
	// Expected is the number of SMs the SU had to find.
	Expected int
	// Found is the number of distinct SMs found.
	Found int
	// TR is the discovery time: sd_start_search → last required
	// sd_service_add. Zero when incomplete.
	TR time.Duration
	// Complete reports whether all expected SMs were found.
	Complete bool
}

// ExtractRun computes the discovery metric from one run's events. smNodes
// is the platform node set of the SM actor; suNodes restricts the
// observing SU nodes (nil = any node).
func ExtractRun(events []eventlog.Event, smNodes, suNodes []string) RunMetric {
	m := RunMetric{Expected: len(smNodes)}
	var searchAt time.Time
	haveSearch := false
	su := map[string]bool{}
	for _, n := range suNodes {
		su[n] = true
	}
	missing := map[string]bool{}
	for _, n := range smNodes {
		missing[n] = true
	}
	var lastAdd time.Time
	for _, ev := range events {
		switch ev.Type {
		case sd.EvStartSearch:
			if !haveSearch && (len(su) == 0 || su[ev.Node]) {
				searchAt = ev.Time
				haveSearch = true
			}
		case sd.EvServiceAdd:
			if !haveSearch {
				continue
			}
			if len(su) > 0 && !su[ev.Node] {
				continue
			}
			n := ev.Param("node")
			if missing[n] {
				delete(missing, n)
				m.Found++
				if ev.Time.After(lastAdd) {
					lastAdd = ev.Time
				}
			}
		}
	}
	if haveSearch && len(missing) == 0 && m.Expected > 0 {
		m.Complete = true
		m.TR = lastAdd.Sub(searchAt)
	}
	return m
}

// FromReport extracts metrics for every completed run of a master report,
// resolving SM and SU node sets from the description's actor roles.
// smActor/suActor default to "actor0"/"actor1".
func FromReport(e *desc.Experiment, rep *master.Report, smActor, suActor string) []RunMetric {
	if smActor == "" {
		smActor = "actor0"
	}
	if suActor == "" {
		suActor = "actor1"
	}
	var out []RunMetric
	for _, rr := range rep.Results {
		if rr.Skipped || rr.Err != nil || rr.Aborted {
			continue
		}
		roles := desc.RolesFor(e, rr.Run)
		m := ExtractRun(rr.Events, roles[smActor], roles[suActor])
		m.RunID = rr.Run.ID
		m.Treatment = treatmentStrings(rr.Run)
		out = append(out, m)
	}
	return out
}

// FromDB extracts metrics from a level-3 database by replaying the stored
// description's plan (repeatability: the plan regenerates bit-identically
// from the stored document).
func FromDB(db *store.ExperimentDB, smActor, suActor string) ([]RunMetric, error) {
	info, err := db.Info()
	if err != nil {
		return nil, err
	}
	e, err := desc.ParseString(info.ExpXML)
	if err != nil {
		return nil, fmt.Errorf("metrics: stored description: %w", err)
	}
	plan, err := desc.GeneratePlan(e)
	if err != nil {
		return nil, err
	}
	if smActor == "" {
		smActor = "actor0"
	}
	if suActor == "" {
		suActor = "actor1"
	}
	byID := map[int]desc.Run{}
	for _, r := range plan.Runs {
		byID[r.ID] = r
	}
	ids, err := db.RunIDs()
	if err != nil {
		return nil, err
	}
	var out []RunMetric
	for _, id := range ids {
		events, err := db.EventsOfRun(id)
		if err != nil {
			return nil, err
		}
		run, ok := byID[id]
		if !ok {
			continue
		}
		roles := desc.RolesFor(e, run)
		m := ExtractRun(events, roles[smActor], roles[suActor])
		m.RunID = id
		m.Treatment = treatmentStrings(run)
		out = append(out, m)
	}
	return out, nil
}

// ControlStats summarizes the control channel's resilience behaviour of
// one experiment execution: run-level retries, preflight health probes and
// partial harvests. It complements the SD metrics — a result is only as
// trustworthy as the control plane that produced it.
type ControlStats struct {
	// Runs, Completed and Skipped mirror the report's run accounting.
	Runs, Completed, Skipped int
	// Failed counts runs that failed or aborted all their attempts.
	Failed int
	// Retried counts runs that needed more than one in-place attempt.
	Retried int
	// Recovered counts crashed runs whose partial state was discarded via
	// journal replay before re-execution.
	Recovered int
	// Attempts is the total number of run attempts executed.
	Attempts int
	// Partial counts failed runs whose measurements were still harvested.
	Partial int
	// HealthProbes and HealthFailures count preflight node probes.
	HealthProbes, HealthFailures int
}

// ControlSummary extracts control-channel resilience counters from a
// master report.
func ControlSummary(rep *master.Report) ControlStats {
	cs := ControlStats{
		Runs:           len(rep.Results),
		Completed:      rep.Completed,
		Skipped:        rep.Skipped,
		Failed:         rep.Failed,
		Retried:        rep.Retried,
		Recovered:      rep.Recovered,
		HealthProbes:   rep.HealthProbes,
		HealthFailures: rep.HealthFailures,
	}
	for _, rr := range rep.Results {
		cs.Attempts += rr.Attempts
		if rr.Partial {
			cs.Partial++
		}
	}
	return cs
}

// treatmentStrings renders a run's levels for grouping; an actor_node_map
// level reads "actor0:M0,M1 actor1:U" (desc.Level.String).
func treatmentStrings(run desc.Run) map[string]string {
	out := make(map[string]string, len(run.Treatment))
	for fid, l := range run.Treatment {
		out[fid] = l.String()
	}
	return out
}

// Responsiveness returns the fraction of runs that found all expected SMs
// within the deadline (≤ 0 means any completion counts).
func Responsiveness(ms []RunMetric, deadline time.Duration) float64 {
	if len(ms) == 0 {
		return 0
	}
	ok := 0
	for _, m := range ms {
		if m.Complete && (deadline <= 0 || m.TR <= deadline) {
			ok++
		}
	}
	return float64(ok) / float64(len(ms))
}

// GroupBy partitions metrics by the raw level value of a factor.
func GroupBy(ms []RunMetric, factorID string) map[string][]RunMetric {
	out := map[string][]RunMetric{}
	for _, m := range ms {
		out[m.Treatment[factorID]] = append(out[m.Treatment[factorID]], m)
	}
	return out
}

// TRs returns the discovery times of complete runs, sorted ascending.
func TRs(ms []RunMetric) []time.Duration {
	var out []time.Duration
	for _, m := range ms {
		if m.Complete {
			out = append(out, m.TR)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	P50, P90, P99  float64
	CI95Lo, CI95Hi float64
}

// Summarize computes descriptive statistics; the 95% confidence interval
// of the mean uses the normal approximation.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	varsum := 0.0
	for _, x := range sorted {
		d := x - s.Mean
		varsum += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(varsum / float64(s.N-1))
	}
	s.P50 = Quantile(sorted, 0.50)
	s.P90 = Quantile(sorted, 0.90)
	s.P99 = Quantile(sorted, 0.99)
	se := s.Std / math.Sqrt(float64(s.N))
	s.CI95Lo = s.Mean - 1.96*se
	s.CI95Hi = s.Mean + 1.96*se
	return s
}

// Quantile returns the p-quantile of a sorted sample (linear
// interpolation).
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// DurationsToSeconds converts durations to float seconds for Summarize.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ECDFPoint is one point of an empirical CDF.
type ECDFPoint struct {
	X float64
	P float64
}

// ECDF computes the empirical CDF of a sample.
func ECDF(xs []float64) []ECDFPoint {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]ECDFPoint, len(sorted))
	for i, x := range sorted {
		out[i] = ECDFPoint{X: x, P: float64(i+1) / float64(len(sorted))}
	}
	return out
}

// PacketStats are packet-level connection parameters derived from captures
// (§IV-B2: "derive statistical connection parameters during later
// analysis").
type PacketStats struct {
	// TxCount and RxCount count capture records by direction.
	TxCount, RxCount int
	// Delivered counts packet ids seen both at a sender and at least one
	// receiver.
	Delivered int
	// LossRate is 1 − Delivered/TxCount (unique tx packet ids).
	LossRate float64
	// MeanDelay is the mean tx→first-rx delay of delivered packets.
	MeanDelay time.Duration
}

// AnalyzePackets matches captures by packet id across nodes.
func AnalyzePackets(pkts []store.PacketRecord) PacketStats {
	var st PacketStats
	txAt := map[uint64]time.Time{}
	rxAt := map[uint64]time.Time{}
	for _, p := range pkts {
		switch p.Dir {
		case "tx":
			st.TxCount++
			if t, seen := txAt[p.ID]; !seen || p.Time.Before(t) {
				txAt[p.ID] = p.Time
			}
		case "rx":
			st.RxCount++
			if t, seen := rxAt[p.ID]; !seen || p.Time.Before(t) {
				rxAt[p.ID] = p.Time
			}
		}
	}
	var total time.Duration
	for id, t0 := range txAt {
		if t1, ok := rxAt[id]; ok {
			st.Delivered++
			if t1.After(t0) {
				total += t1.Sub(t0)
			}
		}
	}
	if len(txAt) > 0 {
		st.LossRate = 1 - float64(st.Delivered)/float64(len(txAt))
	}
	if st.Delivered > 0 {
		st.MeanDelay = total / time.Duration(st.Delivered)
	}
	return st
}

// QueryPair associates one SD query with its first answer, reconstructed
// purely from captured packets — the analysis the prototype's Avahi
// modification enables: "response times not only on SD operation level but
// on the level of individual SD request and response packets" (§VI).
type QueryPair struct {
	// QID is the query identifier echoed by responses.
	QID uint32
	// Node is the querying node.
	Node string
	// SentAt is the local capture time of the query transmission.
	SentAt time.Time
	// AnsweredAt is the local capture time of the first matching
	// response reception; zero if unanswered.
	AnsweredAt time.Time
	// Answered reports whether a response arrived.
	Answered bool
}

// RTT returns the query/response round-trip time (0 if unanswered).
func (q QueryPair) RTT() time.Duration {
	if !q.Answered {
		return 0
	}
	return q.AnsweredAt.Sub(q.SentAt)
}

// sdWireHeader is the subset of the zeroconf wire format needed to
// associate requests and responses.
type sdWireHeader struct {
	Kind string `json:"kind"`
	QID  uint32 `json:"qid"`
}

// QueryPairs scans one node's packet captures for SD queries it sent and
// the responses it received, matching them by the echoed query id. A
// capture is filtered by node and direction before its payload is decoded:
// most captures of a run are other nodes', and the report calls this once
// per node.
func QueryPairs(pkts []store.PacketRecord, node string) []QueryPair {
	var out []QueryPair
	index := map[uint32]int{}
	for i := range pkts {
		p := &pkts[i]
		// Only captures taken at the querying node count; a relay's tx
		// capture of a forwarded query keeps the original Src and must
		// not be misattributed.
		if p.Node != "" && p.Node != node {
			continue
		}
		sent := p.Dir == "tx" && p.Src == node
		if !sent && p.Dir != "rx" {
			continue
		}
		var h sdWireHeader
		if err := json.Unmarshal(p.Data, &h); err != nil || h.QID == 0 {
			continue
		}
		switch {
		case sent && h.Kind == "query":
			index[h.QID] = len(out)
			out = append(out, QueryPair{QID: h.QID, Node: node, SentAt: p.Time})
		case !sent && (h.Kind == "response" || h.Kind == "query_resp"):
			if i, ok := index[h.QID]; ok && !out[i].Answered {
				out[i].Answered = true
				out[i].AnsweredAt = p.Time
			}
		}
	}
	return out
}

// QueryRTTs extracts the round-trip times of answered queries, sorted
// ascending.
func QueryRTTs(pairs []QueryPair) []time.Duration {
	var out []time.Duration
	for _, q := range pairs {
		if q.Answered {
			out = append(out, q.RTT())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResponsivenessCI returns the Wilson score 95% confidence interval for
// the responsiveness estimate — appropriate for the binomial
// "found-within-deadline" proportion even at small run counts.
func ResponsivenessCI(ms []RunMetric, deadline time.Duration) (lo, hi float64) {
	n := float64(len(ms))
	if n == 0 {
		return 0, 0
	}
	p := Responsiveness(ms, deadline)
	const z = 1.96
	z2 := z * z
	den := 1 + z2/n
	center := (p + z2/(2*n)) / den
	half := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / den
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WriteCSV exports per-run metrics as CSV for external analysis tools.
// Columns: run id, the union of treatment factors (sorted), expected,
// found, complete, and t_R in seconds (empty when incomplete).
func WriteCSV(w io.Writer, ms []RunMetric) error {
	factorSet := map[string]bool{}
	for _, m := range ms {
		for f := range m.Treatment {
			factorSet[f] = true
		}
	}
	factors := make([]string, 0, len(factorSet))
	for f := range factorSet {
		factors = append(factors, f)
	}
	sort.Strings(factors)

	cw := csv.NewWriter(w)
	header := append([]string{"run"}, factors...)
	header = append(header, "expected", "found", "complete", "t_R_seconds")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, m := range ms {
		row := []string{fmt.Sprint(m.RunID)}
		for _, f := range factors {
			row = append(row, m.Treatment[f])
		}
		tr := ""
		if m.Complete {
			tr = fmt.Sprintf("%.9f", m.TR.Seconds())
		}
		row = append(row, fmt.Sprint(m.Expected), fmt.Sprint(m.Found),
			fmt.Sprint(m.Complete), tr)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
