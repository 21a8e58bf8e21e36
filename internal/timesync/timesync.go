// Package timesync measures the clock offset between the experiment
// master's reference clock and each participating node (§IV-B3).
//
// ExCovery mandates that the time difference of every participant to a
// reference clock is estimated before each run, so a valid global time line
// of events and packets can be constructed during conditioning. The
// estimator is Cristian's algorithm: the master samples a node's local
// clock over the control channel, timestamps the request and the response
// with the reference clock, and estimates
//
//	offset ≈ t_node − (t_send + t_recv)/2
//
// with an error bound of half the round-trip time. Multiple samples are
// taken and the one with the smallest RTT wins, which both tightens the
// bound and filters control-channel jitter. The platform requirement to
// "support quantification of the synchronization error" (§IV-A3) is met by
// reporting that bound alongside the estimate.
//
// Nodes served by one host are sampled together: one request reads every
// listed node's clock, and the shared round trip applies to each of them.
// A single node is the same measurement with a list of one.
package timesync

import (
	"fmt"
	"time"

	"excovery/internal/vclock"
)

// Probe reads the local clocks of a list of nodes in one synchronous
// control-channel request (in-process call, or XML-RPC in the distributed
// deployment): one time per node, in list order. A failed request returns
// an error. The returned slice is read before the next call and not kept.
type Probe func() ([]time.Time, error)

// Measurement is one node's estimated clock deviation.
type Measurement struct {
	// Node is the measured node.
	Node string
	// Offset is the estimated local−reference clock difference.
	Offset time.Duration
	// ErrorBound is the half-RTT uncertainty of the estimate.
	ErrorBound time.Duration
	// Samples is the number of probes taken.
	Samples int
	// MeasuredAt is the reference time of the winning sample.
	MeasuredAt time.Time
}

func (m Measurement) String() string {
	return fmt.Sprintf("%s: offset %v ± %v (%d samples)", m.Node, m.Offset, m.ErrorBound, m.Samples)
}

// samples is the number of probes per measurement.
const samples = 3

// Estimator measures node clock offsets against a reference clock.
type Estimator struct {
	// Ref is the reference clock (the master's).
	Ref vclock.Clock
}

// Measure estimates the clock offsets of the nodes one probe samples
// together and returns one Measurement per node, in list order. A sample
// whose request failed, or that answered for a different number of nodes,
// never wins; when no sample succeeded Measure returns nil, so the nodes
// get no Measurement and conditioning keeps their local times.
func (e *Estimator) Measure(nodes []string, probe Probe) []Measurement {
	var best []Measurement
	bestBound := time.Duration(1<<63 - 1)
	for i := 0; i < samples; i++ {
		t0 := e.Ref.Now()
		times, err := probe()
		t1 := e.Ref.Now()
		if err != nil || len(times) != len(nodes) {
			continue
		}
		rtt := t1.Sub(t0)
		bound := rtt / 2
		if bound >= bestBound {
			continue
		}
		bestBound = bound
		if best == nil {
			best = make([]Measurement, len(nodes))
		}
		mid := t0.Add(bound)
		for j, node := range nodes {
			best[j] = Measurement{Node: node, Offset: times[j].Sub(mid),
				ErrorBound: bound, Samples: samples, MeasuredAt: mid}
		}
	}
	return best
}

// Correct maps a local node timestamp onto the reference time base using a
// measured offset: ref = local − offset. Conditioning applies it to all
// events and captures of a run (§IV-F).
func Correct(local time.Time, m Measurement) time.Time {
	return local.Add(-m.Offset)
}
