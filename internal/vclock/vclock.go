// Package vclock models per-node local clocks on top of the global virtual
// time of a scheduler.
//
// ExCovery runs on distributed platforms whose node clocks deviate from each
// other (§IV-B3). To reproduce that property in emulation, each node reads
// time through a Clock that applies a constant offset and a linear drift to
// the scheduler's global time. The timesync package measures these
// deviations exactly the way the paper prescribes — with a two-way message
// exchange per run — and the store's conditioning phase maps all local
// timestamps back onto a common time base.
package vclock

import (
	"time"

	"excovery/internal/sched"
)

// Clock provides a node-local view of time.
type Clock interface {
	// Now returns the node's local time.
	Now() time.Time
}

// Perfect is a clock exactly equal to the scheduler's global time. The
// experiment master uses it as the reference clock.
type Perfect struct {
	S *sched.Scheduler
}

// Now returns the global virtual time.
func (p Perfect) Now() time.Time { return p.S.Now() }

// Skewed is a local clock with a fixed offset and a linear drift relative
// to global time:
//
//	local(t) = t + Offset + DriftPPM·1e-6·(t − base)
//
// where base is the global time at which the clock was created. Offsets of
// a few milliseconds and drifts of tens of ppm reproduce the clock behaviour
// of real testbed nodes without NTP discipline.
type Skewed struct {
	s        *sched.Scheduler
	offset   time.Duration
	driftPPM float64
	base     time.Time
}

// NewSkewed creates a skewed clock anchored at the scheduler's current time.
func NewSkewed(s *sched.Scheduler, offset time.Duration, driftPPM float64) *Skewed {
	return &Skewed{s: s, offset: offset, driftPPM: driftPPM, base: s.Now()}
}

// Now returns the skewed local time.
func (c *Skewed) Now() time.Time {
	t := c.s.Now()
	drift := time.Duration(float64(t.Sub(c.base)) * c.driftPPM * 1e-6)
	return t.Add(c.offset + drift)
}
