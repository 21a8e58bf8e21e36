package sched

import (
	"time"

	"excovery/internal/obs"
)

// schedMetrics caches the scheduler's pre-resolved instruments. The zero
// value (all nil pointers) is the uninstrumented state: every method on a
// nil *obs.Counter / *obs.Gauge is a no-op, so the run loop needs no
// guards and adds no allocations when no registry is attached.
type schedMetrics struct {
	switches *obs.Counter
	fired    *obs.Counter
	queueLen *obs.Gauge
	runnable *obs.Gauge
	vtimeLag *obs.Gauge
}

// Instrument attaches a metrics registry to the scheduler: context
// switches, dispatched timers, event-queue and runnable-queue depths, the
// realtime pacing lag, and the wall time foreign goroutines spend waiting
// to enter the scheduler's inbox via Inject. Like SetSpeed it is set-up:
// call it before Run (core.New does); it takes no lock. A
// nil registry is valid and leaves the scheduler uninstrumented.
func (s *Scheduler) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.m.switches = reg.Counter(obs.MSchedSwitches,
		"task resumptions (context switches)")
	s.m.fired = reg.Counter(obs.MSchedTimersFired,
		"timer events dispatched")
	s.m.queueLen = reg.Gauge(obs.MSchedEventQueueLen,
		"pending timers in the event queue")
	s.m.runnable = reg.Gauge(obs.MSchedRunnableLen,
		"tasks in the runnable queue")
	s.m.vtimeLag = reg.Gauge(obs.MSchedVtimeLagUs,
		"microseconds the virtual clock trails the realtime pacing target")
	s.lockWait.Store(reg.Histogram(obs.MSchedLockWait,
		"wall time foreign goroutines wait for the scheduler's inbox lock", nil))
}

// observeVtimeLag updates the pacing-lag gauge: how far the virtual
// clock trails where the wall clock says it should be. Realtime mode only,
// and only on an instrumented scheduler — the uninstrumented run loop must
// not touch the wall clock.
func (s *Scheduler) observeVtimeLag(wallBase time.Time, virtBase time.Time) {
	if s.m.vtimeLag == nil || s.mode != RealTime {
		return
	}
	wallElapsed := time.Since(wallBase)
	expected := virtBase.Add(time.Duration(float64(wallElapsed) / s.factor))
	s.m.vtimeLag.Set(expected.Sub(s.now).Microseconds())
}
