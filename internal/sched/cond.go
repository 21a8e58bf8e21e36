package sched

import "time"

// Cond is a scheduler-aware condition variable. Unlike sync.Cond it needs no
// external mutex: task code is already serialized by the cooperative
// scheduler, so checking the predicate and calling Wait cannot race with a
// Signal from another task.
//
// Typical use:
//
//	for !predicate() {
//	    if !cond.WaitTimeout(timeout) {
//	        // timed out
//	    }
//	}
type Cond struct {
	s       *Scheduler
	name    string
	blocked string // "cond <name>", precomputed (per-wait hot)
	waiters []*condWaiter
}

type condWaiter struct {
	t     *task
	timer *Timer
	fired bool // woken (either way); guards double wake
}

// NewCond creates a condition variable. The name appears in deadlock
// reports.
func (s *Scheduler) NewCond(name string) *Cond {
	return &Cond{s: s, name: name, blocked: "cond " + name}
}

// Wait blocks the current task until Signal or Broadcast wakes it.
func (c *Cond) Wait() {
	t := c.s.mustCurrent("Cond.Wait")
	t.state = stateBlocked
	t.blockedOn = c.blocked
	t.timedOut = false
	c.s.current = nil
	t.cw = condWaiter{t: t}
	c.waiters = append(c.waiters, &t.cw)
	c.s.block(t)
}

// WaitTimeout blocks the current task until woken or until d of virtual
// time elapses. It reports true if the task was woken by Signal/Broadcast
// and false on timeout. A non-positive d times out at the current instant
// (after yielding), which still allows an already-pending Broadcast to win.
func (c *Cond) WaitTimeout(d time.Duration) bool {
	t := c.s.mustCurrent("Cond.WaitTimeout")
	t.state = stateBlocked
	t.blockedOn = c.blocked
	t.timedOut = false
	c.s.current = nil
	t.cw = condWaiter{t: t}
	w := &t.cw
	if d < 0 {
		d = 0
	}
	w.timer = c.s.addTimer(c.s.now.Add(d), func() {
		if w.fired {
			return
		}
		w.fired = true
		t.timedOut = true
		c.removeWaiter(w)
		c.s.makeRunnable(t)
	})
	c.waiters = append(c.waiters, w)
	c.s.block(t)
	return !t.timedOut
}

func (c *Cond) removeWaiter(w *condWaiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Signal wakes the longest-waiting task, if any. It must be called from a
// task or injected closure.
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if w.fired {
			continue
		}
		w.fired = true
		if w.timer != nil {
			w.timer.stopped = true
		}
		c.s.makeRunnable(w.t)
		return
	}
}

// Broadcast wakes all waiting tasks in FIFO order.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		if w.fired {
			continue
		}
		w.fired = true
		if w.timer != nil {
			w.timer.stopped = true
		}
		c.s.makeRunnable(w.t)
	}
}

// WaitGroup is a scheduler-aware counterpart of sync.WaitGroup for joining
// a set of tasks.
type WaitGroup struct {
	cond *Cond
	n    int
}

// NewWaitGroup creates a WaitGroup with count zero.
func (s *Scheduler) NewWaitGroup(name string) *WaitGroup {
	return &WaitGroup{cond: s.NewCond("waitgroup " + name)}
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sched: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	for wg.n > 0 {
		wg.cond.Wait()
	}
}

// WaitTimeout blocks until the counter reaches zero or d elapses; it
// reports true if the counter reached zero.
func (wg *WaitGroup) WaitTimeout(d time.Duration) bool {
	deadline := wg.cond.s.Now().Add(d)
	for wg.n > 0 {
		remain := deadline.Sub(wg.cond.s.Now())
		if remain <= 0 {
			return false
		}
		wg.cond.WaitTimeout(remain)
	}
	return true
}
