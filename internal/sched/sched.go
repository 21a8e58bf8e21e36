// Package sched provides a cooperative discrete-event scheduler.
//
// ExCovery components whose code blocks (protocol agents, experiment
// processes, timed fault windows) run as tasks on a Scheduler. Exactly one
// task executes at any moment; a task runs until it blocks on one of the
// scheduler primitives (Sleep, Cond.Wait, Yield). This cooperative model
// has two important consequences:
//
//   - Determinism. In virtual-time mode, a run is a pure function of the
//     task program and the seeds it uses. Timers fire in (time, sequence)
//     order and runnable tasks resume in FIFO order, so repeated executions
//     are bit-identical — the repeatability property ExCovery demands of its
//     platform (§IV-A).
//
//   - Lock freedom. Task code never runs concurrently with other task code,
//     so shared state touched only by tasks needs no mutexes — and neither
//     does the scheduler's own state. It belongs to whoever holds the
//     baton: the controller goroutine inside Run, or the one task the
//     controller has resumed and is waiting for (the wake/ctrl channel
//     handoff orders their accesses). Between Run calls it belongs to the
//     goroutine that sets the scheduler up and calls Run. Exactly three
//     entry points are safe from foreign goroutines, and only they
//     synchronize: Inject/InjectWait append to a mutex-guarded inbox and
//     raise an atomic flag, which the controller checks at the top of
//     every loop iteration and drains into the runnable FIFO; Stop sets an
//     atomic flag; Now reads an atomic mirror of the virtual time. The
//     counters behind Switches and FiredTimers are atomic for the same
//     readers, and are written by the owner alone.
//
// Besides tasks, the scheduler runs inline events: small non-blocking
// callbacks executed directly on the controller goroutine (ScheduleEvent,
// PostEvent). Events skip the goroutine handoff a task costs and their
// timers are pooled, which is what makes the emulator's per-packet path
// allocation-free. Work that never blocks (netem's radio pump and link
// delivery, the background traffic generator of internal/fault) is a chain
// of events, each arming the next. An event shares the timer heap and the
// runnable FIFO with tasks, so tasks and events interleave in exactly the
// (time, seq) / FIFO order determinism requires.
//
// The scheduler supports two modes. In Virtual mode time jumps instantly
// from event to event; an experiment with thousands of runs completes in
// seconds. In RealTime mode the controller sleeps the wall-clock delta
// (scaled by a speed factor) before firing each timer, so emulated protocol
// behaviour can interact with live external systems such as an XML-RPC
// control plane.
package sched

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"excovery/internal/obs"
)

// Mode selects how the scheduler maps virtual time onto wall-clock time.
type Mode int

const (
	// Virtual advances time instantly to the next pending timer.
	Virtual Mode = iota
	// RealTime sleeps the (scaled) wall-clock delta before firing timers.
	RealTime
)

func (m Mode) String() string {
	switch m {
	case Virtual:
		return "virtual"
	case RealTime:
		return "realtime"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// taskState describes where a task currently is in its lifecycle.
type taskState int

const (
	stateRunnable taskState = iota
	stateRunning
	stateBlocked
	stateDone
)

type task struct {
	id    uint64
	name  string
	wake  chan struct{}
	state taskState
	// fn is the body the worker goroutine runs on its next dispatch. Task
	// goroutines are pooled: when a task finishes, its goroutine parks and
	// a later spawn reuses it with a fresh id, name and fn.
	fn func()
	// timedOut reports whether the last WaitTimeout ended by timeout.
	timedOut bool
	// blockedOn is a human-readable description of the blocking primitive,
	// used in deadlock reports. Sleep stores just "sleep" plus the
	// duration in blockedFor and the report formats them lazily —
	// deadlocks are rare, sleeps are per-action-hot, and the Sprintf was
	// a measurable share of the run loop's allocations.
	blockedOn  string
	blockedFor time.Duration
	// cw is the task's condition-variable waiter, embedded so Wait does
	// not allocate one per block. A task waits on at most one Cond at a
	// time, and a superseded waiter is never revisited: Signal/Broadcast
	// unlink it and stop its timer, and stopped timers are discarded
	// unfired when popped.
	cw condWaiter
	// sleep is the task's wake timer, embedded so Sleep does not allocate
	// a Timer per block. Sleep timers are never stopped and are always
	// popped from the heap before the task can sleep again, so the struct
	// is reusable the moment the task resumes.
	sleep Timer
}

// runnableItem is one entry of the runnable FIFO: either a task to resume
// or an inline event to run on the controller goroutine. Sharing one FIFO
// keeps the relative order of task wakeups and posted events identical to
// a task-only scheduler, which the byte-identity of recorded runs depends
// on.
type runnableItem struct {
	t   *task
	fn  func(now time.Time, arg any)
	arg any
}

// DeadlockError is returned by Run when live tasks remain but none is
// runnable and no timer is pending. It lists the blocked tasks to aid
// debugging of experiment descriptions that wait for events that can never
// occur.
type DeadlockError struct {
	Now     time.Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sched: deadlock at %s: %d task(s) blocked: %v",
		e.Now.Format(time.RFC3339Nano), len(e.Blocked), e.Blocked)
}

// PanicError wraps a panic that escaped a task function.
type PanicError struct {
	Task  string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %q panicked: %v", e.Task, e.Value)
}

// maxIdleWorkers bounds the pool of parked task goroutines kept between
// spawns; the pool is drained when Run returns so abandoned schedulers do
// not pin goroutines.
const maxIdleWorkers = 64

// maxFreeTimers bounds the event-timer free list.
const maxFreeTimers = 1024

// Scheduler is a cooperative discrete-event scheduler. The zero value is not
// usable; create one with New.
type Scheduler struct {
	mode   Mode
	factor float64 // wall seconds per virtual second in RealTime mode
	// epoch and epochNS never change after New; Now rebuilds the virtual
	// time from them and nowOff.
	epoch   time.Time
	epochNS int64

	// Owner state: touched only by the baton holder (package doc), so no
	// lock guards it.
	now       time.Time
	seq       uint64
	timers    timerHeap
	runnable  []runnableItem
	tasks     map[uint64]*task // live tasks
	current   *task
	ctrl      chan struct{} // task -> controller: "I blocked or exited"
	panicked  *PanicError
	keepAlive bool // RealTime: stay in Run when quiescent, awaiting Inject

	// idleWorkers holds parked task goroutines for reuse; timerFree holds
	// recycled event timers.
	idleWorkers []*task
	timerFree   []*Timer

	// m holds the scheduler's pre-resolved instruments (metrics.go); the
	// zero value keeps the run loop uninstrumented and allocation-free.
	m schedMetrics

	// Foreign-goroutine state, each field synchronized on its own.
	// nowOff mirrors now as nanoseconds since epoch, stored by the
	// controller wherever it advances now. switches and fired are written
	// by the owner only. inbox holds injected work under inboxMu, pending
	// says it is non-empty, and wakeup pokes a controller that is
	// waiting in RealTime mode. lockWait lives outside m so Inject can
	// consult it without racing Instrument.
	nowOff   atomic.Int64
	switches atomic.Uint64
	fired    atomic.Uint64
	running  atomic.Bool // a Run* call is active
	stopping atomic.Bool
	pending  atomic.Bool
	inboxMu  sync.Mutex
	inbox    []injected
	wakeup   chan struct{}
	lockWait atomic.Pointer[obs.Histogram]
}

// injected is one Inject call waiting in the inbox for the controller.
type injected struct {
	name string
	fn   func()
}

// New creates a scheduler starting at the given epoch. The epoch becomes the
// initial value of Now; experiments typically use a fixed epoch so recorded
// timestamps are stable across runs.
func New(mode Mode, epoch time.Time) *Scheduler {
	return &Scheduler{
		mode:    mode,
		factor:  1.0,
		epoch:   epoch,
		epochNS: epoch.UnixNano(),
		now:     epoch,
		tasks:   make(map[uint64]*task),
		ctrl:    make(chan struct{}),
		wakeup:  make(chan struct{}, 1),
	}
}

// NewVirtual is shorthand for New(Virtual, epoch) with a fixed, arbitrary
// epoch useful in tests and emulated experiments.
func NewVirtual() *Scheduler {
	return New(Virtual, time.Date(2014, 5, 19, 0, 0, 0, 0, time.UTC))
}

// SetSpeed sets the real-time pacing factor: wall-clock seconds slept per
// virtual second. A factor of 0.1 runs ten times faster than real time. It
// has no effect in Virtual mode. SetSpeed is set-up, not an entry point:
// call it before Run (cmd/excovery-master and core.New do); it takes no lock.
func (s *Scheduler) SetSpeed(factor float64) {
	if factor <= 0 {
		panic("sched: speed factor must be positive")
	}
	s.factor = factor
}

// SetKeepAlive makes a RealTime Run call stay active when the system is
// quiescent, waiting for Inject instead of returning. RPC-serving node
// hosts need this; Stop still terminates the Run. Like SetSpeed it is
// set-up: call it before Run (cmd/excovery-node does); it takes no lock.
func (s *Scheduler) SetKeepAlive(on bool) {
	s.keepAlive = on
}

// Now returns the current virtual time, in the epoch's location. It may be
// called from any goroutine: it reads an atomic mirror the controller
// stores wherever virtual time advances.
func (s *Scheduler) Now() time.Time {
	return s.epoch.Add(time.Duration(s.nowOff.Load()))
}

// advance moves virtual time forward to when (whenNS is when.UnixNano())
// and publishes it to Now's mirror. Owner only.
func (s *Scheduler) advance(when time.Time, whenNS int64) {
	s.now = when
	s.nowOff.Store(whenNS - s.epochNS)
}

// Switches returns the number of task resumptions performed so far. It is a
// cheap proxy for simulation effort, used by benchmarks. It may be called
// from any goroutine.
func (s *Scheduler) Switches() uint64 { return s.switches.Load() }

// FiredTimers returns the number of timers fired so far. It may be called
// from any goroutine.
func (s *Scheduler) FiredTimers() uint64 { return s.fired.Load() }

// Go spawns fn as a new tracked task. It may be called before Run and from
// within a running task or event; a foreign goroutine uses Inject instead.
// The task does not start executing until the controller schedules it.
func (s *Scheduler) Go(name string, fn func()) {
	t, fresh := s.startTask(name, fn)
	s.runnable = append(s.runnable, runnableItem{t: t})
	if fresh {
		go s.workerBody(t)
	}
}

// startTask allocates or reuses a task for fn and registers it as live.
// fresh reports whether a new worker goroutine must be started.
func (s *Scheduler) startTask(name string, fn func()) (t *task, fresh bool) {
	s.seq++
	if k := len(s.idleWorkers); k > 0 {
		t = s.idleWorkers[k-1]
		s.idleWorkers[k-1] = nil
		s.idleWorkers = s.idleWorkers[:k-1]
		t.id = s.seq
		t.name = name
		t.state = stateRunnable
		t.timedOut = false
		t.blockedOn = ""
		t.cw = condWaiter{}
		t.fn = fn
	} else {
		fresh = true
		t = &task{id: s.seq, name: name, wake: make(chan struct{}, 1),
			state: stateRunnable, fn: fn}
	}
	s.tasks[t.id] = t
	return t, fresh
}

// workerBody is the goroutine behind one (possibly reused) task slot. Each
// iteration runs one task body; between bodies the goroutine parks in the
// idle pool. A nil fn wakes it for the last time: the pool is draining.
func (s *Scheduler) workerBody(t *task) {
	for {
		<-t.wake // wait for dispatch (or pool drain)
		fn := t.fn
		if fn == nil {
			return
		}
		t.fn = nil
		s.runTaskFn(t, fn)
		// Still holding the baton: finish the task and park in the pool
		// before handing control back.
		s.finishTask(t)
		pooled := len(s.idleWorkers) < maxIdleWorkers
		if pooled {
			s.idleWorkers = append(s.idleWorkers, t)
		}
		s.ctrl <- struct{}{}
		if !pooled {
			return
		}
	}
}

// runTaskFn executes one task body, converting an escaped panic into the
// scheduler's PanicError.
func (s *Scheduler) runTaskFn(t *task, fn func()) {
	defer func() {
		if r := recover(); r != nil && s.panicked == nil {
			s.panicked = &PanicError{Task: t.name, Value: r, Stack: string(debug.Stack())}
		}
	}()
	fn()
}

func (s *Scheduler) finishTask(t *task) {
	t.state = stateDone
	delete(s.tasks, t.id)
	if s.current == t {
		s.current = nil
	}
}

// Inject hands fn to the scheduler from a foreign goroutine; fn will run as
// a regular task. Inject (with InjectWait, Stop and Now) is one of the
// scheduler entry points that are safe to call from goroutines not managed
// by the scheduler (e.g. RPC handlers). Injected work waits in an inbox
// until the controller drains it into the runnable FIFO at the top of its
// next loop iteration, so injects run in the order they were made; if the
// scheduler is between Run calls the work waits for the next Run.
func (s *Scheduler) Inject(name string, fn func()) {
	if h := s.lockWait.Load(); h != nil {
		// Instrumented path only: the uninstrumented scheduler must not
		// read the wall clock.
		//lint:ignore walltime the lock-wait histogram measures wall time by definition
		t0 := time.Now()
		s.inboxMu.Lock()
		h.Observe(time.Since(t0).Seconds())
	} else {
		s.inboxMu.Lock()
	}
	s.inbox = append(s.inbox, injected{name: name, fn: fn})
	s.pending.Store(true)
	s.inboxMu.Unlock()
	// Poke the controller in case it is idle-waiting (RealTime mode).
	select {
	case s.wakeup <- struct{}{}:
	default:
	}
}

// drainInbox moves injected work into the runnable FIFO as fresh tasks, in
// injection order. Controller only.
func (s *Scheduler) drainInbox() {
	s.inboxMu.Lock()
	in := s.inbox
	s.inbox = nil
	s.pending.Store(false)
	s.inboxMu.Unlock()
	for _, it := range in {
		s.Go(it.name, it.fn)
	}
}

// InjectWait runs fn as a task and blocks the calling (foreign) goroutine
// until fn returns. It must not be called from within a task: that would
// deadlock the cooperative scheduler.
func (s *Scheduler) InjectWait(name string, fn func()) {
	done := make(chan struct{})
	s.Inject(name, func() {
		defer close(done)
		fn()
	})
	<-done
}

// Stop requests that the active Run call return as soon as the currently
// executing task blocks. Pending work remains queued. Stop may be called
// from any goroutine.
func (s *Scheduler) Stop() {
	s.stopping.Store(true)
	select {
	case s.wakeup <- struct{}{}:
	default:
	}
}

// ErrStopped is returned by Run when Stop was called.
var ErrStopped = fmt.Errorf("sched: stopped")

// Run drives the scheduler until no live tasks remain, a deadline (zero
// means none) is reached, Stop is called, or the system deadlocks. It
// returns nil on normal completion, a *DeadlockError on deadlock, a
// *PanicError if a task panicked, or ErrStopped.
func (s *Scheduler) Run() error { return s.run(time.Time{}) }

// RunUntil drives the scheduler until virtual time reaches deadline (or any
// of the Run termination conditions occurs first). Reaching the deadline is
// a normal return: timers at or after the deadline stay pending.
func (s *Scheduler) RunUntil(deadline time.Time) error { return s.run(deadline) }

// RunFor is RunUntil(Now().Add(d)).
func (s *Scheduler) RunFor(d time.Duration) error {
	return s.run(s.now.Add(d))
}

// run makes the calling goroutine the controller: it owns the scheduler's
// state until it returns.
func (s *Scheduler) run(deadline time.Time) error {
	if !s.running.CompareAndSwap(false, true) {
		panic("sched: concurrent Run calls")
	}
	defer func() {
		// Release the parked worker goroutines, so a scheduler that is
		// dropped between runs does not pin them.
		for _, t := range s.idleWorkers {
			t.fn = nil
			t.wake <- struct{}{}
		}
		s.idleWorkers = nil
		s.running.Store(false)
	}()

	//lint:ignore walltime realtime mode anchors the virtual timeline to one wall reading by design
	wallBase := time.Now()
	virtBase := s.now

	for {
		if s.pending.Load() {
			s.drainInbox()
		}
		if s.panicked != nil {
			pe := s.panicked
			s.panicked = nil
			return pe
		}
		if s.stopping.Load() {
			s.stopping.Store(false)
			return ErrStopped
		}

		// 1. Resume the next runnable item (task or posted event), if any.
		if len(s.runnable) > 0 {
			it := s.runnable[0]
			copy(s.runnable, s.runnable[1:])
			s.runnable[len(s.runnable)-1] = runnableItem{}
			s.runnable = s.runnable[:len(s.runnable)-1]
			if it.t != nil {
				t := it.t
				t.state = stateRunning
				s.current = t
				s.switches.Add(1)
				s.m.switches.Inc()
				s.m.runnable.Set(int64(len(s.runnable)))
				t.wake <- struct{}{} // hand the baton to t
				<-s.ctrl             // and take it back when t blocks or exits
			} else {
				s.m.runnable.Set(int64(len(s.runnable)))
				s.runEvent(it.fn, s.now, it.arg)
			}
			continue
		}

		// 2. No runnable task: fire the earliest timer.
		if s.timers.Len() > 0 {
			tm := s.timers[0]
			if tm.stopped {
				s.timers.pop()
				continue
			}
			if !deadline.IsZero() && tm.when.After(deadline) {
				if s.now.Before(deadline) {
					s.advance(deadline, deadline.UnixNano())
				}
				return nil
			}
			if s.mode == RealTime && tm.when.After(s.now) {
				// Sleep the scaled wall-clock delta, but wake early on
				// injection so external work gets serviced promptly.
				target := wallBase.Add(time.Duration(float64(tm.when.Sub(virtBase)) * s.factor))
				dt := time.Until(target)
				if dt > 0 {
					select {
					case <-time.After(dt):
					case <-s.wakeup:
					}
					continue // re-evaluate: injection may have added work
				}
			}
			s.timers.pop()
			if tm.when.After(s.now) {
				s.advance(tm.when, tm.whenNS)
			}
			if !tm.stopped {
				s.fired.Add(1)
				s.m.fired.Inc()
				s.m.queueLen.Set(int64(s.timers.Len()))
				s.observeVtimeLag(wallBase, virtBase)
				switch {
				case tm.eventFn != nil:
					// Inline event: runs on the controller goroutine. The
					// timer is recycled first — event timers are never
					// exposed to callers.
					fn, arg := tm.eventFn, tm.eventArg
					s.releaseTimer(tm)
					s.runEvent(fn, s.now, arg)
				case tm.wake != nil:
					s.makeRunnable(tm.wake)
				case tm.spawnFn != nil:
					fn := tm.spawnFn
					tm.spawnFn = nil
					s.Go(tm.spawnName, fn)
				default:
					// Only queue manipulation.
					tm.fire()
				}
			}
			continue
		}

		// 3. Nothing runnable, no timers. Injected work may be waiting in
		// the inbox; otherwise the system is finished when no task is
		// left — unless keep-alive mode holds the scheduler open for
		// external injections (an RPC serving host).
		if s.pending.Load() {
			continue
		}
		if len(s.tasks) == 0 {
			if s.keepAlive && s.mode == RealTime {
				select {
				case <-s.wakeup:
				case <-time.After(50 * time.Millisecond):
				}
				continue
			}
			return nil
		}
		if s.mode == RealTime {
			// Live tasks are blocked waiting for external input.
			select {
			case <-s.wakeup:
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		return &DeadlockError{Now: s.now, Blocked: s.blockedNames()}
	}
}

// runEvent executes one inline event on the controller goroutine,
// converting an escaped panic into a PanicError.
func (s *Scheduler) runEvent(fn func(time.Time, any), now time.Time, arg any) {
	defer func() {
		if r := recover(); r != nil && s.panicked == nil {
			s.panicked = &PanicError{Task: "event", Value: r, Stack: string(debug.Stack())}
		}
	}()
	fn(now, arg)
}

func (s *Scheduler) blockedNames() []string {
	var names []string
	for _, t := range s.tasks {
		if t.state == stateBlocked {
			on := t.blockedOn
			if on == "sleep" {
				on = "sleep " + t.blockedFor.String()
			}
			names = append(names, fmt.Sprintf("%s (on %s)", t.name, on))
		}
	}
	sort.Strings(names)
	return names
}

// block parks the current task, handing the baton back to the controller.
// The caller must have already registered the task with whatever will later
// make it runnable again (a timer, a cond waiter list or the runnable FIFO).
func (s *Scheduler) block(t *task) {
	s.ctrl <- struct{}{}
	<-t.wake
}

// mustCurrent returns the currently executing task and panics if the caller
// is not running on the scheduler. All blocking primitives require task
// context — inline events (ScheduleEvent, PostEvent) and packet handlers
// invoked from them must not block.
func (s *Scheduler) mustCurrent(op string) *task {
	t := s.current
	if t == nil || t.state != stateRunning {
		panic("sched: " + op + " called outside a scheduler task")
	}
	return t
}

// makeRunnable transitions a blocked task to the runnable queue.
func (s *Scheduler) makeRunnable(t *task) {
	if t.state != stateBlocked {
		panic("sched: makeRunnable on non-blocked task")
	}
	t.state = stateRunnable
	t.blockedOn = ""
	s.runnable = append(s.runnable, runnableItem{t: t})
}

// Sleep suspends the current task for d of virtual time. Non-positive
// durations yield the processor but do not advance time.
func (s *Scheduler) Sleep(d time.Duration) {
	t := s.mustCurrent("Sleep")
	t.state = stateBlocked
	t.blockedOn = "sleep"
	t.blockedFor = d
	s.current = nil
	if d < 0 {
		d = 0
	}
	s.addSleepTimer(s.now.Add(d), t)
	s.block(t)
}

// Yield moves the current task to the back of the runnable queue, letting
// other runnable tasks execute at the same virtual instant.
func (s *Scheduler) Yield() {
	t := s.mustCurrent("Yield")
	t.state = stateRunnable
	s.current = nil
	s.runnable = append(s.runnable, runnableItem{t: t})
	s.block(t)
}

// Timer is a cancelable scheduled callback. Its fire function runs on the
// controller and must restrict itself to queue manipulation; user
// callbacks are wrapped in fresh tasks by ScheduleFunc.
type Timer struct {
	s       *Scheduler
	when    time.Time
	whenNS  int64 // when.UnixNano(), cached so heap ordering is int compares
	seq     uint64
	stopped bool
	fire    func()
	// wake, when set, replaces fire: the timer just makes this task
	// runnable. Sleep is per-action-hot, and storing the task directly
	// avoids allocating a wake closure for every sleep.
	wake *task
	// spawnFn/spawnName, when set, replace fire: the timer starts a new
	// task running spawnFn.
	spawnFn   func()
	spawnName string
	// eventFn/eventArg, when set, replace fire: the timer runs eventFn
	// inline on the controller goroutine. Event timers are pooled and
	// never escape the scheduler.
	eventFn  func(now time.Time, arg any)
	eventArg any
}

// Stop cancels the timer. It reports whether the timer was still pending.
// Safe to call multiple times, from any task or event.
func (t *Timer) Stop() bool {
	if t.stopped {
		return false
	}
	t.stopped = true
	return true
}

func (s *Scheduler) addTimer(when time.Time, fire func()) *Timer {
	s.seq++
	tm := &Timer{s: s, when: when, whenNS: when.UnixNano(), seq: s.seq, fire: fire}
	s.timers.push(tm)
	return tm
}

// addSleepTimer schedules the task's embedded wake timer: no allocation,
// and no wake closure a fire func would cost.
func (s *Scheduler) addSleepTimer(when time.Time, t *task) {
	s.seq++
	tm := &t.sleep
	tm.s = s
	tm.when = when
	tm.whenNS = when.UnixNano()
	tm.seq = s.seq
	tm.stopped = false
	tm.wake = t
	s.timers.push(tm)
}

// ScheduleFunc runs fn as a new task after d of virtual time. The returned
// Timer can cancel it before it fires. fn runs as a full task and may block
// on scheduler primitives.
func (s *Scheduler) ScheduleFunc(d time.Duration, name string, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	when := s.now.Add(d)
	s.seq++
	tm := &Timer{s: s, when: when, whenNS: when.UnixNano(), seq: s.seq, spawnFn: fn, spawnName: name}
	s.timers.push(tm)
	return tm
}

// ScheduleEvent runs fn(now, arg) inline on the controller goroutine after
// d of virtual time. Events are the allocation-free fast path for per-packet
// work: the timer comes from a free list and fn is expected to be a static
// function with its state in arg. fn runs on the controller goroutine
// outside any task, so it must not block on scheduler primitives; it may
// schedule further events, post events, spawn tasks and signal conds.
// Events are not cancelable.
func (s *Scheduler) ScheduleEvent(d time.Duration, fn func(now time.Time, arg any), arg any) {
	if d < 0 {
		d = 0
	}
	when := s.now.Add(d)
	s.seq++
	var tm *Timer
	if k := len(s.timerFree); k > 0 {
		tm = s.timerFree[k-1]
		s.timerFree[k-1] = nil
		s.timerFree = s.timerFree[:k-1]
	} else {
		tm = &Timer{s: s}
	}
	tm.when = when
	tm.whenNS = when.UnixNano()
	tm.seq = s.seq
	tm.stopped = false
	tm.eventFn = fn
	tm.eventArg = arg
	s.timers.push(tm)
}

// releaseTimer returns a fired event timer to the free list.
func (s *Scheduler) releaseTimer(tm *Timer) {
	tm.eventFn = nil
	tm.eventArg = nil
	if len(s.timerFree) < maxFreeTimers {
		s.timerFree = append(s.timerFree, tm)
	}
}

// PostEvent appends fn(now, arg) to the runnable FIFO: it runs at the
// current virtual instant, after the items already queued, before any
// timer fires — the same position a task woken by Cond.Signal would get.
// The same non-blocking rules as for ScheduleEvent apply.
func (s *Scheduler) PostEvent(fn func(now time.Time, arg any), arg any) {
	s.runnable = append(s.runnable, runnableItem{fn: fn, arg: arg})
}

// timerHeap orders timers by (whenNS, seq) so simultaneous timers fire in
// creation order, keeping virtual-mode execution deterministic. It is a
// hand-rolled binary heap: timer pushes and pops are the hottest scheduler
// operation, and cached int64 keys with direct calls beat the
// container/heap interface plus time.Time comparisons by a wide margin.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) before(a, b *Timer) bool {
	if a.whenNS != b.whenNS {
		return a.whenNS < b.whenNS
	}
	return a.seq < b.seq
}

func (h *timerHeap) push(tm *Timer) {
	*h = append(*h, tm)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(tm, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = tm
}

// pop removes and returns the earliest timer. The caller must have checked
// Len() > 0.
func (h *timerHeap) pop() *Timer {
	q := *h
	top := q[0]
	n := len(q) - 1
	tm := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && q.before(q[r], q[l]) {
				l = r
			}
			if !q.before(q[l], tm) {
				break
			}
			q[i] = q[l]
			i = l
		}
		q[i] = tm
	}
	return top
}
