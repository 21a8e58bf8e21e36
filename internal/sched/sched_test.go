package sched

import (
	"fmt"
	"testing"
	"time"
)

func TestRunEmpty(t *testing.T) {
	s := NewVirtual()
	if err := s.Run(); err != nil {
		t.Fatalf("Run on empty scheduler: %v", err)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := NewVirtual()
	start := s.Now()
	var woke time.Time
	s.Go("sleeper", func() {
		s.Sleep(5 * time.Second)
		woke = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := woke.Sub(start); got != 5*time.Second {
		t.Fatalf("woke after %v, want 5s", got)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	s := NewVirtual()
	start := s.Now()
	s.Go("z", func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
		if !s.Now().Equal(start) {
			t.Errorf("time advanced on zero/negative sleep: %v", s.Now().Sub(start))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerOrderingDeterministic(t *testing.T) {
	// Tasks sleeping to the same instant must wake in creation order.
	for trial := 0; trial < 5; trial++ {
		s := NewVirtual()
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			s.Go(fmt.Sprintf("t%d", i), func() {
				s.Sleep(time.Second)
				order = append(order, i)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("trial %d: wake order %v", trial, order)
			}
		}
	}
}

func TestInterleavedSleeps(t *testing.T) {
	s := NewVirtual()
	var order []string
	s.Go("a", func() {
		s.Sleep(1 * time.Second)
		order = append(order, "a1")
		s.Sleep(2 * time.Second) // wakes at 3s
		order = append(order, "a3")
	})
	s.Go("b", func() {
		s.Sleep(2 * time.Second)
		order = append(order, "b2")
		s.Sleep(2 * time.Second) // wakes at 4s
		order = append(order, "b4")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b2", "a3", "b4"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := NewVirtual()
	ran := 0
	s.Go("ticker", func() {
		for i := 0; i < 100; i++ {
			s.Sleep(time.Second)
			ran++
		}
	})
	deadline := s.Now().Add(10*time.Second + 500*time.Millisecond)
	if err := s.RunFor(10*time.Second + 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Fatalf("ran %d ticks, want 10", ran)
	}
	if !s.Now().Equal(deadline) {
		t.Fatalf("Now() = %v, want deadline %v", s.Now(), deadline)
	}
	// Continue to completion.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("ran %d ticks after full Run, want 100", ran)
	}
}

func TestRunForRelativeDeadline(t *testing.T) {
	s := NewVirtual()
	n := 0
	s.Go("t", func() {
		for {
			s.Sleep(time.Minute)
			n++
		}
	})
	if err := s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewVirtual()
	c := s.NewCond("never")
	s.Go("waiter", func() { c.Wait() })
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestTaskPanicPropagates(t *testing.T) {
	s := NewVirtual()
	s.Go("bomb", func() { panic("boom") })
	err := s.Run()
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Task != "bomb" || pe.Value != "boom" {
		t.Fatalf("unexpected panic error: %+v", pe)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	s := NewVirtual()
	c := s.NewCond("c")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Go(fmt.Sprintf("w%d", i), func() {
			c.Wait()
			order = append(order, i)
		})
	}
	s.Go("signaler", func() {
		s.Sleep(time.Second)
		c.Signal()
		s.Sleep(time.Second)
		c.Signal()
		c.Signal()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestCondBroadcast(t *testing.T) {
	s := NewVirtual()
	c := s.NewCond("c")
	woken := 0
	for i := 0; i < 5; i++ {
		s.Go("w", func() {
			c.Wait()
			woken++
		})
	}
	s.Go("b", func() {
		s.Sleep(time.Millisecond)
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	s := NewVirtual()
	c := s.NewCond("c")
	var timedOut, signaled bool
	s.Go("to", func() {
		start := s.Now()
		if c.WaitTimeout(3*time.Second) == false {
			timedOut = true
		}
		if got := s.Now().Sub(start); got != 3*time.Second {
			t.Errorf("timeout after %v, want 3s", got)
		}
	})
	s.Go("sig", func() {
		ok := c.WaitTimeout(10 * time.Second)
		signaled = ok
	})
	s.Go("signaler", func() {
		s.Sleep(5 * time.Second)
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("first waiter should have timed out")
	}
	if !signaled {
		t.Error("second waiter should have been signaled")
	}
}

func TestCondSignalAfterTimeoutDoesNotDoubleWake(t *testing.T) {
	s := NewVirtual()
	c := s.NewCond("c")
	wakes := 0
	s.Go("w", func() {
		c.WaitTimeout(time.Second)
		wakes++
		// Block again; a stray second wake of the first wait would
		// erroneously complete this wait too early.
		ok := c.WaitTimeout(time.Hour)
		if !ok {
			t.Error("second wait timed out; expected signal at t=2s")
		}
		wakes++
	})
	s.Go("sig", func() {
		s.Sleep(2 * time.Second)
		c.Signal()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
}

func TestScheduleFuncAndStop(t *testing.T) {
	s := NewVirtual()
	fired := make(map[string]bool)
	s.ScheduleFunc(time.Second, "a", func() { fired["a"] = true })
	tm := s.ScheduleFunc(2*time.Second, "b", func() { fired["b"] = true })
	s.ScheduleFunc(3*time.Second, "c", func() { fired["c"] = true })
	s.Go("stopper", func() {
		s.Sleep(1500 * time.Millisecond)
		if !tm.Stop() {
			t.Error("Stop returned false for pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop returned true")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired["a"] || fired["b"] || !fired["c"] {
		t.Fatalf("fired = %v", fired)
	}
}

func TestNestedGo(t *testing.T) {
	s := NewVirtual()
	sum := 0
	s.Go("parent", func() {
		for i := 1; i <= 3; i++ {
			i := i
			s.Go("child", func() {
				s.Sleep(time.Duration(i) * time.Second)
				sum += i
			})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
}

func TestYieldInterleaving(t *testing.T) {
	s := NewVirtual()
	var order []string
	s.Go("a", func() {
		order = append(order, "a1")
		s.Yield()
		order = append(order, "a2")
	})
	s.Go("b", func() {
		order = append(order, "b1")
		s.Yield()
		order = append(order, "b2")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a1 b1 a2 b2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestWaitGroup(t *testing.T) {
	s := NewVirtual()
	wg := s.NewWaitGroup("wg")
	done := 0
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		s.Go("worker", func() {
			s.Sleep(time.Duration(i) * time.Second)
			done++
			wg.Done()
		})
	}
	var joinedAt time.Time
	start := s.Now()
	s.Go("joiner", func() {
		if !wg.WaitTimeout(time.Minute) {
			t.Error("WaitTimeout expired")
		}
		joinedAt = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if got := joinedAt.Sub(start); got != 3*time.Second {
		t.Fatalf("joined after %v, want 3s", got)
	}
}

func TestWaitGroupTimeout(t *testing.T) {
	s := NewVirtual()
	wg := s.NewWaitGroup("wg")
	wg.Add(1)
	s.Go("j", func() {
		if wg.WaitTimeout(time.Second) {
			t.Error("WaitTimeout should have failed")
		}
	})
	s.Go("done-later", func() {
		s.Sleep(5 * time.Second)
		wg.Done()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectFromForeignGoroutine(t *testing.T) {
	s := New(RealTime, time.Unix(0, 0))
	inbox := s.NewCond("inbox")
	var delivered, got int
	// The consumer blocks with no pending timer, exercising the
	// "wait for external input" path of the real-time controller.
	s.Go("consumer", func() {
		for delivered == 0 {
			inbox.Wait()
		}
		got = delivered
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		s.Inject("external", func() {
			delivered = 99
			inbox.Signal()
		})
	}()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("got = %d, want 99", got)
	}
}

func TestInjectWait(t *testing.T) {
	s := New(RealTime, time.Unix(0, 0))
	quit := s.NewCond("quit")
	quitting := false
	s.Go("keeper", func() {
		for !quitting {
			quit.Wait()
		}
	})
	result := 0
	doneRun := make(chan error, 1)
	go func() { doneRun <- s.Run() }()
	s.InjectWait("compute", func() { result = 42 })
	if result != 42 {
		t.Fatalf("result = %d", result)
	}
	s.Inject("quit", func() {
		quitting = true
		quit.Broadcast()
	})
	if err := <-doneRun; err != nil {
		t.Fatal(err)
	}
}

func TestStop(t *testing.T) {
	s := New(RealTime, time.Unix(0, 0))
	s.Go("forever", func() {
		for {
			s.Sleep(time.Hour)
		}
	})
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Stop()
	}()
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestDeterministicSwitchCount(t *testing.T) {
	run := func() uint64 {
		s := NewVirtual()
		c := s.NewCond("c")
		for i := 0; i < 20; i++ {
			i := i
			s.Go("w", func() {
				s.Sleep(time.Duration(i%5) * time.Second)
				c.WaitTimeout(time.Duration(i) * time.Second)
			})
		}
		s.Go("sig", func() {
			for j := 0; j < 10; j++ {
				s.Sleep(time.Second)
				c.Broadcast()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Switches()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("switch count varies: %d vs %d", got, first)
		}
	}
}

func TestRealTimePacing(t *testing.T) {
	s := New(RealTime, time.Unix(0, 0))
	s.SetSpeed(0.5) // half speed: 40ms virtual ≈ 20ms wall
	s.Go("sleeper", func() { s.Sleep(40 * time.Millisecond) })
	wall := time.Now()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(wall)
	if elapsed < 10*time.Millisecond {
		t.Fatalf("real-time run finished too fast: %v", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("real-time run took too long: %v", elapsed)
	}
}

func TestModeString(t *testing.T) {
	if Virtual.String() != "virtual" || RealTime.String() != "realtime" {
		t.Fatal("Mode.String mismatch")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatalf("unknown mode: %s", Mode(9))
	}
}

func TestFiredTimersCounter(t *testing.T) {
	s := NewVirtual()
	s.Go("t", func() {
		for i := 0; i < 7; i++ {
			s.Sleep(time.Second)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.FiredTimers(); got != 7 {
		t.Fatalf("FiredTimers = %d, want 7", got)
	}
}
