package sched

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestForeignEntryPoints drives a RealTime keep-alive Run while foreign
// goroutines call the entry points that synchronize: Now, Inject,
// InjectWait and Stop. Each goroutine's injects must run in the order it
// made them, Now must never go backwards, and a foreign Stop must end the
// Run. Under -race it also checks that the scheduler shares nothing else
// with those goroutines.
func TestForeignEntryPoints(t *testing.T) {
	epoch := time.Date(2014, 5, 19, 0, 0, 0, 0, time.UTC)
	s := New(RealTime, epoch)
	s.SetSpeed(0.01)
	s.SetKeepAlive(true)
	// The ticker moves virtual time until the injects are done.
	halt := false // touched by tasks only
	tickerDone := make(chan struct{})
	s.Go("ticker", func() {
		defer close(tickerDone)
		for !halt {
			s.Sleep(time.Millisecond)
		}
	})
	done := make(chan error, 1)
	go func() { done <- s.Run() }()

	const goroutines, perG = 4, 60
	ran := make([][]int, goroutines) // appended to by injected tasks only
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := s.Now()
			for k := 0; k < perG; k++ {
				record := func() { ran[g] = append(ran[g], k) }
				// Odd k waits, so the last call returns only after every
				// earlier inject of this goroutine has run.
				if k%2 == 0 {
					s.Inject("inject", record)
				} else {
					s.InjectWait("inject-wait", record)
				}
				now := s.Now()
				if now.Before(last) {
					t.Errorf("goroutine %d: Now went backwards: %v after %v", g, now, last)
				}
				if now.Location() != epoch.Location() {
					t.Errorf("goroutine %d: Now in %v, want the epoch's %v", g, now.Location(), epoch.Location())
				}
				last = now
			}
		}()
	}
	wg.Wait()
	s.Inject("halt", func() { halt = true })
	<-tickerDone

	s.Stop()
	select {
	case err := <-done:
		if err != ErrStopped {
			t.Fatalf("Run = %v, want ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a foreign Stop did not end the keep-alive Run")
	}
	for g, ks := range ran {
		if len(ks) != perG {
			t.Fatalf("goroutine %d: %d injects ran, want %d", g, len(ks), perG)
		}
		for i, k := range ks {
			if k != i {
				t.Fatalf("goroutine %d: injects ran in order %v, want FIFO", g, ks)
			}
		}
	}
	if !s.Now().After(epoch) {
		t.Fatalf("virtual time never advanced: %v", s.Now())
	}
}

// TestInjectBeforeRunWaitsForRun checks that in Virtual mode an Inject
// made between Run calls runs at the next Run, after the tasks started
// earlier with Go.
func TestInjectBeforeRunWaitsForRun(t *testing.T) {
	s := NewVirtual()
	var order []string
	s.Go("a", func() { order = append(order, "a") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Go("b", func() {
		order = append(order, "b")
		s.Sleep(time.Second)
		order = append(order, "b'")
	})
	s.Inject("i", func() { order = append(order, "i") })
	if len(order) != 1 {
		t.Fatalf("order = %v before the second Run, want [a]", order)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "a b i b'" {
		t.Fatalf("order = %s, want a b i b'", got)
	}
}
