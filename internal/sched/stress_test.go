package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// randomProgram spawns a web of tasks performing random mixes of sleeps,
// yields, cond waits with timeouts and nested spawns. It exercises the
// scheduler's state machine far beyond what the protocol code does.
func randomProgram(s *Scheduler, seed int64, tasks, steps int) (completions *int) {
	rng := rand.New(rand.NewSource(seed))
	conds := []*Cond{s.NewCond("c0"), s.NewCond("c1"), s.NewCond("c2")}
	done := new(int)
	var spawn func(depth int)
	spawn = func(depth int) {
		// Derive per-task random decisions up front: rng is owned by
		// the constructing goroutine, and the cooperative scheduler
		// serializes task bodies, so sharing it inside tasks is safe —
		// but drawing up front keeps programs identical across runs
		// regardless of interleaving.
		plan := make([]int, steps)
		args := make([]int64, steps)
		for i := range plan {
			plan[i] = rng.Intn(6)
			args[i] = rng.Int63n(1000) + 1
		}
		s.Go("worker", func() {
			for i := 0; i < steps; i++ {
				switch plan[i] {
				case 0:
					s.Sleep(time.Duration(args[i]) * time.Microsecond)
				case 1:
					s.Yield()
				case 2:
					conds[args[i]%3].WaitTimeout(time.Duration(args[i]) * time.Microsecond)
				case 3:
					conds[args[i]%3].Signal()
				case 4:
					conds[args[i]%3].Broadcast()
				case 5:
					if depth < 2 {
						spawn(depth + 1)
					}
				}
			}
			*done++
		})
	}
	for i := 0; i < tasks; i++ {
		spawn(0)
	}
	return done
}

func TestStressRandomPrograms(t *testing.T) {
	f := func(seed int64) bool {
		s := NewVirtual()
		done := randomProgram(s, seed, 8, 30)
		start := s.Now()
		if err := s.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if *done < 8 {
			t.Logf("seed %d: only %d tasks completed", seed, *done)
			return false
		}
		if s.Now().Before(start) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStressDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, uint64, time.Time) {
		s := NewVirtual()
		randomProgram(s, seed, 10, 40)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Switches(), s.FiredTimers(), s.Now()
	}
	for seed := int64(1); seed <= 5; seed++ {
		s1, f1, n1 := run(seed)
		s2, f2, n2 := run(seed)
		if s1 != s2 || f1 != f2 || !n1.Equal(n2) {
			t.Fatalf("seed %d: nondeterministic (%d/%d/%v vs %d/%d/%v)",
				seed, s1, f1, n1, s2, f2, n2)
		}
	}
}

// TestTimeNeverMovesBackward drives a program while sampling Now() from a
// monitor task.
func TestTimeNeverMovesBackward(t *testing.T) {
	s := NewVirtual()
	randomProgram(s, 99, 6, 25)
	prev := s.Now()
	violations := 0
	s.Go("monitor", func() {
		for i := 0; i < 200; i++ {
			now := s.Now()
			if now.Before(prev) {
				violations++
			}
			prev = now
			s.Sleep(37 * time.Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("time moved backward %d times", violations)
	}
}

// TestManyTasks checks scalability of the task machinery (thousands of
// concurrent tasks, as a large emulation would create).
func TestManyTasks(t *testing.T) {
	s := NewVirtual()
	const n = 3000
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		s.Go("t", func() {
			s.Sleep(time.Duration(i%97) * time.Microsecond)
			s.Yield()
			finished++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("finished = %d", finished)
	}
}

// TestRunUntilRepeatedSlices verifies that slicing one program into many
// RunFor windows is equivalent to a single Run.
func TestRunUntilRepeatedSlices(t *testing.T) {
	mk := func() (*Scheduler, *int) {
		s := NewVirtual()
		return s, randomProgram(s, 1234, 6, 20)
	}
	s1, d1 := mk()
	if err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	s2, d2 := mk()
	for i := 0; i < 1000; i++ {
		if err := s2.RunFor(777 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
		if *d2 == *d1 {
			break
		}
	}
	if *d2 != *d1 {
		t.Fatalf("sliced run completed %d tasks, monolithic %d", *d2, *d1)
	}
	if s1.Switches() != s2.Switches() {
		t.Fatalf("switch counts differ: %d vs %d", s1.Switches(), s2.Switches())
	}
}
