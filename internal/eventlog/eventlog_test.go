package eventlog

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"excovery/internal/sched"
	"excovery/internal/vclock"
)

func newBusAndRecorder(s *sched.Scheduler, node string) (*Bus, *Recorder) {
	b := NewBus(s)
	r := NewRecorder(node, vclock.Perfect{S: s}, func(ev Event) { b.Publish(ev) })
	return b, r
}

func TestRecorderEmitStampsLocalTime(t *testing.T) {
	s := sched.NewVirtual()
	clock := vclock.NewSkewed(s, 100*time.Millisecond, 0)
	r := NewRecorder("n1", clock, nil)
	s.Go("t", func() {
		ev := r.Emit("started", nil)
		if got := ev.Time.Sub(s.Now()); got != 100*time.Millisecond {
			t.Errorf("event time offset = %v, want 100ms (local clock)", got)
		}
		if ev.Node != "n1" || ev.Type != "started" || ev.Run != -1 {
			t.Errorf("event fields: %+v", ev)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderRunScoping(t *testing.T) {
	s := sched.NewVirtual()
	r := NewRecorder("n1", vclock.Perfect{S: s}, nil)
	s.Go("t", func() {
		r.Emit("experiment_init", nil)
		r.SetRun(0)
		r.Emit("a", nil)
		r.SetRun(1)
		r.Emit("b", nil)
		r.Emit("c", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.RunEvents(1)); got != 2 {
		t.Fatalf("run 1 events = %d, want 2", got)
	}
	if got := len(r.RunEvents(-1)); got != 1 {
		t.Fatalf("experiment events = %d, want 1", got)
	}
	if got := r.RunEvents(0); len(got) != 0 {
		t.Fatalf("run 0 still held after moving to run 1: %v", got)
	}
}

func TestBusPublishAssignsDenseSeq(t *testing.T) {
	s := sched.NewVirtual()
	b, r := newBusAndRecorder(s, "n1")
	s.Go("t", func() {
		for i := 0; i < 5; i++ {
			r.Emit("e", nil)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ev := range b.Events() {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, ev.Seq)
		}
	}
}

func TestWaitForBlocksUntilMatch(t *testing.T) {
	s := sched.NewVirtual()
	b, r := newBusAndRecorder(s, "n1")
	var gotAt time.Time
	start := s.Now()
	s.Go("waiter", func() {
		ev, ok := b.WaitFor(Match{Type: "go"}, 0, 0)
		if !ok || ev.Type != "go" {
			t.Errorf("WaitFor = %+v, %v", ev, ok)
		}
		gotAt = s.Now()
	})
	s.Go("emitter", func() {
		s.Sleep(time.Second)
		r.Emit("noise", nil)
		s.Sleep(time.Second)
		r.Emit("go", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := gotAt.Sub(start); got != 2*time.Second {
		t.Fatalf("matched after %v, want 2s", got)
	}
}

func TestWaitForSeesPastEvents(t *testing.T) {
	s := sched.NewVirtual()
	b, r := newBusAndRecorder(s, "n1")
	s.Go("t", func() {
		r.Emit("early", nil)
		ev, ok := b.WaitFor(Match{Type: "early"}, 0, time.Second)
		if !ok {
			t.Error("WaitFor missed a past event")
		}
		_ = ev
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMarkerSkipsPastEvents(t *testing.T) {
	s := sched.NewVirtual()
	b, r := newBusAndRecorder(s, "n1")
	s.Go("t", func() {
		r.Emit("x", nil)
		marker := b.Marker() // wait_marker semantics
		if _, ok := b.WaitFor(Match{Type: "x"}, marker, time.Second); ok {
			t.Error("WaitFor matched an event before the marker")
		}
		s.Go("later", func() { r.Emit("x", nil) })
		if _, ok := b.WaitFor(Match{Type: "x"}, marker, time.Second); !ok {
			t.Error("WaitFor missed event after marker")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitForTimeout(t *testing.T) {
	s := sched.NewVirtual()
	b, _ := newBusAndRecorder(s, "n1")
	start := s.Now()
	s.Go("t", func() {
		_, ok := b.WaitFor(Match{Type: "never"}, 0, 30*time.Second)
		if ok {
			t.Error("WaitFor should have timed out")
		}
		if got := s.Now().Sub(start); got != 30*time.Second {
			t.Errorf("timed out after %v, want 30s (the paper's SD deadline)", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchSemantics(t *testing.T) {
	ev := Event{
		Node: "A", Type: "sd_service_add",
		Params: map[string]string{"service": "B", "extra": "1"},
	}
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"empty matches all", Match{}, true},
		{"type match", Match{Type: "sd_service_add"}, true},
		{"type mismatch", Match{Type: "sd_service_del"}, false},
		{"node in set", Match{Nodes: []string{"C", "A"}}, true},
		{"node not in set", Match{Nodes: []string{"C"}}, false},
		{"param exact", Match{Params: map[string]string{"service": "B"}}, true},
		{"param wrong value", Match{Params: map[string]string{"service": "X"}}, false},
		{"param any value (presence)", Match{Params: map[string]string{"extra": ""}}, true},
		{"param missing", Match{Params: map[string]string{"nope": ""}}, false},
		{"param any-of hit", Match{ParamKey: "service", ParamAnyOf: []string{"A", "B"}}, true},
		{"param any-of miss", Match{ParamKey: "service", ParamAnyOf: []string{"C"}}, false},
		{"combined", Match{Type: "sd_service_add", Nodes: []string{"A"}, Params: map[string]string{"service": "B"}}, true},
	}
	for _, c := range cases {
		if got := c.m.Matches(ev); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestWaitForDistinctAllFound(t *testing.T) {
	// Fig. 10: SU waits for sd_service_add covering all SM instances.
	s := sched.NewVirtual()
	b := NewBus(s)
	rs := make([]*Recorder, 3)
	for i, n := range []string{"sm0", "sm1", "sm2"} {
		rs[i] = NewRecorder(n, vclock.Perfect{S: s}, func(ev Event) { b.Publish(ev) })
	}
	su := NewRecorder("su", vclock.Perfect{S: s}, func(ev Event) { b.Publish(ev) })
	var okResult bool
	var n int
	s.Go("su", func() {
		evs, ok := b.WaitForDistinct(
			Match{Type: "sd_service_add", Nodes: []string{"su"}},
			"service", []string{"sm0", "sm1", "sm2"}, 0, 30*time.Second)
		okResult = ok
		n = len(evs)
	})
	s.Go("discoveries", func() {
		for i, r := range rs {
			s.Sleep(time.Duration(i+1) * time.Second)
			// The SU node emits the discovery event naming the found SM.
			su.Emit("sd_service_add", map[string]string{"service": r.Node()})
			// Duplicate discovery of the same SM must not count twice.
			su.Emit("sd_service_add", map[string]string{"service": r.Node()})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !okResult || n != 3 {
		t.Fatalf("WaitForDistinct = %d events, ok=%v", n, okResult)
	}
}

func TestWaitForDistinctTimeoutPartial(t *testing.T) {
	s := sched.NewVirtual()
	b, r := newBusAndRecorder(s, "su")
	s.Go("su", func() {
		evs, ok := b.WaitForDistinct(Match{Type: "sd_service_add"},
			"service", []string{"sm0", "sm1"}, 0, 10*time.Second)
		if ok {
			t.Error("expected timeout")
		}
		if len(evs) != 1 {
			t.Errorf("partial = %d events, want 1", len(evs))
		}
	})
	s.Go("one", func() {
		s.Sleep(time.Second)
		r.Emit("sd_service_add", map[string]string{"service": "sm0"})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBusReset(t *testing.T) {
	s := sched.NewVirtual()
	b, r := newBusAndRecorder(s, "n")
	s.Go("t", func() {
		r.Emit("a", nil)
		b.Reset()
		if b.Len() != 0 || b.Marker() != 0 {
			t.Error("Reset did not clear bus")
		}
		r.Emit("b", nil)
		if b.Events()[0].Seq != 1 {
			t.Error("seq did not restart after Reset")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBusResetReusesArray: after Reset the next run publishes into the
// same backing array, yet a Snapshot of the previous run stays as it was,
// and markers and waits count from the restarted sequence.
func TestBusResetReusesArray(t *testing.T) {
	s := sched.NewVirtual()
	b, r := newBusAndRecorder(s, "n")
	var snap []Event
	s.Go("t", func() {
		r.SetRun(0)
		for _, typ := range []string{"a", "b", "c"} {
			r.Emit(typ, map[string]string{"run": "0"})
		}
		snap = b.Snapshot()
		backing := &b.Events()[0]
		b.Reset()
		r.SetRun(1)
		if m := b.Marker(); m != 0 {
			t.Errorf("marker after Reset = %d, want 0", m)
		}
		r.Emit("x", nil)
		marker := b.Marker()
		s.Go("later", func() {
			s.Sleep(time.Second)
			r.Emit("b", nil)
			r.Emit("y", nil)
		})
		ev, ok := b.WaitFor(Match{Type: "y"}, marker, time.Minute)
		if !ok || ev.Seq != 3 || ev.Run != 1 {
			t.Errorf("WaitFor after Reset = %v, %v; want run 1's y at seq 3", ev, ok)
		}
		if _, ok := b.WaitFor(Match{Type: "c"}, 0, time.Second); ok {
			t.Error("WaitFor matched an event of the run before Reset")
		}
		if &b.Events()[0] != backing {
			t.Error("Reset did not reuse the backing array")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d events, want 3", len(snap))
	}
	for i, typ := range []string{"a", "b", "c"} {
		if ev := snap[i]; ev.Type != typ || ev.Run != 0 || ev.Seq != uint64(i+1) || ev.Param("run") != "0" {
			t.Errorf("snapshot[%d] = %v after the next run published, want run 0's %s at seq %d", i, ev, typ, i+1)
		}
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Run: 3, Node: "A", Type: "sd_init_done",
		Time:   time.Date(2014, 5, 19, 10, 0, 0, 0, time.UTC),
		Params: map[string]string{"b": "2", "a": "1", "c": "3"}}
	// Params print in sorted key order for stable logs: the same line
	// every time, although no rotation of the map's keys is sorted.
	want := "[run 3] sd_init_done@A 10:00:00.000000 {a=1, b=2, c=3}"
	for i := 0; i < 64; i++ {
		if got := ev.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

// Property: for any sequence of published events, WaitFor with from=marker
// taken after k events never returns one of the first k events.
func TestMarkerExclusionProperty(t *testing.T) {
	f := func(types []uint8, k uint8) bool {
		if len(types) == 0 {
			return true
		}
		s := sched.NewVirtual()
		b := NewBus(s)
		r := NewRecorder("n", vclock.Perfect{S: s}, func(ev Event) { b.Publish(ev) })
		cut := int(k) % (len(types) + 1)
		holds := true
		s.Go("t", func() {
			for _, ty := range types[:cut] {
				r.Emit(typeName(ty), nil)
			}
			marker := b.Marker()
			for _, ty := range types[cut:] {
				r.Emit(typeName(ty), nil)
			}
			for _, ty := range types[:cut] {
				ev, ok := b.WaitFor(Match{Type: typeName(ty)}, marker, 1)
				if ok && ev.Seq <= uint64(cut) {
					holds = false
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func typeName(b uint8) string {
	return string(rune('a' + b%4))
}

func TestCancelWaitersAbortsPendingWaits(t *testing.T) {
	s := sched.NewVirtual()
	b, r := newBusAndRecorder(s, "n1")
	gaveUp := 0
	s.Go("w1", func() {
		if _, ok := b.WaitFor(Match{Type: "never"}, 0, 0); !ok {
			gaveUp++
		}
	})
	s.Go("w2", func() {
		if _, ok := b.WaitForDistinct(Match{Type: "never"}, "node",
			[]string{"x"}, 0, 0); !ok {
			gaveUp++
		}
	})
	s.Go("canceler", func() {
		s.Sleep(time.Second)
		b.CancelWaiters()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("cancel did not unblock waiters: %v", err)
	}
	if gaveUp != 2 {
		t.Fatalf("gaveUp = %d", gaveUp)
	}
	// New waits after cancellation behave normally.
	s2 := sched.NewVirtual()
	b2, r2 := newBusAndRecorder(s2, "n1")
	b2.CancelWaiters()
	s2.Go("w", func() {
		if _, ok := b2.WaitFor(Match{Type: "go"}, 0, time.Minute); !ok {
			t.Error("post-cancel wait failed")
		}
	})
	s2.Go("e", func() { s2.Sleep(time.Second); r2.Emit("go", nil) })
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	_ = r
}

// TestRunEventsInterleavedRuns pins what a recorder holds as run ids come
// and go: an in-place retry (the same run set again) accumulates its
// attempts, the experiment-scoped run -1 is kept throughout, and moving to
// another run releases the previous one. SetRun calls that record nothing
// change nothing held.
func TestRunEventsInterleavedRuns(t *testing.T) {
	s := sched.NewVirtual()
	r := NewRecorder("n1", vclock.Perfect{S: s}, nil)
	emit := func(run int, types ...string) {
		r.SetRun(run)
		for _, typ := range types {
			r.Emit(typ, nil)
		}
	}
	// check holds every run in [-2, 4] to want: the listed runs' types, in
	// recording order, and nothing for the others.
	check := func(want map[int][]string) {
		t.Helper()
		for run := -2; run <= 4; run++ {
			got := r.RunEvents(run)
			var types []string
			for _, ev := range got {
				if ev.Run != run {
					t.Fatalf("run %d: holds %v", run, ev)
				}
				types = append(types, ev.Type)
			}
			if strings.Join(types, ",") != strings.Join(want[run], ",") {
				t.Fatalf("run %d: %v, want %v", run, types, want[run])
			}
		}
	}
	emit(-1, "experiment_init")
	emit(0, "a0", "b0")
	check(map[int][]string{-1: {"experiment_init"}, 0: {"a0", "b0"}})
	emit(1, "a1")
	check(map[int][]string{-1: {"experiment_init"}, 1: {"a1"}})
	emit(1, "a1-retry", "b1-retry") // in-place retry: same run id
	check(map[int][]string{-1: {"experiment_init"}, 1: {"a1", "a1-retry", "b1-retry"}})
	emit(-1, "run_recovered") // run -1 releases nothing
	check(map[int][]string{-1: {"experiment_init", "run_recovered"}, 1: {"a1", "a1-retry", "b1-retry"}})
	emit(2) // prepared, nothing recorded: run 1 is released all the same
	check(map[int][]string{-1: {"experiment_init", "run_recovered"}})
	emit(3, "a3")
	emit(3, "b3")
	check(map[int][]string{-1: {"experiment_init", "run_recovered"}, 3: {"a3", "b3"}})
	emit(0, "late0") // a run id that comes back starts empty
	check(map[int][]string{-1: {"experiment_init", "run_recovered"}, 0: {"late0"}})
	// The result is a copy: the recorder keeps recording into its own.
	got := r.RunEvents(0)
	got[0].Type = "overwritten"
	if r.RunEvents(0)[0].Type != "late0" {
		t.Fatal("RunEvents returned a view of the recorder's events")
	}
}

// BenchmarkRecorderRunEvents harvests the newest run of a recorder that
// has recorded `prior` earlier runs: the cost must not depend on prior (it
// grew linearly, so a campaign paid O(runs²)).
func BenchmarkRecorderRunEvents(b *testing.B) {
	const perRun = 12
	for _, prior := range []int{0, 1000, 20000} {
		b.Run("prior="+strconv.Itoa(prior), func(b *testing.B) {
			s := sched.NewVirtual()
			r := NewRecorder("n1", vclock.Perfect{S: s}, nil)
			for run := 0; run <= prior; run++ {
				r.SetRun(run)
				for i := 0; i < perRun; i++ {
					r.Emit("ev", nil)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := r.RunEvents(prior); len(got) != perRun {
					b.Fatalf("%d events, want %d", len(got), perRun)
				}
			}
		})
	}
}
