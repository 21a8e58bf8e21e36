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
	if len(r.Events()) != 4 {
		t.Fatalf("total events = %d", len(r.Events()))
	}
	if got := len(r.RunEvents(1)); got != 2 {
		t.Fatalf("run 1 events = %d, want 2", got)
	}
	if got := len(r.RunEvents(-1)); got != 1 {
		t.Fatalf("experiment events = %d, want 1", got)
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatal("Reset did not clear events")
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

func TestEventString(t *testing.T) {
	ev := Event{Run: 3, Node: "A", Type: "sd_init_done",
		Time:   time.Date(2014, 5, 19, 10, 0, 0, 0, time.UTC),
		Params: map[string]string{"b": "2", "a": "1"}}
	got := ev.String()
	for _, want := range []string{"[run 3]", "sd_init_done@A", "a=1", "b=2"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
	// Params print in sorted key order for stable logs.
	if strings.Index(got, "a=1") > strings.Index(got, "b=2") {
		t.Errorf("params not sorted: %q", got)
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

// TestRunEventsInterleavedRuns holds the segment index to the scan it
// replaced: run ids that come back (a retried attempt, the experiment-scoped
// run -1 between runs), SetRun calls that record nothing, and a Reset.
func TestRunEventsInterleavedRuns(t *testing.T) {
	s := sched.NewVirtual()
	r := NewRecorder("n1", vclock.Perfect{S: s}, nil)
	emit := func(run int, types ...string) {
		r.SetRun(run)
		for _, typ := range types {
			r.Emit(typ, nil)
		}
	}
	check := func() {
		t.Helper()
		for run := -2; run <= 4; run++ {
			var want []Event
			for _, ev := range r.Events() {
				if ev.Run == run {
					want = append(want, ev)
				}
			}
			got := r.RunEvents(run)
			if len(got) != len(want) {
				t.Fatalf("run %d: %d events, want %d", run, len(got), len(want))
			}
			for i := range got {
				if got[i].Type != want[i].Type || got[i].Run != run {
					t.Fatalf("run %d event %d = %v, want %v", run, i, got[i], want[i])
				}
			}
		}
	}
	emit(-1, "experiment_init")
	emit(0, "a0", "b0")
	emit(1, "a1")
	emit(2) // prepared, nothing recorded
	emit(1, "a1-retry", "b1-retry")
	emit(-1, "run_recovered")
	emit(3, "a3")
	emit(3, "b3") // same run set twice: one segment
	emit(0, "late0")
	check()
	if got := r.RunEvents(1); len(got) != 3 || got[1].Type != "a1-retry" {
		t.Fatalf("retried run 1 = %v", got)
	}
	// The result is a copy: the recorder keeps recording into its own.
	got := r.RunEvents(3)
	got[0].Type = "overwritten"
	if r.RunEvents(3)[0].Type != "a3" {
		t.Fatal("RunEvents returned a view of the recorder's events")
	}
	r.Reset()
	emit(1, "fresh")
	check()
}

// BenchmarkRecorderRunEvents harvests the newest run of a recorder that
// already holds the events of `prior` earlier runs: the cost must not
// depend on prior (it grew linearly, so a campaign paid O(runs²)).
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
