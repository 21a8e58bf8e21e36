package viz

import (
	"strings"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
)

var t0 = time.Date(2014, 5, 19, 0, 0, 0, 0, time.UTC)

func ev(node, typ string, at time.Duration) eventlog.Event {
	return eventlog.Event{Node: node, Type: typ, Time: t0.Add(at)}
}

func TestTimelineBasics(t *testing.T) {
	events := []eventlog.Event{
		ev("A", "sd_start_publish", 0),
		ev("B", "sd_start_search", 5*time.Second),
		ev("B", "sd_service_add", 5*time.Second+50*time.Millisecond),
	}
	out := Timeline(events, 60)
	// One lane per node, in sorted order.
	lines := strings.Split(out, "\n")
	var laneA, laneB string
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "A ") {
			laneA = l
		}
		if strings.HasPrefix(strings.TrimSpace(l), "B ") {
			laneB = l
		}
	}
	if laneA == "" || laneB == "" {
		t.Fatalf("missing lanes:\n%s", out)
	}
	// Marker a (first type) at the start of A's lane.
	if !strings.Contains(laneA, "|a") {
		t.Errorf("publish marker not at t=0: %q", laneA)
	}
	// Legend resolves all three types.
	for _, typ := range []string{"sd_start_publish", "sd_start_search", "sd_service_add"} {
		if !strings.Contains(out, typ) {
			t.Errorf("legend missing %s\n%s", typ, out)
		}
	}
}

// TestTimelineLanesInNodeOrder: nodes first seen in an order that no
// rotation sorts get their lanes in node order, the same every time.
func TestTimelineLanesInNodeOrder(t *testing.T) {
	events := []eventlog.Event{
		ev("B", "sd_start_search", 0),
		ev("A", "sd_start_publish", time.Second),
		ev("C", "sd_service_add", 2*time.Second),
	}
	first := Timeline(events, 40)
	var lanes []string
	for _, l := range strings.Split(first, "\n") {
		if name, _, ok := strings.Cut(strings.TrimSpace(l), "  |"); ok {
			lanes = append(lanes, name)
		}
	}
	if strings.Join(lanes, ",") != "A,B,C" {
		t.Fatalf("lanes %v, want [A B C]:\n%s", lanes, first)
	}
	for i := 0; i < 64; i++ {
		if got := Timeline(events, 40); got != first {
			t.Fatalf("call %d differs:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}

func TestTimelineEmptyAndZeroSpan(t *testing.T) {
	if got := Timeline(nil, 40); !strings.Contains(got, "no events") {
		t.Fatalf("empty = %q", got)
	}
	// All events at the same instant must not divide by zero.
	out := Timeline([]eventlog.Event{ev("A", "x", 0), ev("A", "y", 0)}, 0)
	if !strings.Contains(out, "x") || !strings.Contains(out, "y") {
		t.Fatalf("zero-span output:\n%s", out)
	}
}

func TestPhasesCompleteRun(t *testing.T) {
	events := []eventlog.Event{
		ev("A", "run_init", 0),
		ev("A", "sd_start_publish", 10*time.Millisecond),
		ev("B", "sd_start_search", 5*time.Second),
		ev("B", "sd_service_add", 5*time.Second+40*time.Millisecond),
		ev("B", "done", 5*time.Second+41*time.Millisecond),
		ev("B", "run_exit", 5*time.Second+50*time.Millisecond),
	}
	s := Phases(events)
	if !s.Complete {
		t.Fatalf("phases = %+v", s)
	}
	if s.Preparation != 5*time.Second {
		t.Errorf("prep = %v", s.Preparation)
	}
	if s.TR != 40*time.Millisecond {
		t.Errorf("t_R = %v", s.TR)
	}
	if s.Execution != 41*time.Millisecond {
		t.Errorf("exec = %v", s.Execution)
	}
	if s.Cleanup != 9*time.Millisecond {
		t.Errorf("cleanup = %v", s.Cleanup)
	}
	if !strings.Contains(s.String(), "t_R") {
		t.Errorf("String = %q", s.String())
	}
}

func TestPhasesIncomplete(t *testing.T) {
	events := []eventlog.Event{
		ev("B", "sd_start_search", time.Second),
		ev("B", "wait_timeout", 31*time.Second),
	}
	s := Phases(events)
	if s.Complete {
		t.Fatal("incomplete run reported complete")
	}
	if !strings.Contains(s.String(), "incomplete") {
		t.Errorf("String = %q", s.String())
	}
	if Phases(nil).Complete {
		t.Fatal("empty events complete")
	}
	// No search at all: zero summary.
	if s := Phases([]eventlog.Event{ev("A", "x", 0)}); s.Preparation != 0 || s.Complete {
		t.Fatalf("no-search phases = %+v", s)
	}
}

func TestTimelineOfRealRun(t *testing.T) {
	x, err := core.New(desc.OneShot(30), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := Timeline(rep.Results[0].Events, 72)
	if !strings.Contains(out, "sd_service_add") {
		t.Fatalf("real-run timeline lacks discovery:\n%s", out)
	}
	ph := Phases(rep.Results[0].Events)
	if !ph.Complete || ph.Preparation < 4*time.Second {
		t.Fatalf("real-run phases = %+v", ph)
	}
}
