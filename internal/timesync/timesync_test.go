package timesync

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"excovery/internal/sched"
	"excovery/internal/vclock"
)

// jitteryProbe simulates a control channel with request/response latency:
// each probe sleeps a random delay, reads the node clock, and sleeps again.
func jitteryProbe(s *sched.Scheduler, c vclock.Clock, rng *rand.Rand, maxLeg time.Duration) Probe {
	return func() ([]time.Time, error) {
		s.Sleep(time.Duration(rng.Int63n(int64(maxLeg))))
		t := c.Now()
		s.Sleep(time.Duration(rng.Int63n(int64(maxLeg))))
		return []time.Time{t}, nil
	}
}

// instantProbe reads the clocks without any channel latency.
func instantProbe(clocks ...vclock.Clock) Probe {
	return func() ([]time.Time, error) {
		out := make([]time.Time, len(clocks))
		for i, c := range clocks {
			out[i] = c.Now()
		}
		return out, nil
	}
}

// measureOne measures a single node; it runs in scheduler task context, so
// a missing result is reported with Errorf, not Fatalf.
func measureOne(t *testing.T, est *Estimator, probe Probe) Measurement {
	t.Helper()
	ms := est.Measure([]string{"n1"}, probe)
	if len(ms) != 1 {
		t.Errorf("Measure returned %d measurements, want 1", len(ms))
		return Measurement{}
	}
	return ms[0]
}

func TestMeasureExactOnInstantChannel(t *testing.T) {
	s := sched.NewVirtual()
	node := vclock.NewSkewed(s, 123*time.Millisecond, 0)
	est := &Estimator{Ref: vclock.Perfect{S: s}}
	s.Go("t", func() {
		m := measureOne(t, est, instantProbe(node))
		if m.Offset != 123*time.Millisecond {
			t.Errorf("offset = %v, want 123ms", m.Offset)
		}
		if m.ErrorBound != 0 {
			t.Errorf("bound = %v, want 0 on instant channel", m.ErrorBound)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureWithJitterWithinBound(t *testing.T) {
	s := sched.NewVirtual()
	trueOffset := -40 * time.Millisecond
	node := vclock.NewSkewed(s, trueOffset, 0)
	rng := rand.New(rand.NewSource(7))
	est := &Estimator{Ref: vclock.Perfect{S: s}}
	s.Go("t", func() {
		m := measureOne(t, est, jitteryProbe(s, node, rng, 5*time.Millisecond))
		err := m.Offset - trueOffset
		if err < 0 {
			err = -err
		}
		if err > m.ErrorBound {
			t.Errorf("estimation error %v exceeds reported bound %v", err, m.ErrorBound)
		}
		if m.ErrorBound > 5*time.Millisecond {
			t.Errorf("bound %v too loose for 5ms legs", m.ErrorBound)
		}
		if m.Samples != samples {
			t.Errorf("samples = %d, want %d", m.Samples, samples)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectMapsToReferenceBase(t *testing.T) {
	s := sched.NewVirtual()
	node := vclock.NewSkewed(s, 250*time.Millisecond, 0)
	est := &Estimator{Ref: vclock.Perfect{S: s}}
	s.Go("t", func() {
		m := measureOne(t, est, instantProbe(node))
		s.Sleep(10 * time.Second)
		local := node.Now()
		ref := Correct(local, m)
		diff := ref.Sub(s.Now())
		if diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("corrected time deviates by %v", diff)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureWithDrift(t *testing.T) {
	// With drift, the measured offset is only valid near the measurement
	// instant — exactly why the paper measures before every run.
	s := sched.NewVirtual()
	node := vclock.NewSkewed(s, 0, 200) // 200 ppm
	est := &Estimator{Ref: vclock.Perfect{S: s}}
	s.Go("t", func() {
		s.Sleep(1000 * time.Second) // drift accumulates 0.2 s
		m := measureOne(t, est, instantProbe(node))
		want := 200 * time.Millisecond
		diff := m.Offset - want
		if diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("offset = %v, want ≈ %v", m.Offset, want)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureHostGroup samples two nodes of one host in one request per
// sample: each node gets its own offset, in list order, under the shared
// round trip's bound.
func TestMeasureHostGroup(t *testing.T) {
	s := sched.NewVirtual()
	a := vclock.NewSkewed(s, 30*time.Millisecond, 0)
	b := vclock.NewSkewed(s, -70*time.Millisecond, 0)
	rng := rand.New(rand.NewSource(11))
	est := &Estimator{Ref: vclock.Perfect{S: s}}
	probes := 0
	probe := func() ([]time.Time, error) {
		probes++
		s.Sleep(time.Duration(rng.Int63n(int64(4 * time.Millisecond))))
		out := []time.Time{a.Now(), b.Now()}
		s.Sleep(time.Duration(rng.Int63n(int64(4 * time.Millisecond))))
		return out, nil
	}
	s.Go("t", func() {
		ms := est.Measure([]string{"a", "b"}, probe)
		if len(ms) != 2 || ms[0].Node != "a" || ms[1].Node != "b" {
			t.Errorf("measurements = %v, want a then b", ms)
			return
		}
		if ms[0].ErrorBound != ms[1].ErrorBound || ms[0].MeasuredAt != ms[1].MeasuredAt {
			t.Errorf("nodes of one sample got different rounds: %v", ms)
		}
		for i, want := range []time.Duration{30 * time.Millisecond, -70 * time.Millisecond} {
			if d := ms[i].Offset - want; d > ms[i].ErrorBound || -d > ms[i].ErrorBound {
				t.Errorf("%s: offset %v, want %v ± %v", ms[i].Node, ms[i].Offset, want, ms[i].ErrorBound)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if probes != samples {
		t.Errorf("%d requests for %d samples of two nodes, want %d", probes, samples, samples)
	}
}

// TestFailedSampleNeverWins: a failed request used to come back as the zero
// time, which won as the first sample and put the offset near −292 years.
// A failed or short sample is skipped; with no good sample there is no
// measurement at all.
func TestFailedSampleNeverWins(t *testing.T) {
	s := sched.NewVirtual()
	node := vclock.NewSkewed(s, 5*time.Millisecond, 0)
	est := &Estimator{Ref: vclock.Perfect{S: s}}
	calls := 0
	flaky := func() ([]time.Time, error) {
		calls++
		switch calls {
		case 1:
			return nil, errors.New("connection reset")
		case 2:
			return []time.Time{}, nil // answered for no node
		}
		s.Sleep(time.Millisecond)
		return []time.Time{node.Now()}, nil
	}
	dead := func() ([]time.Time, error) { return nil, errors.New("connection refused") }
	s.Go("t", func() {
		m := measureOne(t, est, flaky)
		if m.Offset < 4*time.Millisecond || m.Offset > 6*time.Millisecond {
			t.Errorf("offset = %v, want ≈ 5ms from the one good sample", m.Offset)
		}
		if ms := est.Measure([]string{"n1"}, dead); ms != nil {
			t.Errorf("measurements from a dead node = %v, want none", ms)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementString(t *testing.T) {
	m := Measurement{Node: "x", Offset: time.Millisecond, ErrorBound: time.Microsecond, Samples: 5}
	if got := m.String(); got == "" {
		t.Fatal("empty String()")
	}
}
