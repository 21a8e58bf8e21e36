package vclock

import (
	"testing"
	"testing/quick"
	"time"

	"excovery/internal/sched"
)

func TestPerfectTracksScheduler(t *testing.T) {
	s := sched.NewVirtual()
	c := Perfect{S: s}
	s.Go("t", func() {
		before := s.Now()
		if !c.Now().Equal(before) {
			t.Error("Perfect clock deviates at start")
		}
		s.Sleep(42 * time.Second)
		if got := c.Now().Sub(before); got != 42*time.Second {
			t.Errorf("Perfect clock advanced %v, want 42s", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedConstantOffset(t *testing.T) {
	s := sched.NewVirtual()
	c := NewSkewed(s, 150*time.Millisecond, 0)
	s.Go("t", func() {
		if got := c.Now().Sub(s.Now()); got != 150*time.Millisecond {
			t.Errorf("offset = %v, want 150ms", got)
		}
		s.Sleep(time.Hour)
		if got := c.Now().Sub(s.Now()); got != 150*time.Millisecond {
			t.Errorf("offset after 1h = %v, want 150ms (no drift)", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedDrift(t *testing.T) {
	s := sched.NewVirtual()
	c := NewSkewed(s, 0, 100) // 100 ppm fast
	s.Go("t", func() {
		s.Sleep(10000 * time.Second)
		// 100 ppm over 10000 s = 1 s.
		got := c.Now().Sub(s.Now())
		if got < 999*time.Millisecond || got > 1001*time.Millisecond {
			t.Errorf("drift after 10000s = %v, want ~1s", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedNegativeDrift(t *testing.T) {
	s := sched.NewVirtual()
	c := NewSkewed(s, time.Second, -50)
	s.Go("t", func() {
		s.Sleep(20000 * time.Second)
		// -50 ppm over 20000 s = -1 s; plus 1 s offset = 0.
		got := c.Now().Sub(s.Now())
		if got < -time.Millisecond || got > time.Millisecond {
			t.Errorf("deviation = %v, want ~0", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: local clocks are monotone as long as drift > -1e6 ppm (i.e. the
// clock does not run backwards), for arbitrary offsets.
func TestSkewedMonotoneProperty(t *testing.T) {
	f := func(offsetMs int16, driftPPM int16, steps uint8) bool {
		s := sched.NewVirtual()
		c := NewSkewed(s, time.Duration(offsetMs)*time.Millisecond, float64(driftPPM))
		ok := true
		s.Go("t", func() {
			prev := c.Now()
			for i := 0; i < int(steps%50)+1; i++ {
				s.Sleep(time.Second)
				cur := c.Now()
				if cur.Before(prev) {
					ok = false
				}
				prev = cur
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
