package noderpc

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/obs"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// leaseHost builds a host over a one-shot experiment and serves it, after
// setup (if set) has prepared it.
func leaseHost(t *testing.T, setup func(*Host)) (*Host, *httptest.Server) {
	t.Helper()
	x, err := core.New(desc.OneShot(30), core.Options{RealTime: true, Speed: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(x)
	if setup != nil {
		setup(h)
	}
	t.Cleanup(h.Close)
	ts := httptest.NewServer(h.Server())
	t.Cleanup(ts.Close)
	return h, ts
}

func TestLeaseLifecycleAndTakeover(t *testing.T) {
	h, ts := leaseHost(t, nil)

	a := &Lease{C: xmlrpc.NewClient(ts.URL), MasterURL: "http://master-a",
		Session: "s-a", TTL: time.Hour}
	if err := a.Register(); err != nil {
		t.Fatal(err)
	}
	st := h.Status()
	if !st.MasterSet || st.Session != "s-a" || st.Adoptions != 1 {
		t.Fatalf("after register: %+v", st)
	}
	if st.LeaseRemaining <= 0 {
		t.Fatalf("lease remaining = %v", st.LeaseRemaining)
	}
	if err := a.Renew(); err != nil {
		t.Fatal(err)
	}
	if renewals, rebinds, errs := a.Stats(); renewals != 1 || rebinds != 0 || errs != 0 {
		t.Fatalf("stats = %d/%d/%d", renewals, rebinds, errs)
	}

	// A restarted master comes back under a new session id and adopts the
	// host; the dead session's renewals are refused from then on.
	b := &Lease{C: xmlrpc.NewClient(ts.URL), MasterURL: "http://master-b",
		Session: "s-b", TTL: time.Hour}
	if err := b.Register(); err != nil {
		t.Fatal(err)
	}
	st = h.Status()
	if st.Session != "s-b" || st.Adoptions != 2 {
		t.Fatalf("after takeover: %+v", st)
	}
	if _, err := a.C.Call("host.renew_lease", "s-a", 1000); err == nil {
		t.Fatal("superseded session still renews")
	}
	// The Lease helper recovers by re-registering — which adopts back.
	if err := a.Renew(); err != nil {
		t.Fatal(err)
	}
	if _, rebinds, _ := a.Stats(); rebinds != 1 {
		t.Fatalf("rebinds = %d, want 1", rebinds)
	}
	if st = h.Status(); st.Session != "s-a" || st.Adoptions != 3 {
		t.Fatalf("after rebind: %+v", st)
	}
}

func TestLeaseExpiryFreesHost(t *testing.T) {
	h, ts := leaseHost(t, nil)
	l := &Lease{C: xmlrpc.NewClient(ts.URL), MasterURL: "http://master",
		Session: "s-1", TTL: 40 * time.Millisecond}
	if err := l.Register(); err != nil {
		t.Fatal(err)
	}
	// No renewals: the watchdog must drop the binding at the deadline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := h.Status()
		if !st.MasterSet {
			if st.Session != "" || st.LeaseExpiries != 1 {
				t.Fatalf("after expiry: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The freed host accepts the next registration.
	if err := l.Register(); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); !st.MasterSet || st.Adoptions != 2 {
		t.Fatalf("re-registration refused: %+v", st)
	}
}

func TestRenewAgainstRestartedHostReregisters(t *testing.T) {
	// The host is fresh — as after a node restart it has no session state.
	// The master's heartbeat must converge on its own: the refused renewal
	// falls back to registration.
	h, ts := leaseHost(t, nil)
	l := &Lease{C: xmlrpc.NewClient(ts.URL), MasterURL: "http://master",
		Session: "s-1", TTL: time.Hour}
	if err := l.Renew(); err != nil {
		t.Fatal(err)
	}
	if _, rebinds, _ := l.Stats(); rebinds != 1 {
		t.Fatalf("rebinds = %d, want 1", rebinds)
	}
	if st := h.Status(); st.Session != "s-1" || !st.MasterSet {
		t.Fatalf("host not adopted: %+v", st)
	}
}

func TestReadoptionDeliversQueuedEvents(t *testing.T) {
	h, ts := leaseHost(t, nil)

	// Events recorded while no master is bound wait in the outbox.
	for i := 0; i < 3; i++ {
		h.ForwardEvent(eventlog.Event{Run: 0, Node: "A", Type: "queued"})
	}
	if st := h.Status(); st.OutboxLen != 3 || st.MasterSet {
		t.Fatalf("before adoption: %+v", st)
	}

	// The adopting master's endpoint counts delivered events.
	var mu sync.Mutex
	received := 0
	msrv := xmlrpc.NewServer()
	msrv.Register("master.events", func(params []any) (any, error) {
		evs, err := store.ParseEventLines([]byte(params[0].(string)))
		if err != nil {
			return nil, err
		}
		mu.Lock()
		received += len(evs)
		mu.Unlock()
		return true, nil
	})
	mts := httptest.NewServer(msrv)
	defer mts.Close()

	l := &Lease{C: xmlrpc.NewClient(ts.URL), MasterURL: mts.URL,
		Session: "s-1", TTL: time.Hour}
	if err := l.Register(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		got := received
		mu.Unlock()
		if got == 3 && h.Status().OutboxLen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued events not delivered: received=%d status=%+v",
				got, h.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNewSessionIDUnique(t *testing.T) {
	a, b := NewID("m-"), NewID("m-")
	if a == b || len(a) != 14 || a[:2] != "m-" {
		t.Fatalf("session ids: %q, %q", a, b)
	}
}

// leaseCases are the rules of a LeaseRecord. Each grants a 1 s lease at
// time 0, renews it at renewAt (if set) naming renewTTL, and says whether
// the lease has lapsed at time at. internal/discovery's registry tests run
// the same rows through the registry.
var leaseCases = []struct {
	name              string
	renewAt, renewTTL time.Duration
	at                time.Duration
	lapsed            bool
}{
	{"1ns before the deadline", 0, 0, time.Second - 1, false},
	{"at the deadline", 0, 0, time.Second, true},
	{"renewal naming no TTL keeps it", 400 * time.Millisecond, 0, 1400*time.Millisecond - 1, false},
	{"kept TTL lapses a TTL after the renewal", 400 * time.Millisecond, 0, 1400 * time.Millisecond, true},
	{"renewal naming a TTL replaces it", 400 * time.Millisecond, 2 * time.Second, 2400*time.Millisecond - 1, false},
}

// testClock is a settable clock that the host's lease sweep may read
// concurrently.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// TestLeaseRecordRules runs leaseCases through a bare LeaseRecord and
// through a node host's master session: host.set_master grants, a
// host.renew_lease renews, and the host has dropped the master once the
// lease lapsed.
func TestLeaseRecordRules(t *testing.T) {
	t0 := time.Unix(1400000000, 0)
	for _, c := range leaseCases {
		t.Run(c.name, func(t *testing.T) {
			var rec LeaseRecord
			rec.Grant(t0, time.Second)
			clk := &testClock{t: t0}
			h, ts := leaseHost(t, func(h *Host) { h.now = clk.now })
			l := &Lease{C: xmlrpc.NewClient(ts.URL), MasterURL: "http://master",
				Session: "s-1", TTL: time.Second}
			if err := l.Register(); err != nil {
				t.Fatal(err)
			}
			if c.renewAt > 0 {
				rec.Renew(t0.Add(c.renewAt), c.renewTTL)
				clk.set(t0.Add(c.renewAt))
				if _, err := l.C.Call("host.renew_lease", "s-1", int(c.renewTTL/time.Millisecond)); err != nil {
					t.Fatal(err)
				}
			}
			clk.set(t0.Add(c.at))
			if got := rec.Lapse(t0.Add(c.at)); got != c.lapsed {
				t.Errorf("record lapsed %v, want %v", got, c.lapsed)
			}
			st := h.Status()
			if st.MasterSet == c.lapsed || (st.LeaseExpiries == 1) != c.lapsed {
				t.Errorf("host: master set %v after %d expiries, want lapsed %v", st.MasterSet, st.LeaseExpiries, c.lapsed)
			}
			if want := (time.Second - c.at).Seconds(); c.renewAt == 0 && !c.lapsed && st.LeaseRemaining != want {
				t.Errorf("host: lease remaining %vs, want %vs", st.LeaseRemaining, want)
			}
		})
	}
}

// TestLeaseNotOpenedWithoutTTL: a host.set_master with a session and TTL
// 0 opens no lease — the host imposes none of its own — so the master
// stays bound however much time passes, like a sessionless one.
func TestLeaseNotOpenedWithoutTTL(t *testing.T) {
	clk := &testClock{t: time.Unix(1400000000, 0)}
	h, ts := leaseHost(t, func(h *Host) { h.now = clk.now })
	l := &Lease{C: xmlrpc.NewClient(ts.URL), MasterURL: "http://master", Session: "s-1"}
	if err := l.Register(); err != nil {
		t.Fatal(err)
	}
	clk.set(clk.now().Add(24 * time.Hour))
	if st := h.Status(); !st.MasterSet || st.Session != "s-1" || st.LeaseRemaining != 0 || st.LeaseExpiries != 0 {
		t.Fatalf("unleased session after a day: %+v", st)
	}
}

// TestLeaseSweepExpiresIdleHost: with no call arriving to check the lease
// lazily, the host's Sweep still drops a silent master at the deadline.
func TestLeaseSweepExpiresIdleHost(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := leaseHost(t, func(h *Host) { h.Instrument(reg) })
	l := &Lease{C: xmlrpc.NewClient(ts.URL), MasterURL: "http://master",
		Session: "s-1", TTL: 30 * time.Millisecond}
	if err := l.Register(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the sweep's expiry", func() bool { return reg.CounterValue(obs.MHostLeaseExpiries) == 1 })
}
