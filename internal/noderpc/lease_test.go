package noderpc

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// leaseHost builds a host over a one-shot experiment and serves it.
func leaseHost(t *testing.T) (*Host, *httptest.Server) {
	t.Helper()
	x, err := core.New(desc.OneShot(30), core.Options{RealTime: true, Speed: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(x)
	t.Cleanup(h.Close)
	ts := httptest.NewServer(h.Server())
	t.Cleanup(ts.Close)
	return h, ts
}

func TestLeaseLifecycleAndTakeover(t *testing.T) {
	h, ts := leaseHost(t)

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
	h, ts := leaseHost(t)
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
	h, ts := leaseHost(t)
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
	h, ts := leaseHost(t)

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
	a, b := NewSessionID(), NewSessionID()
	if a == b || len(a) < 8 {
		t.Fatalf("session ids: %q, %q", a, b)
	}
}
