package discovery

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"excovery/internal/obs"
	"excovery/internal/xmlrpc"
)

// fakeClock drives the registry's failure detection deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestRegistry() (*Registry, *fakeClock) {
	r := NewRegistry()
	c := &fakeClock{t: time.Unix(1400000000, 0)}
	r.now = c.now
	return r, c
}

func TestRegisterClaimLifecycle(t *testing.T) {
	r, _ := newTestRegistry()
	r.Instrument(obs.NewRegistry())
	r.Register("h-b", "http://b", []string{"A", "B"}, "eu", time.Second, 0)
	r.Register("h-a", "http://a", []string{"A", "B"}, "us", time.Second, 0)

	got := r.Claim("m-1", 1, "")
	if len(got) != 1 || got[0].ID != "h-a" {
		t.Fatalf("claim = %+v, want h-a (id order)", got)
	}
	if got[0].Epoch != 1 {
		t.Fatalf("first claim epoch = %d, want 1", got[0].Epoch)
	}
	if got[0].Nodes[0] != "A" || got[0].Nodes[1] != "B" {
		t.Fatalf("claim nodes = %v", got[0].Nodes)
	}

	// A second master cannot claim the same host; it gets the other one
	// under a strictly higher epoch.
	got2 := r.Claim("m-2", 0, "")
	if len(got2) != 1 || got2[0].ID != "h-b" || got2[0].Epoch != 2 {
		t.Fatalf("second claim = %+v", got2)
	}

	// Release returns the host to the pool; a stale releaser is ignored.
	r.Release("m-2", "h-a")
	if got := r.Claim("m-2", 0, ""); len(got) != 0 {
		t.Fatalf("claim after stale release = %+v, want none", got)
	}
	r.Release("m-1", "h-a")
	got3 := r.Claim("m-2", 0, "")
	if len(got3) != 1 || got3[0].ID != "h-a" || got3[0].Epoch != 3 {
		t.Fatalf("claim after release = %+v", got3)
	}
}

func TestClaimPrefersRegionButDegrades(t *testing.T) {
	r, _ := newTestRegistry()
	r.Register("h-a", "http://a", nil, "us", time.Second, 0)
	r.Register("h-b", "http://b", nil, "eu", time.Second, 0)
	r.Register("h-c", "http://c", nil, "eu", time.Second, 0)

	got := r.Claim("m-1", 2, "eu")
	if len(got) != 2 || got[0].ID != "h-b" || got[1].ID != "h-c" {
		t.Fatalf("regional claim = %+v, want h-b,h-c", got)
	}
	// The region is drained: the next claim falls through to the other
	// region instead of failing.
	got = r.Claim("m-1", 2, "eu")
	if len(got) != 1 || got[0].ID != "h-a" {
		t.Fatalf("degraded claim = %+v, want h-a", got)
	}
}

func TestExpiryAndResurrection(t *testing.T) {
	r, clk := newTestRegistry()
	r.Register("h-a", "http://a", nil, "", time.Second, 0)
	if got := r.Claim("m-1", 0, ""); len(got) != 1 {
		t.Fatalf("claim = %+v", got)
	}

	// Heartbeats hold the lease.
	clk.advance(700 * time.Millisecond)
	if err := r.Heartbeat("h-a", 0); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clk.advance(700 * time.Millisecond)
	if snap := r.Snapshot(); !snap[0].Alive {
		t.Fatalf("host dead despite heartbeat: %+v", snap[0])
	}

	// Silence kills it: lease lapses, claim dissolves, heartbeat refused.
	clk.advance(1100 * time.Millisecond)
	snap := r.Snapshot()
	if snap[0].Alive || snap[0].ClaimedBy != "" {
		t.Fatalf("host should be dead and unclaimed: %+v", snap[0])
	}
	if err := r.Heartbeat("h-a", 0); err == nil {
		t.Fatal("heartbeat of expired host must be refused")
	}
	if got := r.Claim("m-2", 0, ""); len(got) != 0 {
		t.Fatalf("dead host claimable: %+v", got)
	}

	// Re-registration resurrects; the next claim epoch stays monotonic.
	r.Register("h-a", "http://a", nil, "", time.Second, 0)
	got := r.Claim("m-2", 0, "")
	if len(got) != 1 || got[0].Epoch != 2 {
		t.Fatalf("post-resurrection claim = %+v, want epoch 2", got)
	}
}

func TestReportDown(t *testing.T) {
	r, _ := newTestRegistry()
	r.Register("h-a", "http://a", nil, "", time.Minute, 0)
	r.Claim("m-1", 0, "")
	if err := r.ReportDown("m-2", "h-a"); err == nil {
		t.Fatal("non-claimer may not report a host down")
	}
	if err := r.ReportDown("m-1", "h-a"); err != nil {
		t.Fatalf("report down: %v", err)
	}
	if snap := r.Snapshot(); snap[0].Alive {
		t.Fatalf("reported-down host still alive: %+v", snap[0])
	}
	// The host's own re-registration brings it back.
	r.Register("h-a", "http://a", nil, "", time.Minute, 0)
	if snap := r.Snapshot(); !snap[0].Alive || snap[0].ClaimedBy != "" {
		t.Fatalf("re-registered host: %+v", snap[0])
	}
}

// TestEpochRebuildAfterRegistryCrash is the crash-tolerance contract: a
// fresh registry learns the fleet's fencing epoch high-water mark from the
// hosts' re-registrations, so it can never grant a claim a host would
// refuse as stale.
func TestEpochRebuildAfterRegistryCrash(t *testing.T) {
	r1, _ := newTestRegistry()
	r1.Register("h-a", "http://a", nil, "", time.Second, 0)
	r1.Register("h-b", "http://b", nil, "", time.Second, 0)
	var last int64
	for i := 0; i < 5; i++ {
		got := r1.Claim(fmt.Sprintf("m-%d", i), 1, "")
		r1.Release(fmt.Sprintf("m-%d", i), got[0].ID)
		last = got[0].Epoch
	}

	// "Restart": a brand-new registry; the hosts re-register, echoing the
	// epochs their noderpc fencing state has accepted.
	r2, _ := newTestRegistry()
	r2.Register("h-a", "http://a", nil, "", time.Second, last)
	r2.Register("h-b", "http://b", nil, "", time.Second, last-1)
	got := r2.Claim("m-9", 1, "")
	if len(got) != 1 || got[0].Epoch <= last {
		t.Fatalf("post-crash claim epoch = %+v, want > %d", got, last)
	}
}

// TestHeartbeatAllocatesNothing holds the registry's hot path to zero
// allocations: like a benchmark's allocs/op and B/op, the totals over
// 200 000 heartbeats spread over 64 registered hosts are divided by the
// heartbeat count and truncated; both must be 0.
func TestHeartbeatAllocatesNothing(t *testing.T) {
	const (
		hosts      = 64
		heartbeats = 200_000
	)
	r, _ := newTestRegistry()
	ids := make([]string, hosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("h-%03d", i)
		r.Register(ids[i], "http://h", []string{"A", "B"}, "eu", time.Minute, 0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < heartbeats; i++ {
		if err := r.Heartbeat(ids[i%hosts], 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d allocations, %d B over %d heartbeats", allocs, bytes, heartbeats)
	if allocs/heartbeats != 0 || bytes/heartbeats != 0 {
		t.Errorf("%d allocs/op, %d B/op; want 0 and 0", allocs/heartbeats, bytes/heartbeats)
	}
}

// leaseCases are the rules of the registry's lease record
// (noderpc.LeaseRecord), the rows internal/noderpc runs through a node
// host. Each registers a host under a 1 s lease at time 0, heartbeats at
// renewAt (if set) naming renewTTL, and says whether the host is dead at
// time at.
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

func TestLeaseRecordRules(t *testing.T) {
	for _, c := range leaseCases {
		t.Run(c.name, func(t *testing.T) {
			r, clk := newTestRegistry()
			if err := r.Register("h-a", "http://a", nil, "", time.Second, 0); err != nil {
				t.Fatal(err)
			}
			if c.renewAt > 0 {
				clk.advance(c.renewAt)
				if err := r.Heartbeat("h-a", c.renewTTL); err != nil {
					t.Fatal(err)
				}
			}
			clk.advance(c.at - c.renewAt)
			h := r.Snapshot()[0]
			if h.Alive == c.lapsed {
				t.Errorf("alive %v, want lapsed %v", h.Alive, c.lapsed)
			}
			if want := (time.Second - c.at).Seconds(); c.renewAt == 0 && !c.lapsed && h.ExpiresIn != want {
				t.Errorf("expires in %vs, want %vs", h.ExpiresIn, want)
			}
		})
	}
}

// TestRegisterNeedsATTL: the registry grants no default lease, so a
// registration naming none is refused as malformed and leaves no host.
func TestRegisterNeedsATTL(t *testing.T) {
	r, _ := newTestRegistry()
	ts := httptest.NewServer(r.Server())
	defer ts.Close()
	_, err := xmlrpc.NewClient(ts.URL).Call("registry.register", "h-a", "http://a", []any{"A"}, "", 0, 0)
	if err == nil {
		t.Fatal("registry.register with ttl_ms 0 accepted")
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("refused registration left %+v", snap)
	}
}

// TestStartSweepsIdleRegistry: with no operation arriving to check leases
// lazily, the watchdog Start launches still marks a silent host dead,
// paced from the live hosts' TTLs.
func TestStartSweepsIdleRegistry(t *testing.T) {
	r := NewRegistry()
	reg := obs.NewRegistry()
	r.Instrument(reg)
	if err := r.Register("h-a", "http://a", nil, "", 30*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	deadline := time.Now().Add(5 * time.Second)
	for reg.CounterValue(obs.MRegistryExpiries) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the watchdog never expired the silent host")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
