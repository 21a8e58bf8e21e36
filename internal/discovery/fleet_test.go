package discovery_test

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"excovery/internal/discovery"
	"excovery/internal/master"
	"excovery/internal/noderpc"
	"excovery/internal/xmlrpc"
)

// deadURL is a control endpoint nothing serves: adopting its host fails.
const deadURL = "http://127.0.0.1:1"

// strangerURL serves a control endpoint that answers host.nodes with a
// node set the fleet's placement does not use.
func strangerURL(t *testing.T) string {
	srv := xmlrpc.NewServer()
	srv.Register("host.nodes", func([]any) (any, error) { return []any{"X"}, nil })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL
}

// claimTest is a registry over HTTP, its hosts registered under an hour's
// lease (no agent expires or resurrects them during a test), and a fleet
// that claims from it. Each host serves a live platform unless urls names
// another control endpoint for it.
type claimTest struct {
	reg   *discovery.Registry
	fleet *discovery.Fleet
}

func newClaimTest(t *testing.T, ids []string, urls map[string]string) *claimTest {
	t.Helper()
	reg := discovery.NewRegistry()
	regHTTP := httptest.NewServer(reg.Server())
	t.Cleanup(regHTTP.Close)
	for i, id := range ids {
		url, ok := urls[id]
		if !ok {
			url = startFleetHost(t, "", id, int64(i+1)).http.URL
		}
		reg.Register(id, url, []string{"A", "B"}, "", time.Hour, 0)
	}
	return &claimTest{reg: reg, fleet: &discovery.Fleet{
		Reg:       xmlrpc.NewClient(regHTTP.URL),
		MasterID:  noderpc.NewID("m-"),
		MasterURL: deadURL, // no run executes, so no event is pushed
		LeaseTTL:  time.Hour,
		NewClient: xmlrpc.NewClient,
		Poll:      10 * time.Millisecond,
	}}
}

// host returns the registry's view of one host.
func (c *claimTest) host(t *testing.T, id string) discovery.Host {
	t.Helper()
	for _, h := range c.reg.Snapshot() {
		if h.ID == id {
			return h
		}
	}
	t.Fatalf("registry has no host %s", id)
	return discovery.Host{}
}

// wantClaims checks who holds each host's claim ("" for nobody).
func (c *claimTest) wantClaims(t *testing.T, when string, owners ...string) {
	t.Helper()
	for i := 0; i < len(owners); i += 2 {
		if got := c.host(t, owners[i]).ClaimedBy; got != owners[i+1] {
			t.Errorf("%s: %s claimed by %q, want %q", when, owners[i], got, owners[i+1])
		}
	}
}

// TestFleetReleasesWhatItDoesNotKeep: Connect claims every host, adopts
// the first it can and keeps the rest as spares; the host before it, which
// nothing serves, is reported down at once, so no master claims it until
// it registers again. Close releases the active host and the spare.
func TestFleetReleasesWhatItDoesNotKeep(t *testing.T) {
	c := newClaimTest(t, []string{"h-aaa", "h-bbb", "h-ccc"}, map[string]string{"h-aaa": deadURL})
	if err := c.fleet.Connect(); err != nil {
		t.Fatal(err)
	}
	if got := c.fleet.ActiveHost().ID; got != "h-bbb" {
		t.Fatalf("active host %s, want h-bbb", got)
	}
	m := c.fleet.MasterID
	c.wantClaims(t, "after Connect", "h-aaa", "", "h-bbb", m, "h-ccc", m)
	if c.host(t, "h-aaa").Alive {
		t.Error("the host nothing serves is still alive; want reported down")
	}
	c.fleet.Close()
	c.wantClaims(t, "after Close", "h-aaa", "", "h-bbb", "", "h-ccc", "")
}

// TestFailoverReportsDeadHostAndReleasesFailedSpare: a failover reports
// the active host down, so no master claims it until it registers again,
// releases the spare it could not adopt because it serves other nodes, and
// adopts the next one.
func TestFailoverReportsDeadHostAndReleasesFailedSpare(t *testing.T) {
	c := newClaimTest(t, []string{"h-aaa", "h-bbb", "h-ccc"}, map[string]string{"h-bbb": strangerURL(t)})
	if err := c.fleet.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.fleet.Close()
	if got := c.fleet.ActiveHost().ID; got != "h-aaa" {
		t.Fatalf("active host %s, want h-aaa", got)
	}
	p, err := c.fleet.Failover(1, map[string]string{"A": "connection refused"})
	if err != nil {
		t.Fatal(err)
	}
	if p.HostID != "h-ccc" {
		t.Fatalf("failover placed the nodes on %s, want h-ccc", p.HostID)
	}
	if h := c.host(t, "h-aaa"); h.Alive || h.ClaimedBy != "" {
		t.Errorf("the failed host is alive %v, claimed by %q; want reported down", h.Alive, h.ClaimedBy)
	}
	c.wantClaims(t, "after Failover", "h-bbb", "", "h-ccc", c.fleet.MasterID)
	if !c.host(t, "h-bbb").Alive {
		t.Error("the spare that answered was reported down; want released")
	}
}

// TestFailoverTriesADeadSpareOnce: a spare whose control endpoint does not
// answer is reported down after one adoption, so the failover's polls of
// the registry do not claim it again; a host that registers after the
// failover started is adopted.
func TestFailoverTriesADeadSpareOnce(t *testing.T) {
	var calls atomic.Int32
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	c := newClaimTest(t, []string{"h-aaa", "h-bbb"}, map[string]string{"h-bbb": dead.URL})
	c.fleet.ReplaceTimeout = 10 * time.Second
	if err := c.fleet.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.fleet.Close()
	late := startFleetHost(t, "", "h-ccc", 3)

	type result struct {
		p   master.Placement
		err error
	}
	done := make(chan result, 1)
	go func() {
		p, err := c.fleet.Failover(1, map[string]string{"A": "connection refused"})
		done <- result{p, err}
	}()
	// One adoption asks host.nodes three times. Give the failover a dozen
	// polls of the registry to claim the dead spare again before the
	// late host registers.
	waitFor(t, "the dead spare's adoption", func() bool { return calls.Load() >= 3 })
	time.Sleep(12 * c.fleet.Poll)
	if err := c.reg.Register("h-ccc", late.http.URL, []string{"A", "B"}, "", time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.p.HostID != "h-ccc" {
		t.Fatalf("failover placed the nodes on %s, want h-ccc", res.p.HostID)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("the dead spare got %d host.nodes calls, want the 3 of one adoption", n)
	}
	if h := c.host(t, "h-bbb"); h.Alive || h.ClaimedBy != "" {
		t.Errorf("the dead spare is alive %v, claimed by %q; want reported down", h.Alive, h.ClaimedBy)
	}
}

// TestFailoverGivesUpAtItsDeadline: with only a dead spare, a failover
// returns its error once ReplaceTimeout has passed — not after one full
// adoption per poll it could have made — and leaves the spare unclaimed.
func TestFailoverGivesUpAtItsDeadline(t *testing.T) {
	c := newClaimTest(t, []string{"h-aaa", "h-bbb"}, map[string]string{"h-bbb": deadURL})
	c.fleet.ReplaceTimeout = 50 * time.Millisecond
	if err := c.fleet.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.fleet.Close()
	start := time.Now()
	_, err := c.fleet.Failover(1, map[string]string{"A": "connection refused"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("failover adopted a host nothing serves")
	}
	// The timeout, plus one refused call and the registry's loopback
	// round trips: far below one adoption's 400 ms of retry backoff.
	if elapsed > c.fleet.ReplaceTimeout+300*time.Millisecond {
		t.Errorf("failover gave up after %v; ReplaceTimeout is %v", elapsed, c.fleet.ReplaceTimeout)
	}
	c.wantClaims(t, "after the failover", "h-bbb", "")
}

// TestAgentHeartbeatsRenew: an agent's heartbeats renew its registration;
// none falls back to a full re-registration.
func TestAgentHeartbeatsRenew(t *testing.T) {
	reg := discovery.NewRegistry()
	regHTTP := httptest.NewServer(reg.Server())
	defer regHTTP.Close()
	agent := &discovery.Agent{
		C:         xmlrpc.NewClient(regHTTP.URL),
		HostID:    "h-beat",
		URL:       deadURL,
		Nodes:     []string{"A"},
		TTL:       time.Hour,
		Heartbeat: 5 * time.Millisecond,
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()
	waitFor(t, "three heartbeats", func() bool {
		renewals, rebinds, errs := agent.Stats()
		return renewals >= 3 || rebinds > 0 || errs > 0
	})
	if renewals, rebinds, errs := agent.Stats(); renewals < 3 || rebinds != 0 || errs != 0 {
		t.Errorf("agent stats: %d renewals, %d rebinds, %d errors; want heartbeats only", renewals, rebinds, errs)
	}
}
