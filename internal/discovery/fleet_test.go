package discovery_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"excovery/internal/discovery"
	"excovery/internal/noderpc"
	"excovery/internal/xmlrpc"
)

// deadURL is a control endpoint nothing serves: adopting its host fails.
const deadURL = "http://127.0.0.1:1"

// claimTest is a registry over HTTP, its hosts registered under an hour's
// lease (no agent expires or resurrects them during a test), and a fleet
// that claims from it. Each host serves a live platform unless dead names
// it.
type claimTest struct {
	reg   *discovery.Registry
	fleet *discovery.Fleet
}

func newClaimTest(t *testing.T, ids []string, dead map[string]bool) *claimTest {
	t.Helper()
	reg := discovery.NewRegistry(time.Hour)
	regHTTP := httptest.NewServer(reg.Server())
	t.Cleanup(regHTTP.Close)
	for i, id := range ids {
		url := deadURL
		if !dead[id] {
			url = startFleetHost(t, "", id, int64(i+1)).http.URL
		}
		reg.Register(id, url, []string{"A", "B"}, "", time.Hour, 0)
	}
	return &claimTest{reg: reg, fleet: &discovery.Fleet{
		Reg:       xmlrpc.NewClient(regHTTP.URL),
		MasterID:  noderpc.NewSessionID(),
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
// nothing serves, is released at once, so another master can claim it.
// Close releases the active host and the spare.
func TestFleetReleasesWhatItDoesNotKeep(t *testing.T) {
	c := newClaimTest(t, []string{"h-aaa", "h-bbb", "h-ccc"}, map[string]bool{"h-aaa": true})
	if err := c.fleet.Connect(); err != nil {
		t.Fatal(err)
	}
	if got := c.fleet.ActiveHost().ID; got != "h-bbb" {
		t.Fatalf("active host %s, want h-bbb", got)
	}
	m := c.fleet.MasterID
	c.wantClaims(t, "after Connect", "h-aaa", "", "h-bbb", m, "h-ccc", m)
	c.fleet.Close()
	c.wantClaims(t, "after Close", "h-aaa", "", "h-bbb", "", "h-ccc", "")
}

// TestFailoverReportsDeadHostAndReleasesFailedSpare: a failover reports
// the active host down, so no master claims it until it registers again,
// releases the spare it could not adopt, and adopts the next one.
func TestFailoverReportsDeadHostAndReleasesFailedSpare(t *testing.T) {
	c := newClaimTest(t, []string{"h-aaa", "h-bbb", "h-ccc"}, map[string]bool{"h-bbb": true})
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
}

// TestFailoverGivesUpAtItsDeadline: with only a dead spare, a failover
// returns its error once ReplaceTimeout has passed — not after one full
// adoption per poll it could have made — and leaves the spare unclaimed.
func TestFailoverGivesUpAtItsDeadline(t *testing.T) {
	c := newClaimTest(t, []string{"h-aaa", "h-bbb"}, map[string]bool{"h-bbb": true})
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
	reg := discovery.NewRegistry(time.Hour)
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
