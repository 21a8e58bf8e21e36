package discovery

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"excovery/internal/master"
	"excovery/internal/noderpc"
	"excovery/internal/obs"
	"excovery/internal/xmlrpc"
)

// Fleet is the master-side placement manager over a discovery registry:
// it claims node hosts (one active, the rest kept as warm spares), builds
// the fenced control-channel proxies for the master's run loop, keeps the
// active host leased, and — as master.FleetManager — re-places the run's
// nodes onto a surviving or newly joined host when the active one dies
// mid-campaign. Each adoption is a fresh set of proxies carrying the
// claim's fencing epoch, so the displaced host refuses any RPC from the
// epoch it outgrew.
type Fleet struct {
	// Reg is the registry's XML-RPC endpoint.
	Reg *xmlrpc.Client
	// MasterID is this master's session id (doubles as the claim owner).
	MasterID string
	// MasterURL is the master's event endpoint, registered on the host.
	MasterURL string
	// Region is the preferred placement region ("" for no preference).
	Region string
	// LeaseTTL is the session lease imposed on the adopted host.
	LeaseTTL time.Duration
	// NewClient dials a claimed host's control endpoint.
	NewClient func(url string) *xmlrpc.Client
	// ReplaceTimeout bounds how long a failover polls for a replacement
	// host — surviving spares first, then newly joining hosts (default 30s).
	ReplaceTimeout time.Duration
	// Poll is the registry polling interval during a failover (default 500ms).
	Poll time.Duration
	// Obs, if set, receives the lease and failover counters.
	Obs *obs.Registry
	// OnHostChange, if set, observes adoptions: event is "adopt" on
	// Connect and "failover" on a mid-campaign replacement.
	OnHostChange func(event, hostID string)

	mu     sync.Mutex
	active Host
	spares []Host
	placed master.Placement
	lease  *noderpc.Lease
}

// Connect claims hosts from the registry and adopts the first usable one
// as the campaign's backing host; the claims after it stay as warm spares
// for failover, and each host it could not adopt goes back to the registry
// (adopt). It fails when the registry has no usable host.
func (f *Fleet) Connect() error {
	claimed, err := f.claim()
	if err != nil {
		return err
	}
	var errs []string
	for i, h := range claimed {
		if err := f.adopt(h, claimed[i+1:], adoptAttempts); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", h.ID, err))
			continue
		}
		if f.OnHostChange != nil {
			f.OnHostChange("adopt", h.ID)
		}
		return nil
	}
	return fmt.Errorf("fleet: no usable host among %d claimed (registry %s): %v",
		len(claimed), f.Reg.URL, errs)
}

// claim asks the registry for every available host in one call: the first
// becomes active, the rest are spares. Claiming eagerly is what makes
// failover fast — the spare's fencing epoch is already minted.
func (f *Fleet) claim() ([]Host, error) {
	v, err := f.Reg.Call("registry.claim", f.MasterID, 0, f.Region)
	if err != nil {
		return nil, fmt.Errorf("fleet: claim from registry %s: %w", f.Reg.URL, err)
	}
	s, _ := v.(string)
	var hosts []Host
	if err := json.Unmarshal([]byte(s), &hosts); err != nil {
		return nil, fmt.Errorf("fleet: bad claim reply from %s: %w", f.Reg.URL, err)
	}
	return hosts, nil
}

// An adoption asks a host for its nodes up to adoptAttempts times,
// adoptBackoff apart.
const (
	adoptAttempts = 3
	adoptBackoff  = 200 * time.Millisecond
)

// adopt makes h the active host: verify it serves the node set of the
// placement it replaces (asking at most attempts times), register the
// master session under the claim's fencing epoch, build the placement's
// proxies and start the lease heartbeat. A host it cannot adopt goes back
// to the registry. One whose control endpoint did not answer is reported
// down, so no claim returns it until it registers again; one that answered
// is released, because another master's experiment may need it.
func (f *Fleet) adopt(h Host, spares []Host, attempts int) error {
	c := f.NewClient(h.URL)
	nodes, err := noderpc.FetchNodes(c, attempts, adoptBackoff)
	if err != nil {
		f.Reg.Call("registry.report_down", f.MasterID, h.ID)
		return err
	}
	lease := &noderpc.Lease{
		C:         c,
		MasterURL: f.MasterURL,
		Session:   f.MasterID,
		TTL:       f.LeaseTTL,
		Epoch:     h.Epoch,
		Obs:       f.Obs,
	}
	if missing := missingNodes(sortedNodeIDs(f.Placement().Nodes), nodes); len(missing) > 0 {
		err = fmt.Errorf("adopt %s: host does not serve node %q", h.URL, missing[0])
	} else if err = lease.Register(); err != nil {
		err = fmt.Errorf("adopt %s: %w", h.URL, err)
	}
	if err != nil {
		f.Reg.Call("registry.release", f.MasterID, h.ID)
		return err
	}

	p := master.Placement{
		HostID: h.ID,
		Nodes:  make(map[string]master.NodeHandle, len(nodes)),
		Env:    &noderpc.RemoteEnv{C: c, Epoch: h.Epoch},
	}
	for _, id := range nodes {
		r := &noderpc.RemoteNode{NodeID: id, C: c}
		r.SetFenceEpoch(h.Epoch)
		p.Nodes[id] = r
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lease != nil {
		f.lease.Stop()
	}
	f.lease = lease
	lease.Start()
	f.active = h
	f.spares = append([]Host(nil), spares...)
	f.placed = p
	return nil
}

// sortedNodeIDs returns a placement's node ids sorted: adoption validation
// iterates this slice, never the map, so placement decisions and failure
// messages are seed-stable (§IV-C1).
func sortedNodeIDs(nodes map[string]master.NodeHandle) []string {
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// missingNodes returns the sorted want-ids a host's node set does not
// serve; an adoption is refused on the first one.
func missingNodes(want, have []string) []string {
	set := make(map[string]bool, len(have))
	for _, id := range have {
		set[id] = true
	}
	var missing []string
	for _, id := range want {
		if !set[id] {
			missing = append(missing, id)
		}
	}
	return missing
}

// Placement returns the active host's handles and environment executor:
// what master.Config.Nodes and Env start from after Connect, and what
// Failover hands the master after each replacement.
func (f *Fleet) Placement() master.Placement {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.placed
}

// ActiveHost returns the currently adopted host.
func (f *Fleet) ActiveHost() Host {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.active
}

// Failover implements master.FleetManager: the active host failed the
// given run, so report it dead, then re-place the nodes onto the first
// usable replacement — surviving spares first, then whatever the registry
// can claim within ReplaceTimeout (this is how elastic hosts that joined
// mid-campaign pick up work). Returns the replacement's placement.
// ReplaceTimeout is a wall-clock deadline: no adoption starts after it,
// and each is given only the host.nodes attempts that fit before it, so
// Failover gives up within the timeout plus one call's own timeout.
func (f *Fleet) Failover(run int, nodeErrs map[string]string) (master.Placement, error) {
	f.mu.Lock()
	dead := f.active
	spares := append([]Host(nil), f.spares...)
	if f.lease != nil {
		f.lease.Stop()
		f.lease = nil
	}
	f.mu.Unlock()

	// Best-effort: tell the registry the host is gone so nobody else
	// claims it until it re-registers. The claim itself dies with this.
	f.Reg.Call("registry.report_down", f.MasterID, dead.ID)

	poll := f.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	timeout := f.ReplaceTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	//lint:ignore walltime the failover deadline bounds real waiting on the control plane, not an experiment timeline
	deadline := time.Now().Add(timeout)
	for {
		for len(spares) > 0 && time.Until(deadline) > 0 {
			h := spares[0]
			spares = spares[1:]
			attempts := min(adoptAttempts, 1+int(time.Until(deadline)/adoptBackoff))
			if err := f.adopt(h, spares, attempts); err != nil {
				continue
			}
			if f.OnHostChange != nil {
				f.OnHostChange("failover", h.ID)
			}
			return f.Placement(), nil
		}
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		// No spare left: poll the registry for survivors or new joiners.
		time.Sleep(min(poll, left))
		if claimed, err := f.claim(); err == nil {
			spares = claimed
		}
	}
	// Claims the deadline left untried go back to the registry.
	for _, h := range spares {
		f.Reg.Call("registry.release", f.MasterID, h.ID)
	}
	return master.Placement{}, fmt.Errorf("fleet: no replacement host for %s within %s (run %d, %d node errors)",
		dead.ID, timeout, run, len(nodeErrs))
}

// Close stops the lease heartbeat and releases every claim.
func (f *Fleet) Close() {
	f.mu.Lock()
	lease := f.lease
	f.lease = nil
	active := f.active
	spares := append([]Host(nil), f.spares...)
	f.mu.Unlock()
	if lease != nil {
		lease.Stop()
	}
	if active.ID != "" {
		f.Reg.Call("registry.release", f.MasterID, active.ID)
	}
	for _, h := range spares {
		f.Reg.Call("registry.release", f.MasterID, h.ID)
	}
}
