// Package discovery implements the fleet registry of the distributed
// deployment (DESIGN.md §14): node hosts register their capabilities —
// control endpoint, served platform nodes, region tag — under a TTL lease
// renewed by heartbeats, and masters claim hosts for a campaign under a
// monotonically increasing fencing epoch. Missed heartbeats mark a host
// dead, which the master's placement loop turns into a mid-campaign
// re-placement of the in-flight run; a claim's epoch fences the previous
// owner out of the host (noderpc fencing), so a partitioned master can
// never double-drive a node after a takeover.
//
// The registry is deliberately soft-state: every fact it holds is
// re-asserted by the next round of heartbeats/re-registrations, so a
// crashed-and-restarted registry rebuilds the fleet view — including the
// epoch high-water mark, which hosts echo back — within one heartbeat
// interval, without any persistence.
package discovery

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"excovery/internal/noderpc"
	"excovery/internal/obs"
)

// Host is one registered node host as seen by the registry: the snapshot
// handed to claiming masters and the /status document entry.
type Host struct {
	// ID is the host's self-chosen stable identity.
	ID string `json:"id"`
	// URL is the host's XML-RPC control endpoint.
	URL string `json:"url"`
	// Nodes are the platform node ids the host serves.
	Nodes []string `json:"nodes"`
	// Region is an optional placement tag; masters prefer (but are not
	// restricted to) hosts of their own region.
	Region string `json:"region,omitempty"`
	// Epoch is the fencing epoch of the host's current claim (0 unclaimed).
	Epoch int64 `json:"epoch,omitempty"`
	// ClaimedBy is the claiming master's session id ("" unclaimed).
	ClaimedBy string `json:"claimed_by,omitempty"`
	// Alive reports whether the lease is current.
	Alive bool `json:"alive"`
	// ExpiresIn is the remaining lease time in seconds (alive hosts only).
	ExpiresIn float64 `json:"expires_in_s,omitempty"`
}

// entry is the registry's mutable record of one host.
type entry struct {
	Host
	lease noderpc.LeaseRecord
}

// Registry is the in-memory fleet registry. All methods are safe for
// concurrent use; expiry is checked lazily on every operation and by an
// optional watchdog (Start) so dead hosts are detected even while the
// registry is idle. Every host names its own lease TTL; there is no
// default.
type Registry struct {
	now func() time.Time // wall clock; overridable in tests

	mu    sync.Mutex
	hosts map[string]*entry
	epoch int64

	stop, done chan struct{} // the watchdog's; done is made by Start

	// Instrumentation (nil-safe without Instrument).
	mAlive    *obs.Gauge
	mClaimed  *obs.Gauge
	mEpoch    *obs.Gauge
	mRegister *obs.Counter
	mResur    *obs.Counter
	mBeats    *obs.Counter
	mUnknown  *obs.Counter
	mExpiries *obs.Counter
	mClaims   *obs.Counter
	mReleases *obs.Counter
	mDown     *obs.Counter
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		now:   time.Now,
		hosts: map[string]*entry{},
		stop:  make(chan struct{}),
	}
}

// Instrument registers the registry's metrics. Call before serving.
func (r *Registry) Instrument(reg *obs.Registry) {
	r.mAlive = reg.Gauge(obs.MRegistryHostsAlive,
		"node hosts with a current lease")
	r.mClaimed = reg.Gauge(obs.MRegistryHostsClaimed,
		"alive hosts currently claimed by a master")
	r.mEpoch = reg.Gauge(obs.MRegistryFenceEpoch,
		"fencing epoch high-water mark")
	r.mRegister = reg.Counter(obs.MRegistryRegistrations,
		"host registrations, including re-registrations")
	r.mResur = reg.Counter(obs.MRegistryResurrections,
		"registrations that revived a host previously marked dead")
	r.mBeats = reg.Counter(obs.MRegistryHeartbeats,
		"accepted host heartbeats")
	r.mUnknown = reg.Counter(obs.MRegistryHeartbeatUnknown,
		"heartbeats refused for an unknown or expired host (caller re-registers)")
	r.mExpiries = reg.Counter(obs.MRegistryExpiries,
		"host leases that expired without a heartbeat")
	r.mClaims = reg.Counter(obs.MRegistryClaims,
		"hosts granted to claiming masters")
	r.mReleases = reg.Counter(obs.MRegistryReleases,
		"claims released by their master")
	r.mDown = reg.Counter(obs.MRegistryReportsDown,
		"hosts reported dead by their claiming master")
}

// Register upserts a host under a fresh lease of the TTL it names; a
// registration without one is refused. A dead host registering again is
// resurrected (its stale claim, whose master has long failed over, is
// dissolved). The host echoes the highest fencing epoch it has accepted,
// so a restarted registry re-learns the fleet's epoch high-water mark from
// ordinary re-registration traffic and can never hand out an epoch that a
// host would consider stale.
func (r *Registry) Register(id, url string, nodes []string, region string, ttl time.Duration, epoch int64) error {
	if ttl <= 0 {
		return fmt.Errorf("registry: host %q registers without a lease TTL", id)
	}
	r.mu.Lock()
	r.expireLocked()
	e := r.hosts[id]
	if e == nil {
		e = &entry{Host: Host{ID: id}}
		r.hosts[id] = e
	} else if !e.Alive {
		e.ClaimedBy = ""
		e.Epoch = 0
		r.mResur.Inc()
	}
	e.URL = url
	e.Nodes = append([]string(nil), nodes...)
	sort.Strings(e.Nodes)
	e.Region = region
	e.Alive = true
	e.lease.Grant(r.now(), ttl)
	if epoch > r.epoch {
		r.epoch = epoch
	}
	if epoch > e.Epoch {
		e.Epoch = epoch
	}
	r.gaugesLocked()
	r.mu.Unlock()
	r.mRegister.Inc()
	return nil
}

// Heartbeat renews a registered host's lease. An unknown or expired host
// is refused — the caller falls back to a full Register, which is exactly
// how a crashed registry rebuilds its state from the fleet's ordinary
// lease traffic.
func (r *Registry) Heartbeat(id string, ttl time.Duration) error {
	r.mu.Lock()
	r.expireLocked()
	e := r.hosts[id]
	if e == nil || !e.Alive {
		r.mu.Unlock()
		r.mUnknown.Inc()
		return fmt.Errorf("registry: unknown host %q (re-register)", id)
	}
	e.lease.Renew(r.now(), ttl)
	r.mu.Unlock()
	r.mBeats.Inc()
	return nil
}

// Claim grants up to want alive, unclaimed hosts to the master session,
// each under a fresh fencing epoch (strictly increasing across all claims
// registry-wide). Hosts in the master's region are preferred; when the
// region cannot satisfy the claim, hosts from other regions fill in —
// placement degrades gracefully rather than failing. want <= 0 claims
// every available host. The selection is deterministic (region match,
// then host id).
func (r *Registry) Claim(masterID string, want int, region string) []Host {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked()
	var avail []*entry
	for _, e := range r.hosts {
		if e.Alive && e.ClaimedBy == "" {
			avail = append(avail, e)
		}
	}
	sort.Slice(avail, func(i, j int) bool {
		mi := region != "" && avail[i].Region == region
		mj := region != "" && avail[j].Region == region
		if mi != mj {
			return mi
		}
		return avail[i].ID < avail[j].ID
	})
	if want > 0 && len(avail) > want {
		avail = avail[:want]
	}
	out := make([]Host, 0, len(avail))
	for _, e := range avail {
		r.epoch++
		e.Epoch = r.epoch
		e.ClaimedBy = masterID
		out = append(out, r.snapLocked(e))
		r.mClaims.Inc()
	}
	r.gaugesLocked()
	return out
}

// Release returns a claimed host to the pool. Only the claiming master
// may release; stale callers are ignored.
func (r *Registry) Release(masterID, hostID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.hosts[hostID]
	if e == nil || e.ClaimedBy != masterID {
		return
	}
	e.ClaimedBy = ""
	r.mReleases.Inc()
	r.gaugesLocked()
}

// ReportDown marks a claimed host dead on its master's authority: the
// master's lease heartbeats and RPC retries against the host failed, which
// is faster and no less reliable than waiting out the registry-side TTL.
// Only the claiming master is believed.
func (r *Registry) ReportDown(masterID, hostID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.hosts[hostID]
	if e == nil || e.ClaimedBy != masterID {
		return fmt.Errorf("registry: %q does not hold a claim on %q", masterID, hostID)
	}
	e.Alive = false
	e.ClaimedBy = ""
	r.mDown.Inc()
	r.gaugesLocked()
	return nil
}

// Snapshot returns the fleet view, sorted by host id, for /status and the
// registry.fleet RPC.
func (r *Registry) Snapshot() []Host {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked()
	out := make([]Host, 0, len(r.hosts))
	for _, e := range r.hosts {
		out = append(out, r.snapLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Epoch returns the fencing epoch high-water mark.
func (r *Registry) Epoch() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Start launches the expiry watchdog (noderpc.Sweep, paced from the TTLs
// of the live hosts) so hosts are marked dead on schedule even while no
// master polls the registry. Call it at most once, before serving.
func (r *Registry) Start() {
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		noderpc.Sweep(r.stop, func() time.Duration {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.expireLocked()
		})
	}()
}

// Close stops the watchdog, if started, and waits for it to exit. Call it
// once.
func (r *Registry) Close() {
	close(r.stop)
	if r.done != nil {
		<-r.done
	}
}

// expireLocked sweeps lapsed leases: the host is marked dead and its claim
// dissolved, so the next Claim no longer sees it and the claiming master's
// own failure detection (lease errors, RPC failures) converges with the
// registry view. It returns the shortest TTL of a live host (0 for none).
// Callers hold r.mu.
func (r *Registry) expireLocked() (shortest time.Duration) {
	now := r.now()
	changed := false
	for _, e := range r.hosts {
		if !e.Alive {
			continue
		}
		if e.lease.Lapse(now) {
			e.Alive = false
			e.ClaimedBy = ""
			r.mExpiries.Inc()
			changed = true
		} else if ttl := e.lease.TTL(); shortest == 0 || ttl < shortest {
			shortest = ttl
		}
	}
	if changed {
		r.gaugesLocked()
	}
	return shortest
}

// snapLocked copies an entry into its public snapshot.
func (r *Registry) snapLocked(e *entry) Host {
	h := e.Host
	h.Nodes = append([]string(nil), e.Nodes...)
	if e.Alive {
		h.ExpiresIn = e.lease.Remaining(r.now()).Seconds()
	}
	return h
}

// gaugesLocked refreshes the membership gauges. Callers hold r.mu.
func (r *Registry) gaugesLocked() {
	alive, claimed := 0, 0
	for _, e := range r.hosts {
		if e.Alive {
			alive++
			if e.ClaimedBy != "" {
				claimed++
			}
		}
	}
	r.mAlive.Set(int64(alive))
	r.mClaimed.Set(int64(claimed))
	r.mEpoch.Set(r.epoch)
}
