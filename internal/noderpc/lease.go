package noderpc

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"excovery/internal/obs"
	"excovery/internal/seeds"
	"excovery/internal/xmlrpc"
)

// NewID returns a fresh random id: prefix and 12 hex digits. Masters name
// each process's session NewID("m-"), so a host tells a restarted master
// from the one it serves; hosts without -host-id register as NewID("h-").
func NewID(prefix string) string {
	var b [6]byte
	rand.Read(b[:])
	return prefix + hex.EncodeToString(b[:])
}

// LeaseRecord is the server side of a lease, for a node host's master
// session and a registry entry alike: the granted TTL and the deadline.
// The zero value holds no lease. Callers serialize access.
type LeaseRecord struct {
	ttl     time.Duration
	expires time.Time
}

// Grant opens a lease of ttl from now; ttl <= 0 holds none.
func (l *LeaseRecord) Grant(now time.Time, ttl time.Duration) {
	*l = LeaseRecord{}
	l.Renew(now, ttl)
}

// Renew moves the deadline one TTL on from now; ttl <= 0 keeps the TTL.
func (l *LeaseRecord) Renew(now time.Time, ttl time.Duration) {
	if ttl > 0 {
		l.ttl = ttl
	}
	l.expires = now.Add(l.ttl)
}

// Lapse ends a held lease once now is not before its deadline, and reports
// whether it did.
func (l *LeaseRecord) Lapse(now time.Time) bool {
	if l.ttl <= 0 || now.Before(l.expires) {
		return false
	}
	*l = LeaseRecord{}
	return true
}

// TTL returns the granted TTL, 0 without a lease.
func (l *LeaseRecord) TTL() time.Duration { return l.ttl }

// Remaining returns the time left to the deadline, 0 without a lease.
func (l *LeaseRecord) Remaining(now time.Time) time.Duration {
	if l.ttl <= 0 {
		return 0
	}
	return l.expires.Sub(now)
}

// Sweep lapses leases between the lazy checks their holders make, until
// stop closes: expire lapses what is due and returns the shortest TTL
// still held (0 for none), and the next call comes a third of it later,
// at most a second (so a lease granted meanwhile is seen in time).
func Sweep(stop <-chan struct{}, expire func() time.Duration) {
	for {
		pause := time.Second
		if ttl := expire(); ttl > 0 {
			pause = min(ttl/3, pause)
		}
		select {
		case <-stop:
			return
		case <-time.After(pause):
		}
	}
}

// Lease maintains one master session's claim on a node host: it registers
// the master's event endpoint under a session id with a TTL and keeps the
// lease alive from a background heartbeat. When the host no longer knows
// the session — it restarted, or the lease expired while the master was
// unreachable — the next heartbeat re-registers instead of failing, so
// both sides converge without operator intervention.
type Lease struct {
	// C is the host's XML-RPC endpoint.
	C *xmlrpc.Client
	// MasterURL is this master's event endpoint, registered on the host.
	MasterURL string
	// Session identifies this master process (NewID("m-")).
	Session string
	// TTL is the lease duration granted per renewal.
	TTL time.Duration
	// Epoch, when positive, is the fencing epoch granted by the discovery
	// registry's claim; it rides on host.set_master as call metadata so the
	// host can refuse a registration older than one it already accepted.
	Epoch int64
	// Interval overrides the heartbeat period (default TTL/3). Each beat
	// is jittered by ±20% from a stream keyed by Session, so a large
	// fleet's renewals spread out instead of synchronizing into a
	// thundering herd.
	Interval time.Duration
	// RegisterFn and RenewFn, when set, replace the host.set_master /
	// host.renew_lease wire calls. The discovery registry agent reuses the
	// heartbeat/rebind loop this way: RenewFn is registry.heartbeat and
	// RegisterFn the full registry.register recovery path.
	RegisterFn func() error
	RenewFn    func() error
	// Obs, if set, receives the heartbeat counters.
	Obs *obs.Registry

	mu       sync.Mutex
	renewals int
	rebinds  int
	errs     int
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// ttlMS converts the TTL for the wire (milliseconds).
func (l *Lease) ttlMS() int { return int(l.TTL / time.Millisecond) }

// Register claims the host for this session: host.set_master with the
// session id, TTL and — when claimed through a registry — the fencing
// epoch. Also the recovery path of a failed renewal.
func (l *Lease) Register() error {
	if l.RegisterFn != nil {
		return l.RegisterFn()
	}
	_, err := l.C.CallMeta("host.set_master", xmlrpc.Meta{FenceEpoch: l.Epoch},
		l.MasterURL, l.Session, l.ttlMS())
	return err
}

// renewOnce issues one renewal on the wire (or via the RenewFn override).
func (l *Lease) renewOnce() error {
	if l.RenewFn != nil {
		return l.RenewFn()
	}
	_, err := l.C.Call("host.renew_lease", l.Session, l.ttlMS())
	return err
}

// Renew extends the lease once. A refused renewal (host restarted, lease
// expired, host adopted by someone else) falls back to re-registering.
func (l *Lease) Renew() error {
	if err := l.renewOnce(); err == nil {
		l.count(&l.renewals, obs.MLeaseRenewals,
			"successful host lease renewals")
		return nil
	}
	if err := l.Register(); err != nil {
		l.count(&l.errs, obs.MLeaseErrors,
			"heartbeats that could neither renew nor re-register")
		return err
	}
	l.count(&l.rebinds, obs.MLeaseRebinds,
		"heartbeats that had to re-register an unknown or expired session")
	return nil
}

// Start launches the heartbeat goroutine, renewing at Interval (default
// TTL/3) with ±20% seeded jitter per beat. Safe to call once; Stop tears
// it down.
func (l *Lease) Start() {
	l.mu.Lock()
	if l.started {
		l.mu.Unlock()
		return
	}
	l.started = true
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	l.mu.Unlock()
	interval := l.Interval
	if interval <= 0 {
		interval = l.TTL / 3
	}
	if interval <= 0 {
		interval = time.Second
	}
	rng := seeds.Key{Tag: seeds.Lease, ID: l.Session}.Rand()
	go func() {
		defer close(l.done)
		for {
			select {
			case <-l.stop:
				return
			case <-time.After(jitter(interval, rng)):
			}
			l.Renew()
		}
	}()
}

// jitter spreads one heartbeat period by ±20%.
func jitter(interval time.Duration, rng *seeds.Rand) time.Duration {
	f := 0.8 + 0.4*rng.Float64()
	return time.Duration(f * float64(interval))
}

// Stop halts the heartbeat and waits for it to exit.
func (l *Lease) Stop() {
	l.mu.Lock()
	if !l.started {
		l.mu.Unlock()
		return
	}
	l.started = false
	stop, done := l.stop, l.done
	l.mu.Unlock()
	close(stop)
	<-done
}

// Stats reports the heartbeat's lifetime accounting.
func (l *Lease) Stats() (renewals, rebinds, errs int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.renewals, l.rebinds, l.errs
}

func (l *Lease) count(field *int, name, help string) {
	l.mu.Lock()
	*field++
	l.mu.Unlock()
	l.Obs.Counter(name, help).Inc()
}
