package discovery

import (
	"fmt"
	"time"

	"excovery/internal/noderpc"
	"excovery/internal/obs"
	"excovery/internal/xmlrpc"
)

// Agent keeps one node host registered: it announces the host's
// capabilities to the registry and renews the lease from a jittered
// heartbeat loop (the noderpc.Lease machinery, pointed at the registry
// protocol). A refused heartbeat — the registry restarted, or the lease
// expired across a partition — falls back to a full re-registration, so
// the registry's soft state rebuilds from the fleet's ordinary lease
// traffic without operator intervention.
type Agent struct {
	// C is the registry's XML-RPC endpoint.
	C *xmlrpc.Client
	// HostID identifies this host: noderpc.NewID("h-"), or a stable
	// operator id that survives restarts (excovery-node -host-id).
	HostID string
	// URL is the advertised control endpoint masters should dial.
	URL string
	// Nodes are the platform node ids served here.
	Nodes []string
	// Region is the optional placement tag.
	Region string
	// TTL is the requested registration lease (default 3x Heartbeat).
	TTL time.Duration
	// Heartbeat is the renewal period (default TTL/3, then 5s).
	Heartbeat time.Duration
	// Epoch, if set, reports the host's accepted fencing epoch high-water
	// mark (noderpc.Host.FenceEpoch) with every registration, so a
	// restarted registry re-learns it before granting new claims.
	Epoch func() int64
	// Obs, if set, receives the heartbeat counters.
	Obs *obs.Registry

	lease *noderpc.Lease
}

// Start registers the host and launches the heartbeat loop. The initial
// registration must succeed — a host that cannot reach its configured
// registry at boot is misconfigured and should say so immediately.
func (a *Agent) Start() error {
	if a.HostID == "" || a.URL == "" {
		return fmt.Errorf("discovery agent: need HostID and URL")
	}
	if a.Heartbeat <= 0 {
		if a.TTL > 0 {
			a.Heartbeat = a.TTL / 3
		} else {
			a.Heartbeat = 5 * time.Second
		}
	}
	if a.TTL <= 0 {
		a.TTL = 3 * a.Heartbeat
	}
	a.lease = &noderpc.Lease{
		Session:    a.HostID,
		TTL:        a.TTL,
		Interval:   a.Heartbeat,
		RegisterFn: a.register,
		RenewFn:    a.heartbeat,
		Obs:        a.Obs,
	}
	if err := a.lease.Register(); err != nil {
		return fmt.Errorf("discovery agent: register with %s: %w", a.C.URL, err)
	}
	a.lease.Start()
	return nil
}

// Stop halts the heartbeat loop.
func (a *Agent) Stop() {
	if a.lease != nil {
		a.lease.Stop()
	}
}

// Stats exposes the underlying lease accounting (renewals, re-register
// rebinds, hard errors).
func (a *Agent) Stats() (renewals, rebinds, errs int) {
	if a.lease == nil {
		return 0, 0, 0
	}
	return a.lease.Stats()
}

func (a *Agent) register() error {
	nodes := make([]any, 0, len(a.Nodes))
	for _, n := range a.Nodes {
		nodes = append(nodes, n)
	}
	var epoch int64
	if a.Epoch != nil {
		epoch = a.Epoch()
	}
	_, err := a.C.Call("registry.register", a.HostID, a.URL, nodes, a.Region,
		int(a.TTL/time.Millisecond), int(epoch))
	return err
}

func (a *Agent) heartbeat() error {
	_, err := a.C.Call("registry.heartbeat", a.HostID, int(a.TTL/time.Millisecond))
	return err
}
