// Package failpoint is a deterministic fault-injection registry for the
// control channel. The XML-RPC client and server consult named sites on
// every exchange; enabled rules decide — from a seeded PRNG, so runs are
// replayable like the treatment plan (§IV-C) — whether the exchange is
// dropped, delayed or answered with a server error.
//
// Each site draws from its own PRNG stream (derived from the registry seed
// and the site name), so the decision sequence at one site does not depend
// on how often other sites are evaluated. With a fixed seed and a fixed
// per-site evaluation order, every injected fault — and therefore every
// retry a client performs — reproduces exactly.
package failpoint

import (
	"sync"
	"time"

	"excovery/internal/seeds"
)

// Action is what happens when a rule fires.
type Action int

const (
	// None leaves the exchange untouched.
	None Action = iota
	// Drop severs the exchange: the server aborts the connection, the
	// client fails with a synthetic network error.
	Drop
	// Delay stalls the exchange for the rule's Delay.
	Delay
	// Error answers with an HTTP server error (rule Code, default 503).
	Error
	// Crash hard-stops the process at the site (crash-recovery drills).
	// Transport sites ignore it; the master run loop honors it between
	// the write-ahead journal record and the attempt's execution.
	Crash
)

func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Crash:
		return "crash"
	}
	return "unknown"
}

// Sites consulted by the internal/xmlrpc transport.
const (
	// SiteClientSend is evaluated by the client before a request is sent;
	// Drop simulates a request lost before reaching the server.
	SiteClientSend = "rpc.client.send"
	// SiteServerRecv is evaluated by the server before the request body is
	// read; Drop and Error simulate faults before the handler executes.
	SiteServerRecv = "rpc.server.recv"
	// SiteServerSend is evaluated by the server before the response is
	// written — after the handler executed. Drop here is the case
	// idempotency deduplication exists for: the action was applied but the
	// caller never learns of it.
	SiteServerSend = "rpc.server.send"
	// SiteMasterAttempt is evaluated by the master between writing the
	// run_attempt_begin journal record and executing the attempt. Crash
	// here simulates a master process killed mid-run: the journal holds a
	// dangling attempt that resume must detect and re-execute.
	SiteMasterAttempt = "master.run.attempt"
)

// Rule is one enabled fault at a site.
type Rule struct {
	// Prob is the firing probability per evaluation in [0, 1].
	Prob float64
	// Act is the injected fault.
	Act Action
	// Delay is the stall for Act == Delay.
	Delay time.Duration
	// Code is the HTTP status for Act == Error; 0 means 503.
	Code int
	// Count limits how often the rule fires; 0 means unlimited.
	Count int
	// Skip suppresses the rule's first matches: the rule only starts
	// firing after it would have fired Skip times. With Prob 1 this pins
	// a fault to an exact evaluation ("crash at the Nth attempt").
	Skip int
}

// Decision is the outcome of one site evaluation.
type Decision struct {
	Act   Action
	Delay time.Duration
	Code  int
}

type site struct {
	rng     *seeds.Rand
	rules   []Rule
	fired   []int // per-rule firing count
	skipped []int // per-rule matches suppressed by Rule.Skip
	evals   int
	hits    int
}

// Registry holds the enabled rules. The zero registry pointer is valid:
// Eval on a nil *Registry never fires, so production code paths carry no
// conditional wiring.
type Registry struct {
	mu    sync.Mutex
	seed  int64
	sites map[string]*site
}

// New creates a registry whose decisions derive from seed.
func New(seed int64) *Registry {
	return &Registry{seed: seed, sites: map[string]*site{}}
}

func (r *Registry) site(name string) *site {
	s := r.sites[name]
	if s == nil {
		s = &site{rng: seeds.Key{Tag: seeds.Failpoint, Seed: r.seed, ID: name}.Rand()}
		r.sites[name] = s
	}
	return s
}

// Enable appends a rule at a site. Rules are evaluated in order; the first
// one that fires wins.
func (r *Registry) Enable(name string, rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.site(name)
	s.rules = append(s.rules, rule)
	s.fired = append(s.fired, 0)
	s.skipped = append(s.skipped, 0)
}

// Disable removes all rules at a site. The site's PRNG stream is kept so
// re-enabling continues deterministically.
func (r *Registry) Disable(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.sites[name]; s != nil {
		s.rules, s.fired, s.skipped = nil, nil, nil
	}
}

// Eval draws a decision for one exchange at a site. Safe on a nil
// registry, which never fires.
func (r *Registry) Eval(name string) Decision {
	if r == nil {
		return Decision{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sites[name]
	if s == nil || len(s.rules) == 0 {
		return Decision{}
	}
	s.evals++
	for i, rule := range s.rules {
		if rule.Count > 0 && s.fired[i] >= rule.Count {
			continue
		}
		if s.rng.Float64() >= rule.Prob {
			continue
		}
		if s.skipped[i] < rule.Skip {
			s.skipped[i]++
			continue
		}
		s.fired[i]++
		s.hits++
		d := Decision{Act: rule.Act, Delay: rule.Delay, Code: rule.Code}
		if d.Act == Error && d.Code == 0 {
			d.Code = 503
		}
		return d
	}
	return Decision{}
}

// Evals returns how often a site was evaluated.
func (r *Registry) Evals(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.sites[name]; s != nil {
		return s.evals
	}
	return 0
}

// Fired returns how often any rule at a site fired.
func (r *Registry) Fired(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.sites[name]; s != nil {
		return s.hits
	}
	return 0
}
