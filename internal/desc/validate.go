package desc

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// faultKinds lists the fault injection actions of the chaos vocabulary
// (§IV-D1 + DESIGN.md §12). Scenario actions (fault_flap, fault_ramp)
// wrap one of these as their inner kind.
var faultKinds = map[string]bool{
	"fault_interface":     true,
	"fault_msg_loss":      true,
	"fault_msg_delay":     true,
	"fault_path_loss":     true,
	"fault_path_delay":    true,
	"fault_msg_corrupt":   true,
	"fault_msg_duplicate": true,
	"fault_msg_reorder":   true,
	"fault_rate_limit":    true,
	"fault_node_kill":     true,
	"fault_node_pause":    true,
	"fault_node_stress":   true,
}

// rampableKinds are the fault kinds fault_ramp can sweep (the level feeds
// their intensity parameter).
var rampableKinds = map[string]bool{
	"fault_msg_loss":   true,
	"fault_msg_delay":  true,
	"fault_rate_limit": true,
}

// checkFaultAction validates the literal parameters of fault and scenario
// actions against their constructors' ranges, so misconfigured chaos
// scenarios fail at validation instead of mid-experiment. Parameters
// bound by factorref resolve per run and are skipped; unknown action
// names are never rejected here (plugins extend the vocabulary).
func checkFaultAction(where string, a Action, add func(format string, args ...any)) {
	// num fetches a literal numeric parameter; absent or factor-bound
	// parameters report ok=false and are not checked.
	num := func(key string) (float64, bool) {
		s, present := a.Params[key]
		if !present {
			return 0, false
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			add("%s action %s: parameter %s=%q is not a number", where, a.Name, key, s)
			return 0, false
		}
		return v, true
	}
	within := func(key string, lo, hi float64, exclLo bool) {
		if v, ok := num(key); ok && (v < lo || v > hi || (exclLo && v == lo)) {
			bracket := "["
			if exclLo {
				bracket = "("
			}
			add("%s action %s: parameter %s=%v outside %s%v,%v]", where, a.Name, key, v, bracket, lo, hi)
		}
	}
	atLeast := func(key string, lo float64, excl bool) {
		if v, ok := num(key); ok && (v < lo || (excl && v == lo)) {
			cmp := "≥"
			if excl {
				cmp = ">"
			}
			add("%s action %s: parameter %s=%v must be %s %v", where, a.Name, key, v, cmp, lo)
		}
	}

	if faultKinds[a.Name] || a.Name == "fault_flap" || a.Name == "fault_ramp" {
		atLeast("duration_s", 0, false)
		within("rate", 0, 1, false)
		if d, present := a.Params["direction"]; present {
			switch d {
			case "receive", "transmit", "both", "random":
			default:
				add("%s action %s: unknown direction %q", where, a.Name, d)
			}
		}
	}

	switch a.Name {
	case "fault_msg_loss", "fault_path_loss":
		within("prob", 0, 1, false)
	case "fault_msg_corrupt", "fault_msg_duplicate":
		within("prob", 0, 1, true)
	case "fault_msg_reorder":
		within("prob", 0, 1, true)
		within("corr", 0, 1, false)
		atLeast("delay_ms", 0, true)
	case "fault_msg_delay", "fault_path_delay":
		atLeast("delay_ms", 0, false)
	case "fault_rate_limit":
		atLeast("rate_kbps", 0, true)
		atLeast("burst", 0, false)
	case "fault_node_stress":
		atLeast("factor", 0, false)
	case "fault_flap":
		kind := a.Params["kind"]
		if _, bound := a.FactorRefs["kind"]; !bound && !faultKinds[kind] {
			add("%s action fault_flap: unknown inner kind %q", where, kind)
		}
		atLeast("period_s", 0, true)
		within("duty", 0, 1, true)
		atLeast("cycles", 1, false)
	case "fault_ramp":
		kind := a.Params["kind"]
		if _, bound := a.FactorRefs["kind"]; !bound && !rampableKinds[kind] {
			add("%s action fault_ramp: cannot sweep kind %q", where, kind)
		}
		atLeast("steps", 1, false)
		atLeast("step_s", 0, true)
	case "env_traffic_start":
		// core.EnvExec reads every one of these with strconv.Atoi and
		// refuses what it cannot parse; say so before the first run.
		for _, r := range []struct {
			key    string
			lo, hi int
		}{
			{"bw", 1, math.MaxInt},
			{"random_pairs", 1, math.MaxInt},
			{"choice", 0, 2},
			{"random_switch_amount", 0, math.MaxInt},
			{"random_seed", math.MinInt, math.MaxInt},
			{"random_switch_seed", math.MinInt, math.MaxInt},
		} {
			s, present := a.Params[r.key]
			if !present {
				continue
			}
			switch v, err := strconv.Atoi(s); {
			case err != nil:
				add("%s action %s: parameter %s=%q is not an integer", where, a.Name, r.key, s)
			case v < r.lo:
				add("%s action %s: parameter %s=%d must be ≥ %d", where, a.Name, r.key, v, r.lo)
			case v > r.hi:
				add("%s action %s: parameter %s=%d must be ≤ %d", where, a.Name, r.key, v, r.hi)
			}
		}
		if _, bound := a.FactorRefs["bw"]; !bound && a.Params["bw"] == "" {
			add("%s action env_traffic_start: missing bw", where)
		}
	case "env_partition_start":
		for _, key := range []string{"group_a", "group_b"} {
			if _, bound := a.FactorRefs[key]; bound {
				continue
			}
			if a.Params[key] == "" {
				add("%s action env_partition_start: missing %s", where, key)
			}
		}
	}
}

// Validate checks an experiment description for structural consistency so
// execution failures surface before any run starts ("automatic checking" of
// descriptions, §I). It returns all problems joined into one error, or nil.
func Validate(e *Experiment) error {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if e.Name == "" {
		add("experiment has no name")
	}

	abstract := map[string]bool{}
	for _, n := range e.AbstractNodes {
		if n == "" {
			add("abstract node with empty id")
			continue
		}
		if abstract[n] {
			add("duplicate abstract node %q", n)
		}
		abstract[n] = true
	}
	for _, n := range e.EnvironmentNodes {
		if n == "" {
			add("environment node with empty id")
			continue
		}
		if abstract[n] {
			add("environment node %q collides with abstract node", n)
		}
	}

	factorIDs := map[string]*Factor{}
	actorRoles := map[string]bool{} // roles defined by actor_node_map levels
	for i := range e.Factors {
		f := &e.Factors[i]
		if f.ID == "" {
			add("factor %d has empty id", i)
			continue
		}
		if factorIDs[f.ID] != nil {
			add("duplicate factor id %q", f.ID)
		}
		factorIDs[f.ID] = f
		switch f.Usage {
		case UsageBlocking, UsageConstant, UsageRandom:
		case "":
			add("factor %q has no usage", f.ID)
		default:
			add("factor %q has unknown usage %q", f.ID, f.Usage)
		}
		if len(f.Levels) == 0 {
			add("factor %q has no levels", f.ID)
		}
		for j, l := range f.Levels {
			switch f.Type {
			case TypeInt:
				if _, err := l.Int(); err != nil {
					add("factor %q level %d: %v", f.ID, j, err)
				}
			case TypeFloat:
				if _, err := l.Float(); err != nil {
					add("factor %q level %d: %v", f.ID, j, err)
				}
			case TypeString:
			case TypeActorNodeMap:
				if len(l.ActorMap) == 0 {
					add("factor %q level %d: empty actor map", f.ID, j)
				}
				for actor, nodes := range l.ActorMap {
					actorRoles[actor] = true
					for k, n := range nodes {
						if n == "" {
							add("factor %q level %d: actor %q instance %d empty", f.ID, j, actor, k)
						} else if !abstract[n] {
							add("factor %q maps actor %q to unknown abstract node %q", f.ID, actor, n)
						}
					}
				}
			default:
				add("factor %q has unknown type %q", f.ID, f.Type)
			}
		}
	}
	if e.Repl.ID != "" {
		if e.Repl.Count < 1 {
			add("replication factor %q has count %d", e.Repl.ID, e.Repl.Count)
		}
		if factorIDs[e.Repl.ID] != nil {
			add("replication factor id %q collides with a factor", e.Repl.ID)
		}
	}

	factorRefOK := func(id string) bool {
		return factorIDs[id] != nil || (e.Repl.ID != "" && id == e.Repl.ID)
	}
	checkActions := func(where string, actions []Action) {
		if len(actions) == 0 {
			add("%s: empty action sequence", where)
		}
		for i, a := range actions {
			if a.Name == "" {
				add("%s action %d: empty name", where, i)
			}
			for param, ref := range a.FactorRefs {
				if !factorRefOK(ref) {
					add("%s action %s: parameter %q references unknown factor %q", where, a.Name, param, ref)
				}
			}
			if a.Name == "wait_for_event" {
				w := a.Wait
				if w == nil {
					add("%s action %d: wait_for_event without dependencies", where, i)
					continue
				}
				if w.Event == "" && len(w.Params) == 0 {
					add("%s action %d: wait_for_event with neither event nor param dependency", where, i)
				}
				if w.FromActor != "" && !actorRoles[w.FromActor] {
					add("%s action %d: from_dependency references unknown actor %q", where, i, w.FromActor)
				}
				if w.ParamActor != "" && !actorRoles[w.ParamActor] {
					add("%s action %d: param_dependency references unknown actor %q", where, i, w.ParamActor)
				}
				if w.TimeoutSec < 0 {
					add("%s action %d: negative timeout", where, i)
				}
			}
			if a.Name == "event_flag" && a.Value == "" {
				add("%s action %d: event_flag without value", where, i)
			}
			checkFaultAction(where, a, add)
		}
	}

	seenActors := map[string]bool{}
	for _, np := range e.NodeProcesses {
		if np.Actor == "" {
			add("node process %q has no actor", np.Name)
			continue
		}
		if seenActors[np.Actor] {
			add("duplicate node process for actor %q", np.Actor)
		}
		seenActors[np.Actor] = true
		if !actorRoles[np.Actor] {
			add("node process actor %q not bound by any actor_node_map factor", np.Actor)
		}
		if np.NodesRef != "" {
			f := factorIDs[np.NodesRef]
			if f == nil {
				add("node process %q references unknown factor %q", np.Actor, np.NodesRef)
			} else if f.Type != TypeActorNodeMap {
				add("node process %q nodesref %q is not an actor_node_map factor", np.Actor, np.NodesRef)
			}
		}
		checkActions("node process "+np.Actor, np.Actions)
	}
	for _, mp := range e.ManipProcesses {
		if mp.Actor != "" && !actorRoles[mp.Actor] {
			add("manipulation process actor %q not bound by any actor_node_map factor", mp.Actor)
		}
		checkActions("manipulation process "+mp.Actor, mp.Actions)
	}
	for i, ep := range e.EnvProcesses {
		checkActions(fmt.Sprintf("env process %d", i), ep.Actions)
	}

	platformIDs := map[string]bool{}
	mapped := map[string]bool{}
	for _, n := range e.Platform.Actors {
		if platformIDs[n.ID] {
			add("duplicate platform node %q", n.ID)
		}
		platformIDs[n.ID] = true
		if n.Abstract == "" {
			add("platform actor node %q has no abstract mapping", n.ID)
		} else if !abstract[n.Abstract] {
			add("platform node %q maps unknown abstract node %q", n.ID, n.Abstract)
		} else if mapped[n.Abstract] {
			add("abstract node %q mapped by multiple platform nodes", n.Abstract)
		} else {
			mapped[n.Abstract] = true
		}
	}
	for _, n := range e.Platform.Env {
		if platformIDs[n.ID] {
			add("duplicate platform node %q", n.ID)
		}
		platformIDs[n.ID] = true
	}
	// Every abstract node used by processes must be realizable: if a
	// platform mapping exists at all, it must cover all abstract nodes.
	if len(e.Platform.Actors) > 0 {
		for n := range abstract {
			if !mapped[n] {
				add("abstract node %q has no platform mapping", n)
			}
		}
	}

	// A factor without levels is reported above; here only the size limit
	// GeneratePlan enforces.
	if _, err := planRuns(e); errors.Is(err, errPlanSize) {
		add("%v", err)
	}

	switch e.PlanKind {
	case "", PlanOFAT, PlanRandomized, PlanBlocked:
	default:
		add("unknown plan kind %q", e.PlanKind)
	}

	return errors.Join(errs...)
}
