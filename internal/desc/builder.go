package desc

import "fmt"

// Builder helpers for constructing and patching experiment descriptions in
// Go. The XML document stays the canonical form (§IV-F level 1): every
// canned experiment is a file under descriptions/ (see Builtin); these
// primitives exist for tests and generated experiments.

// IntFactor creates an integer factor from literal values.
func IntFactor(id string, usage Usage, values ...int) Factor {
	f := Factor{ID: id, Type: TypeInt, Usage: usage}
	for _, v := range values {
		f.Levels = append(f.Levels, Level{Raw: fmt.Sprint(v)})
	}
	return f
}

// StringFactor creates a string factor from literal values.
func StringFactor(id string, usage Usage, values ...string) Factor {
	f := Factor{ID: id, Type: TypeString, Usage: usage}
	for _, v := range values {
		f.Levels = append(f.Levels, Level{Raw: v})
	}
	return f
}

// FloatFactor creates a float factor from literal values.
func FloatFactor(id string, usage Usage, values ...float64) Factor {
	f := Factor{ID: id, Type: TypeFloat, Usage: usage}
	for _, v := range values {
		f.Levels = append(f.Levels, Level{Raw: fmt.Sprint(v)})
	}
	return f
}

// ActorMapFactor creates an actor_node_map factor with a single level.
func ActorMapFactor(id string, usage Usage, m map[string][]string) Factor {
	return Factor{ID: id, Type: TypeActorNodeMap, Usage: usage,
		Levels: []Level{{ActorMap: m}}}
}

// Act creates a generic action with key/value parameters given as
// alternating pairs.
func Act(name string, kv ...string) Action {
	if len(kv)%2 != 0 {
		panic("desc: Act requires key/value pairs")
	}
	a := Action{Name: name, Params: map[string]string{}, FactorRefs: map[string]string{}}
	for i := 0; i < len(kv); i += 2 {
		a.Params[kv[i]] = kv[i+1]
	}
	return a
}

// WithFactorRef attaches a treatment-varying parameter to an action.
func (a Action) WithFactorRef(param, factorID string) Action {
	a.FactorRefs[param] = factorID
	return a
}

// Flag creates an event_flag action (§IV-C2).
func Flag(value string) Action {
	return Action{Name: "event_flag", Value: value,
		Params: map[string]string{}, FactorRefs: map[string]string{}}
}

// WaitTime creates a wait_for_time action (§IV-C2).
func WaitTime(seconds float64) Action {
	return Act("wait_for_time", "seconds", fmt.Sprint(seconds))
}

// WaitEvent creates a wait_for_event action (§IV-C2).
func WaitEvent(w WaitSpec) Action {
	ws := w
	if ws.Params == nil {
		ws.Params = map[string]string{}
	}
	return Action{Name: "wait_for_event", Wait: &ws,
		Params: map[string]string{}, FactorRefs: map[string]string{}}
}

// WaitMarker creates a wait_marker action (§IV-C2).
func WaitMarker() Action { return Act("wait_marker") }
