// Package desc implements ExCovery's abstract experiment description
// (§IV-C): the experiment design with factors and levels, the processes
// executed on abstract nodes and on the environment, the platform mapping
// and the informative parameters. Descriptions are exchanged as XML
// documents (the paper's Figs. 4–10 are fragments of such documents) and
// expanded into deterministic treatment plans for execution.
package desc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Usage classifies how a factor is applied during the experiment,
// following the taxonomy of §II-A1 and the usage attributes in Fig. 5.
type Usage string

const (
	// UsageBlocking marks a controllable nuisance factor fixed by the
	// experimenter (e.g. the actor-to-node mapping). Its single level
	// applies to every run; multiple levels partition the experiment
	// into blocks.
	UsageBlocking Usage = "blocking"
	// UsageConstant marks a held-constant design factor: each level is
	// held constant for a full sweep of the faster-varying factors
	// (OFAT order).
	UsageConstant Usage = "constant"
	// UsageRandom marks a design factor whose level order is randomized
	// per sweep using the experiment seed.
	UsageRandom Usage = "random"
	// UsageReplication marks the replication factor (§IV-C: an integer
	// number of replications per treatment).
	UsageReplication Usage = "replication"
)

// LevelType is the value type of a factor's levels.
type LevelType string

const (
	// TypeInt levels parse as integers.
	TypeInt LevelType = "int"
	// TypeFloat levels parse as floating point numbers.
	TypeFloat LevelType = "float"
	// TypeString levels are free-form strings.
	TypeString LevelType = "string"
	// TypeActorNodeMap levels map actor roles to abstract node
	// instances (Fig. 5, fact_nodes).
	TypeActorNodeMap LevelType = "actor_node_map"
)

// Level is one concrete value a factor can take (§IV-C).
type Level struct {
	// Raw is the scalar value as written in the description.
	Raw string
	// ActorMap is set for actor_node_map levels: actor id → abstract
	// node id per instance index.
	ActorMap map[string][]string
}

// Int parses the level as integer.
func (l Level) Int() (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(l.Raw))
	if err != nil {
		return 0, fmt.Errorf("desc: level %q is not an int", l.Raw)
	}
	return v, nil
}

// Float parses the level as float64.
func (l Level) Float() (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(l.Raw), 64)
	if err != nil {
		return 0, fmt.Errorf("desc: level %q is not a float", l.Raw)
	}
	return v, nil
}

// String returns the raw scalar value; an actor_node_map level renders as
// its bindings, actors sorted: "actor0:M0,M1 actor1:U".
func (l Level) String() string {
	if l.ActorMap == nil {
		return l.Raw
	}
	actors := make([]string, 0, len(l.ActorMap))
	for a := range l.ActorMap {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	var b strings.Builder
	for i, a := range actors {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a + ":" + strings.Join(l.ActorMap[a], ","))
	}
	return b.String()
}

// Equal reports deep equality of two levels.
func (l Level) Equal(o Level) bool {
	if l.Raw != o.Raw || len(l.ActorMap) != len(o.ActorMap) {
		return false
	}
	for k, v := range l.ActorMap {
		ov, ok := o.ActorMap[k]
		if !ok || len(ov) != len(v) {
			return false
		}
		for i := range v {
			if v[i] != ov[i] {
				return false
			}
		}
	}
	return true
}

// Factor is one source of controlled variation (§IV-C). Its position in
// the factor list determines variation speed in OFAT plans: the first
// factor varies least often, the last changes every run.
type Factor struct {
	// ID is the unique factor identifier referenced by factorref
	// elements.
	ID string
	// Type is the level value type.
	Type LevelType
	// Usage classifies the factor's role in the design.
	Usage Usage
	// Levels is the set of levels to apply; order matters for OFAT.
	Levels []Level
	// Description is an optional human-readable comment.
	Description string
}

// Replication is the replication factor (Fig. 5): every treatment is
// repeated Count times. Its ID can be referenced as a factor to derive
// per-replication random seeds (Fig. 7 references fact_replication_id as
// random_switch_seed).
type Replication struct {
	// ID is the identifier usable in factorref elements.
	ID string
	// Count is the number of replications per treatment.
	Count int
}

// Param is an informative key-value parameter (Fig. 4) used to classify
// experiments (e.g. sd_architecture=two-party).
type Param struct {
	Key   string
	Value string
}

// WaitSpec is the dependency description of a wait_for_event action
// (§IV-C2 and Figs. 9/10).
type WaitSpec struct {
	// Event is the awaited event type (event_dependency).
	Event string
	// FromActor/FromInstance restrict the originating location to the
	// node(s) bound to an actor role; instance "all" means every
	// instance (from_dependency).
	FromActor    string
	FromInstance string
	// FromNode restricts the originating location to a single abstract
	// node.
	FromNode string
	// ParamActor/ParamInstance require an event parameter value inside
	// the node set of an actor (param_dependency); used by the SU
	// process to wait for discovery of all SMs.
	ParamActor    string
	ParamInstance string
	// Params are literal parameter requirements (key → value; empty
	// value means presence).
	Params map[string]string
	// TimeoutSec is the wait deadline in seconds; 0 means no timeout.
	TimeoutSec float64
}

// Action is one step of a process description. Flow control actions
// (wait_for_time, wait_for_event, wait_marker, event_flag) are interpreted
// by the process engine; all other actions are dispatched to the node's
// action registry (SD actions of §V, fault injections and environment
// manipulations of §IV-D).
type Action struct {
	// Name is the XML element name, e.g. "sd_init" or
	// "env_traffic_start".
	Name string
	// Params are scalar parameters from child elements, e.g.
	// <bw>50</bw> → {"bw": "50"}. Quoted values in descriptions are
	// unquoted at parse time.
	Params map[string]string
	// FactorRefs map parameter names to factor IDs for values that vary
	// with the treatment: <bw><factorref id="fact_bw"/></bw> →
	// {"bw": "fact_bw"}.
	FactorRefs map[string]string
	// Value is the chardata payload of event_flag actions.
	Value string
	// Wait is set for wait_for_event actions.
	Wait *WaitSpec
}

// Param returns the named scalar parameter or def if absent.
func (a Action) Param(k, def string) string {
	if v, ok := a.Params[k]; ok {
		return v
	}
	return def
}

// NodeProcess is a process prototype bound to an actor role (the paper's
// actor description): each abstract node mapped to the actor executes the
// action sequence.
type NodeProcess struct {
	// Actor is the actor role id, e.g. "actor0".
	Actor string
	// Name is the human-readable role name (e.g. "SM", "SU").
	Name string
	// NodesRef names the actor_node_map factor providing the actor →
	// node binding (Fig. 6 references fact_nodes).
	NodesRef string
	// Actions is the executed sequence.
	Actions []Action
}

// ManipulationProcess is a fault-injection process bound to an actor role
// (§IV-D3); it runs concurrently with the node processes.
type ManipulationProcess struct {
	// Actor is the targeted actor role.
	Actor string
	// NodesRef names the actor_node_map factor.
	NodesRef string
	// Actions is the executed sequence of fault actions and flow
	// control.
	Actions []Action
}

// EnvProcess is an environment manipulation process (§IV-D2); it is not
// node specific.
type EnvProcess struct {
	// Name is an optional label.
	Name string
	// Actions is the executed sequence.
	Actions []Action
}

// PlatformNode maps a platform node to the experiment (Fig. 8).
type PlatformNode struct {
	// ID is the platform host name.
	ID string
	// Abstract is the abstract node id this platform node realizes;
	// empty for environment nodes.
	Abstract string
	// Address is the node's network address.
	Address string
}

// Platform is the platform specification (§IV-E).
type Platform struct {
	// Actors are the nodes realizing abstract nodes.
	Actors []PlatformNode
	// Env are the environment nodes (traffic generation etc.).
	Env []PlatformNode
}

// Experiment is the complete abstract experiment description (§IV-C).
type Experiment struct {
	// Name identifies the experiment.
	Name string
	// Comment is a free-form description.
	Comment string
	// Params are informative classification parameters (Fig. 4).
	Params []Param
	// AbstractNodes lists the abstract node ids (Fig. 4).
	AbstractNodes []string
	// EnvironmentNodes lists abstract environment node ids.
	EnvironmentNodes []string
	// Factors is the ordered factor list (Fig. 5).
	Factors []Factor
	// Repl is the replication factor.
	Repl Replication
	// NodeProcesses are the actor process descriptions (Figs. 9/10).
	NodeProcesses []NodeProcess
	// ManipProcesses are fault-injection processes (§IV-D3).
	ManipProcesses []ManipulationProcess
	// EnvProcesses are environment processes (Fig. 7).
	EnvProcesses []EnvProcess
	// Platform is the platform mapping (Fig. 8).
	Platform Platform
	// Seed initializes all pseudo-random generators so random sequences
	// are reproducible (§IV-C1).
	Seed int64
	// PlanKind selects treatment-plan generation; empty means OFAT.
	PlanKind PlanKind
	// EEParams exposes implementation-specific parameters to the
	// execution program (§IV-E).
	EEParams []Param
}

// Factor returns the factor with the given id, or nil. The replication
// factor is addressable by its id as well, exposing the replication index
// (Fig. 7 uses it as a random seed source).
func (e *Experiment) Factor(id string) *Factor {
	for i := range e.Factors {
		if e.Factors[i].ID == id {
			return &e.Factors[i]
		}
	}
	return nil
}

// ParamValue returns the informative parameter value for key, or "".
func (e *Experiment) ParamValue(key string) string {
	for _, p := range e.Params {
		if p.Key == key {
			return p.Value
		}
	}
	return ""
}

// SetParam sets the informative parameter key, replacing its value in
// place or appending it.
func (e *Experiment) SetParam(key, value string) { e.Params = setParam(e.Params, key, value) }

// SetEEParam sets the EE-specific parameter key, replacing its value in
// place or appending it.
func (e *Experiment) SetEEParam(key, value string) { e.EEParams = setParam(e.EEParams, key, value) }

func setParam(ps []Param, key, value string) []Param {
	for i := range ps {
		if ps[i].Key == key {
			ps[i].Value = value
			return ps
		}
	}
	return append(ps, Param{Key: key, Value: value})
}

// EEParam returns the EE-specific parameter value for key, or def.
func (e *Experiment) EEParam(key, def string) string {
	for _, p := range e.EEParams {
		if p.Key == key {
			return p.Value
		}
	}
	return def
}

// unquote strips one pair of surrounding double quotes; the paper's
// listings quote literal values ("done", "30").
func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// RolesFor resolves actor roles to platform node ids for one run: the
// run's actor_node_map levels bind actors to abstract nodes, and the
// platform specification maps abstract nodes to platform nodes (§IV-E).
// Abstract nodes without a platform mapping map to themselves.
func RolesFor(e *Experiment, run Run) map[string][]string {
	a2p := map[string]string{}
	for _, pn := range e.Platform.Actors {
		a2p[pn.Abstract] = pn.ID
	}
	roles := map[string][]string{}
	for _, f := range e.Factors {
		if f.Type != TypeActorNodeMap {
			continue
		}
		l, ok := run.Level(f.ID)
		if !ok {
			continue
		}
		for actor, abstracts := range l.ActorMap {
			nodes := make([]string, len(abstracts))
			for i, ab := range abstracts {
				if p, mapped := a2p[ab]; mapped {
					nodes[i] = p
				} else {
					nodes[i] = ab
				}
			}
			roles[actor] = nodes
		}
	}
	return roles
}
