package desc

import (
	"strings"
	"testing"
)

// fig4 is the rudimentary description of Fig. 4 (informative parameters
// and abstract nodes), embedded in a full document skeleton.
const fig4 = `<?xml version="1.0"?>
<experiment name="fig4" comment="rudimentary">
  <parameterlist>
    <parameter key="sd_architecture">two-party</parameter>
    <parameter key="sd_protocol">zeroconf</parameter>
    <parameter key="sd_scheme">active</parameter>
  </parameterlist>
  <nodes>
    <abstractnode id="A" />
    <abstractnode id="B" />
  </nodes>
</experiment>`

func TestFig4Description(t *testing.T) {
	e, err := ParseString(fig4)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "fig4" {
		t.Errorf("name = %q", e.Name)
	}
	if len(e.AbstractNodes) != 2 || e.AbstractNodes[0] != "A" || e.AbstractNodes[1] != "B" {
		t.Errorf("abstract nodes = %v", e.AbstractNodes)
	}
	if got := e.ParamValue("sd_architecture"); got != "two-party" {
		t.Errorf("sd_architecture = %q", got)
	}
	if got := e.ParamValue("nope"); got != "" {
		t.Errorf("missing param = %q", got)
	}
}

// fig5 is the factor list of Fig. 5.
const fig5 = `<?xml version="1.0"?>
<experiment name="fig5">
  <nodes><abstractnode id="A" /><abstractnode id="B" /></nodes>
  <factorlist>
    <factor id="fact_nodes" type="actor_node_map" usage="blocking">
      <levels><level>
        <actor id="actor0"><instance id="0">A</instance></actor>
        <actor id="actor1"><instance id="0">B</instance></actor>
      </level></levels>
    </factor>
    <factor usage="random" type="int" id="fact_pairs">
      <levels>
        <level>5</level><level>20</level>
      </levels>
    </factor>
    <factor usage="constant" id="fact_bw" type="int">
      <description>datarate generated load</description>
      <levels>
        <level>10</level><level>50</level><level>100</level>
      </levels>
    </factor>
    <replicationfactor usage="replication" type="int" id="fact_replication_id">1000</replicationfactor>
  </factorlist>
</experiment>`

func TestFig5Factors(t *testing.T) {
	e, err := ParseString(fig5)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Factors) != 3 {
		t.Fatalf("factors = %d", len(e.Factors))
	}
	fn := e.Factor("fact_nodes")
	if fn == nil || fn.Type != TypeActorNodeMap || fn.Usage != UsageBlocking {
		t.Fatalf("fact_nodes = %+v", fn)
	}
	if got := fn.Levels[0].ActorMap["actor1"]; len(got) != 1 || got[0] != "B" {
		t.Fatalf("actor1 nodes = %v", got)
	}
	fp := e.Factor("fact_pairs")
	if fp.Usage != UsageRandom || len(fp.Levels) != 2 {
		t.Fatalf("fact_pairs = %+v", fp)
	}
	if v, _ := fp.Levels[1].Int(); v != 20 {
		t.Fatalf("fact_pairs level 1 = %v", fp.Levels[1])
	}
	fb := e.Factor("fact_bw")
	if fb.Description != "datarate generated load" || len(fb.Levels) != 3 {
		t.Fatalf("fact_bw = %+v", fb)
	}
	if e.Repl.ID != "fact_replication_id" || e.Repl.Count != 1000 {
		t.Fatalf("replication = %+v", e.Repl)
	}
}

// fig7 is the environment traffic process of Fig. 7.
const fig7 = `<?xml version="1.0"?>
<experiment name="fig7">
  <nodes><abstractnode id="A" /></nodes>
  <factorlist>
    <factor id="fact_nodes" type="actor_node_map" usage="blocking">
      <levels><level><actor id="actor0"><instance id="0">A</instance></actor></level></levels>
    </factor>
    <factor usage="random" type="int" id="fact_pairs"><levels><level>5</level></levels></factor>
    <factor usage="constant" type="int" id="fact_bw"><levels><level>10</level></levels></factor>
    <replicationfactor usage="replication" type="int" id="fact_replication_id">10</replicationfactor>
  </factorlist>
  <processes>
    <env_process>
      <env_actions>
        <event_flag><value>"ready_to_init"</value></event_flag>
        <env_traffic_start>
          <bw><factorref id="fact_bw" /></bw>
          <choice>0</choice>
          <random_switch_amount>"1"</random_switch_amount>
          <random_switch_seed><factorref id="fact_replication_id" /></random_switch_seed>
          <random_pairs><factorref id="fact_pairs" /></random_pairs>
          <random_seed><factorref id="fact_pairs" /></random_seed>
        </env_traffic_start>
        <wait_for_event>
          <event_dependency>"done"</event_dependency>
        </wait_for_event>
        <env_traffic_stop />
      </env_actions>
    </env_process>
  </processes>
</experiment>`

func TestFig7EnvProcess(t *testing.T) {
	e, err := ParseString(fig7)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.EnvProcesses) != 1 {
		t.Fatalf("env processes = %d", len(e.EnvProcesses))
	}
	acts := e.EnvProcesses[0].Actions
	if len(acts) != 4 {
		t.Fatalf("actions = %d", len(acts))
	}
	if acts[0].Name != "event_flag" || acts[0].Value != "ready_to_init" {
		t.Fatalf("action 0 = %+v (quotes must be stripped)", acts[0])
	}
	ts := acts[1]
	if ts.Name != "env_traffic_start" {
		t.Fatalf("action 1 = %+v", ts)
	}
	if ts.FactorRefs["bw"] != "fact_bw" || ts.FactorRefs["random_switch_seed"] != "fact_replication_id" {
		t.Fatalf("factor refs = %v", ts.FactorRefs)
	}
	if ts.Params["choice"] != "0" || ts.Params["random_switch_amount"] != "1" {
		t.Fatalf("params = %v", ts.Params)
	}
	if acts[2].Wait == nil || acts[2].Wait.Event != "done" {
		t.Fatalf("wait = %+v", acts[2].Wait)
	}
	if acts[3].Name != "env_traffic_stop" {
		t.Fatalf("action 3 = %+v", acts[3])
	}
	if err := Validate(e); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// fig9and10 contains the SM and SU processes of Figs. 9 and 10.
const fig9and10 = `<?xml version="1.0"?>
<experiment name="fig9-10">
  <nodes><abstractnode id="A" /><abstractnode id="B" /></nodes>
  <factorlist>
    <factor id="fact_nodes" type="actor_node_map" usage="blocking">
      <levels><level>
        <actor id="actor0"><instance id="0">A</instance></actor>
        <actor id="actor1"><instance id="0">B</instance></actor>
      </level></levels>
    </factor>
  </factorlist>
  <processes>
    <node_process actor="actor0" name="SM" nodesref="fact_nodes">
      <sd_actions>
        <sd_init />
        <sd_start_publish />
        <wait_for_event>
          <event_dependency>"done"</event_dependency>
        </wait_for_event>
        <sd_stop_publish />
        <sd_exit />
      </sd_actions>
    </node_process>
    <node_process actor="actor1" name="SU" nodesref="fact_nodes">
      <sd_actions>
        <wait_for_event>
          <from_dependency>
            <node actor="actor0" instance="all" />
          </from_dependency>
          <event_dependency>"sd_start_publish"</event_dependency>
        </wait_for_event>
        <wait_for_event>
          <event_dependency>"ready_to_init"</event_dependency>
        </wait_for_event>
        <sd_init />
        <wait_marker />
        <sd_start_search />
        <wait_for_event>
          <from_dependency><node actor="actor1" instance="all" /></from_dependency>
          <event_dependency>"sd_service_add"</event_dependency>
          <param_dependency><node actor="actor0" instance="all" /></param_dependency>
          <timeout>"30"</timeout>
        </wait_for_event>
        <event_flag><value>"done"</value></event_flag>
        <sd_stop_search />
        <sd_exit />
      </sd_actions>
    </node_process>
  </processes>
</experiment>`

func TestFig9And10Processes(t *testing.T) {
	e, err := ParseString(fig9and10)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.NodeProcesses) != 2 {
		t.Fatalf("node processes = %d", len(e.NodeProcesses))
	}
	sm := e.NodeProcesses[0]
	if sm.Actor != "actor0" || sm.Name != "SM" || sm.NodesRef != "fact_nodes" {
		t.Fatalf("SM = %+v", sm)
	}
	names := make([]string, len(sm.Actions))
	for i, a := range sm.Actions {
		names[i] = a.Name
	}
	want := "[sd_init sd_start_publish wait_for_event sd_stop_publish sd_exit]"
	if got := strings.Join(names, " "); "["+got+"]" != want {
		t.Fatalf("SM actions = %v", names)
	}

	su := e.NodeProcesses[1]
	if len(su.Actions) != 9 {
		t.Fatalf("SU actions = %d", len(su.Actions))
	}
	w0 := su.Actions[0].Wait
	if w0 == nil || w0.Event != "sd_start_publish" || w0.FromActor != "actor0" || w0.FromInstance != "all" {
		t.Fatalf("SU wait 0 = %+v", w0)
	}
	w5 := su.Actions[5].Wait
	if w5 == nil || w5.Event != "sd_service_add" || w5.ParamActor != "actor0" ||
		w5.FromActor != "actor1" || w5.TimeoutSec != 30 {
		t.Fatalf("SU wait 5 = %+v", w5)
	}
	if su.Actions[3].Name != "wait_marker" {
		t.Fatalf("SU action 3 = %v", su.Actions[3].Name)
	}
	if err := Validate(e); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

const fig8 = `<?xml version="1.0"?>
<experiment name="fig8">
  <nodes><abstractnode id="A" /><abstractnode id="B" /></nodes>
  <platform>
    <actornode id="t9-105" abstract="A" address="10.0.1.105" />
    <actornode id="t9-149" abstract="B" address="10.0.1.149" />
    <envnode id="t9-108" address="10.0.1.108" />
    <envnode id="t9-150" address="10.0.1.150" />
    <envnode id="t9-117" address="10.0.1.117" />
    <envnode id="t9-146" address="10.0.1.146" />
  </platform>
</experiment>`

func TestFig8PlatformMapping(t *testing.T) {
	e, err := ParseString(fig8)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Platform.Actors) != 2 || len(e.Platform.Env) != 4 {
		t.Fatalf("platform = %+v", e.Platform)
	}
	if e.Platform.Actors[0].ID != "t9-105" || e.Platform.Actors[0].Abstract != "A" ||
		e.Platform.Actors[0].Address != "10.0.1.105" {
		t.Fatalf("actor node 0 = %+v", e.Platform.Actors[0])
	}
}

func TestCaseStudyValidatesAndMatchesPaper(t *testing.T) {
	e := CaseStudy(1000)
	if err := Validate(e); err != nil {
		t.Fatalf("case study invalid: %v", err)
	}
	plan, err := GeneratePlan(e)
	if err != nil {
		t.Fatal(err)
	}
	// 1 node-map level × 2 pair levels × 3 bw levels × 1000 reps.
	if len(plan.Runs) != 6000 {
		t.Fatalf("runs = %d, want 6000", len(plan.Runs))
	}
	if plan.Treatments != 6 {
		t.Fatalf("treatments = %d, want 6", plan.Treatments)
	}
}

func TestOneShotValidates(t *testing.T) {
	e := OneShot(30)
	if err := Validate(e); err != nil {
		t.Fatal(err)
	}
	plan, err := GeneratePlan(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Runs) != 1 {
		t.Fatalf("runs = %d", len(plan.Runs))
	}
}

func TestRoundTripCaseStudy(t *testing.T) {
	e := CaseStudy(10)
	doc, err := EncodeString(e)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ParseString(doc)
	if err != nil {
		t.Fatalf("reparse: %v\ndoc:\n%s", err, doc)
	}
	if err := Validate(e2); err != nil {
		t.Fatalf("reparsed invalid: %v", err)
	}
	// Round trip must preserve plan identity.
	p1, err := GeneratePlan(e)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GeneratePlan(e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Runs) != len(p2.Runs) {
		t.Fatalf("plan sizes differ: %d vs %d", len(p1.Runs), len(p2.Runs))
	}
	for i := range p1.Runs {
		for fid, l := range p1.Runs[i].Treatment {
			if !l.Equal(p2.Runs[i].Treatment[fid]) {
				t.Fatalf("run %d factor %s: %v vs %v", i, fid, l, p2.Runs[i].Treatment[fid])
			}
		}
	}
	// Processes preserved.
	if len(e2.NodeProcesses) != 2 || len(e2.EnvProcesses) != 1 {
		t.Fatalf("processes lost: %d node, %d env", len(e2.NodeProcesses), len(e2.EnvProcesses))
	}
	su := e2.NodeProcesses[1]
	if su.Actions[6].Wait == nil || su.Actions[6].Wait.TimeoutSec != 30 {
		t.Fatalf("SU deadline lost: %+v", su.Actions[6])
	}
	tr := e2.EnvProcesses[0].Actions[1]
	if tr.FactorRefs["bw"] != "fact_bw" {
		t.Fatalf("factor ref lost: %+v", tr)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(e *Experiment)
		want   string
	}{
		{"empty name", func(e *Experiment) { e.Name = "" }, "no name"},
		{"dup abstract node", func(e *Experiment) { e.AbstractNodes = append(e.AbstractNodes, "A") }, "duplicate abstract node"},
		{"dup factor", func(e *Experiment) { e.Factors = append(e.Factors, IntFactor("fact_pairs", UsageRandom, 1)) }, "duplicate factor"},
		{"bad level", func(e *Experiment) { e.Factors[1].Levels[0].Raw = "xyz" }, "not an int"},
		{"no levels", func(e *Experiment) { e.Factors[1].Levels = nil }, "no levels"},
		{"bad usage", func(e *Experiment) { e.Factors[1].Usage = "wild" }, "unknown usage"},
		{"bad type", func(e *Experiment) { e.Factors[1].Type = "blob" }, "unknown type"},
		{"unknown mapped node", func(e *Experiment) {
			e.Factors[0].Levels[0].ActorMap["actor0"] = []string{"Z"}
		}, "unknown abstract node"},
		{"zero replication", func(e *Experiment) { e.Repl.Count = 0 }, "count 0"},
		{"unknown factorref", func(e *Experiment) {
			e.EnvProcesses[0].Actions[1].FactorRefs["bw"] = "nope"
		}, "unknown factor"},
		{"dup node process", func(e *Experiment) {
			e.NodeProcesses = append(e.NodeProcesses, e.NodeProcesses[0])
		}, "duplicate node process"},
		{"unknown actor", func(e *Experiment) { e.NodeProcesses[0].Actor = "actor9" }, "not bound"},
		{"bad nodesref", func(e *Experiment) { e.NodeProcesses[0].NodesRef = "fact_bw" }, "not an actor_node_map"},
		{"empty actions", func(e *Experiment) { e.NodeProcesses[0].Actions = nil }, "empty action sequence"},
		{"wait without deps", func(e *Experiment) {
			e.NodeProcesses[0].Actions[2].Wait = &WaitSpec{}
		}, "neither event nor param"},
		{"negative timeout", func(e *Experiment) {
			e.NodeProcesses[1].Actions[6].Wait.TimeoutSec = -1
		}, "negative timeout"},
		{"flag without value", func(e *Experiment) {
			e.NodeProcesses[1].Actions[7].Value = ""
		}, "event_flag without value"},
		{"platform unknown abstract", func(e *Experiment) {
			e.Platform.Actors[0].Abstract = "Z"
		}, "unknown abstract"},
		{"platform incomplete mapping", func(e *Experiment) {
			e.Platform.Actors = e.Platform.Actors[:1]
		}, "no platform mapping"},
		{"dup platform node", func(e *Experiment) {
			e.Platform.Env[0].ID = e.Platform.Actors[0].ID
		}, "duplicate platform node"},
		{"bad plan kind", func(e *Experiment) { e.PlanKind = "chaotic" }, "unknown plan kind"},
	}
	for _, c := range cases {
		e := CaseStudy(10)
		c.mutate(e)
		err := Validate(e)
		if err == nil {
			t.Errorf("%s: Validate passed, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsCleanDescriptions(t *testing.T) {
	for _, e := range []*Experiment{CaseStudy(1), OneShot(5)} {
		if err := Validate(e); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"<foo></foo>",    // wrong root
		"<experiment>",   // malformed
		"<a></a><b></b>", // multiple roots
		`<experiment name="x"><execution seed="abc" /></experiment>`, // bad seed
	}
	for _, doc := range cases {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("ParseString(%q) succeeded", doc)
		}
	}
}

func TestUnquote(t *testing.T) {
	cases := map[string]string{
		`"done"`:  "done",
		`done`:    "done",
		` "30" `:  "30",
		`""`:      "",
		`"`:       `"`,
		`"a"b"`:   `a"b`,
		`  bare `: "bare",
	}
	for in, want := range cases {
		if got := unquote(in); got != want {
			t.Errorf("unquote(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLevelParsers(t *testing.T) {
	if v, err := (Level{Raw: " 42 "}).Int(); err != nil || v != 42 {
		t.Errorf("Int = %d, %v", v, err)
	}
	if _, err := (Level{Raw: "x"}).Int(); err == nil {
		t.Error("Int on non-number succeeded")
	}
	if v, err := (Level{Raw: "2.5"}).Float(); err != nil || v != 2.5 {
		t.Errorf("Float = %v, %v", v, err)
	}
	if _, err := (Level{Raw: "x"}).Float(); err == nil {
		t.Error("Float on non-number succeeded")
	}
}

func TestActPanicsOnOddKV(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Act("x", "key-without-value")
}

// fig6 is the process template listing of Fig. 6: a node process bound to
// an actor role (with the abstract nodes referenced from the factor list)
// and an environment process that "does not need a definition of nodes".
const fig6 = `<?xml version="1.0"?>
<experiment name="fig6">
  <nodes><abstractnode id="A" /></nodes>
  <factorlist>
    <factor id="fact_nodes" type="actor_node_map" usage="blocking">
      <levels><level><actor id="actor0"><instance id="0">A</instance></actor></level></levels>
    </factor>
  </factorlist>
  <processes>
    <node_process actor="actor0" name="proto" nodesref="fact_nodes">
      <sd_actions>
        <sd_init />
      </sd_actions>
    </node_process>
    <manipulation_process actor="actor0" nodesref="fact_nodes">
      <manip_actions>
        <fault_msg_loss><prob>0.5</prob></fault_msg_loss>
      </manip_actions>
    </manipulation_process>
    <env_process>
      <env_actions>
        <env_traffic_stop />
      </env_actions>
    </env_process>
  </processes>
</experiment>`

func TestFig6ProcessTemplates(t *testing.T) {
	e, err := ParseString(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.NodeProcesses) != 1 || len(e.ManipProcesses) != 1 || len(e.EnvProcesses) != 1 {
		t.Fatalf("processes: %d node, %d manip, %d env",
			len(e.NodeProcesses), len(e.ManipProcesses), len(e.EnvProcesses))
	}
	np := e.NodeProcesses[0]
	if np.Actor != "actor0" || np.NodesRef != "fact_nodes" || len(np.Actions) != 1 {
		t.Fatalf("node process = %+v", np)
	}
	mp := e.ManipProcesses[0]
	if mp.Actor != "actor0" || mp.Actions[0].Params["prob"] != "0.5" {
		t.Fatalf("manipulation process = %+v", mp)
	}
	if e.EnvProcesses[0].Actions[0].Name != "env_traffic_stop" {
		t.Fatalf("env process = %+v", e.EnvProcesses[0])
	}
	if err := Validate(e); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentModelRoundTrip covers the Fig. 1 model end to end: an
// experiment exercising every description feature encodes to XML and
// parses back without loss.
func TestExperimentModelRoundTrip(t *testing.T) {
	e := &Experiment{
		Name:             "full-model",
		Comment:          "all features",
		Params:           []Param{{Key: "k", Value: "v"}},
		AbstractNodes:    []string{"A", "B"},
		EnvironmentNodes: []string{"E0"},
		Factors: []Factor{
			ActorMapFactor("f_map", UsageBlocking, map[string][]string{
				"actor0": {"A", "B"},
			}),
			IntFactor("f_int", UsageRandom, 1, 2, 3),
			FloatFactor("f_float", UsageConstant, 0.5, 1.5),
			StringFactor("f_str", UsageConstant, "x", "y"),
		},
		Repl:     Replication{ID: "rep", Count: 7},
		Seed:     99,
		PlanKind: PlanRandomized,
		EEParams: []Param{{Key: "impl", Value: "go"}},
	}
	e.NodeProcesses = []NodeProcess{{
		Actor: "actor0", Name: "X", NodesRef: "f_map",
		Actions: []Action{
			Act("sd_init"),
			WaitTime(1.5),
			WaitMarker(),
			WaitEvent(WaitSpec{
				Event: "ev", FromActor: "actor0", FromInstance: "1",
				ParamActor: "actor0", ParamInstance: "all",
				Params: map[string]string{"pk": "pv"}, TimeoutSec: 2.5,
			}),
			Flag("flagged"),
			Act("custom", "a", "b").WithFactorRef("x", "f_int"),
		},
	}}
	e.ManipProcesses = []ManipulationProcess{{
		Actor: "actor0", NodesRef: "f_map",
		Actions: []Action{Act("fault_msg_loss", "prob", "0.3")},
	}}
	e.EnvProcesses = []EnvProcess{{
		Name:    "env",
		Actions: []Action{Act("env_drop_all_start"), Act("env_drop_all_stop")},
	}}
	e.Platform = Platform{
		Actors: []PlatformNode{
			{ID: "p0", Abstract: "A", Address: "10.0.0.1"},
			{ID: "p1", Abstract: "B", Address: "10.0.0.2"},
		},
		Env: []PlatformNode{{ID: "p2", Address: "10.0.0.3"}},
	}
	if err := Validate(e); err != nil {
		t.Fatal(err)
	}

	doc, err := EncodeString(e)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ParseString(doc)
	if err != nil {
		t.Fatalf("%v\n%s", err, doc)
	}
	if err := Validate(e2); err != nil {
		t.Fatal(err)
	}
	if e2.Name != e.Name || e2.Comment != e.Comment || e2.Seed != 99 || e2.PlanKind != PlanRandomized {
		t.Fatalf("header lost: %+v", e2)
	}
	if e2.EEParam("impl", "") != "go" {
		t.Fatal("eeparams lost")
	}
	if len(e2.Factors) != 4 || e2.Factors[1].Usage != UsageRandom {
		t.Fatalf("factors lost: %+v", e2.Factors)
	}
	w := e2.NodeProcesses[0].Actions[3].Wait
	if w == nil || w.Event != "ev" || w.FromInstance != "1" || w.ParamActor != "actor0" ||
		w.Params["pk"] != "pv" || w.TimeoutSec != 2.5 {
		t.Fatalf("wait spec lost: %+v", w)
	}
	if e2.NodeProcesses[0].Actions[5].FactorRefs["x"] != "f_int" {
		t.Fatal("factor ref lost")
	}
	if e2.NodeProcesses[0].Actions[4].Value != "flagged" {
		t.Fatal("flag value lost")
	}
	if len(e2.ManipProcesses) != 1 || e2.ManipProcesses[0].Actions[0].Params["prob"] != "0.3" {
		t.Fatal("manipulation process lost")
	}
	if len(e2.Platform.Env) != 1 || e2.Platform.Actors[1].Address != "10.0.0.2" {
		t.Fatalf("platform lost: %+v", e2.Platform)
	}
	// Both descriptions generate identical plans.
	p1, _ := GeneratePlan(e)
	p2, _ := GeneratePlan(e2)
	if len(p1.Runs) != len(p2.Runs) {
		t.Fatalf("plan size differs: %d vs %d", len(p1.Runs), len(p2.Runs))
	}
	for i := range p1.Runs {
		for fid, l := range p1.Runs[i].Treatment {
			if !l.Equal(p2.Runs[i].Treatment[fid]) {
				t.Fatalf("plan diverges at run %d factor %s", i, fid)
			}
		}
	}
}
