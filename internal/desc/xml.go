package desc

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements the XML codec for experiment descriptions. The
// document structure follows the paper's listings (Figs. 4–10); action
// sequences contain arbitrary elements, so parsing goes through a small
// generic element tree instead of static struct tags.

// elem is a minimal DOM node.
type elem struct {
	name  string
	attrs map[string]string
	text  string
	kids  []*elem
}

func (e *elem) attr(k string) string { return e.attrs[k] }

func (e *elem) child(name string) *elem {
	for _, k := range e.kids {
		if k.name == name {
			return k
		}
	}
	return nil
}

func (e *elem) children(name string) []*elem {
	var out []*elem
	for _, k := range e.kids {
		if k.name == name {
			out = append(out, k)
		}
	}
	return out
}

func (e *elem) childText(name string) string {
	if c := e.child(name); c != nil {
		return strings.TrimSpace(c.text)
	}
	return ""
}

// parseTree reads an XML document into an element tree, dropping comments
// and processing instructions.
func parseTree(r io.Reader) (*elem, error) {
	dec := xml.NewDecoder(r)
	var stack []*elem
	var root *elem
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("desc: xml parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			e := &elem{name: t.Name.Local, attrs: map[string]string{}}
			for _, a := range t.Attr {
				e.attrs[a.Name.Local] = a.Value
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("desc: multiple root elements")
				}
				root = e
			} else {
				top := stack[len(stack)-1]
				top.kids = append(top.kids, e)
			}
			stack = append(stack, e)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text += string(t)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("desc: empty document")
	}
	return root, nil
}

// Parse reads an experiment description document.
func Parse(r io.Reader) (*Experiment, error) {
	root, err := parseTree(r)
	if err != nil {
		return nil, err
	}
	if root.name != "experiment" {
		return nil, fmt.Errorf("desc: root element is %q, want experiment", root.name)
	}
	e := &Experiment{
		Name:    root.attr("name"),
		Comment: root.attr("comment"),
	}
	if pl := root.child("parameterlist"); pl != nil {
		e.Params = parseParams(pl)
	}
	if ns := root.child("nodes"); ns != nil {
		for _, n := range ns.children("abstractnode") {
			e.AbstractNodes = append(e.AbstractNodes, n.attr("id"))
		}
		for _, n := range ns.children("environmentnode") {
			e.EnvironmentNodes = append(e.EnvironmentNodes, n.attr("id"))
		}
	}
	if fl := root.child("factorlist"); fl != nil {
		if err := parseFactorList(fl, e); err != nil {
			return nil, err
		}
	}
	if ps := root.child("processes"); ps != nil {
		if err := parseProcesses(ps, e); err != nil {
			return nil, err
		}
	}
	if pf := root.child("platform"); pf != nil {
		for _, n := range pf.children("actornode") {
			e.Platform.Actors = append(e.Platform.Actors, PlatformNode{
				ID: n.attr("id"), Abstract: n.attr("abstract"), Address: n.attr("address"),
			})
		}
		for _, n := range pf.children("envnode") {
			e.Platform.Env = append(e.Platform.Env, PlatformNode{
				ID: n.attr("id"), Address: n.attr("address"),
			})
		}
	}
	if ex := root.child("execution"); ex != nil {
		if s := ex.attr("seed"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("desc: bad seed %q", s)
			}
			e.Seed = v
		}
		e.PlanKind = PlanKind(ex.attr("plan"))
	}
	if ep := root.child("eeparams"); ep != nil {
		e.EEParams = parseParams(ep)
	}
	return e, nil
}

// ParseString parses a description from a string.
func ParseString(s string) (*Experiment, error) {
	return Parse(strings.NewReader(s))
}

func parseParams(pl *elem) []Param {
	var out []Param
	for _, p := range pl.children("parameter") {
		out = append(out, Param{Key: p.attr("key"), Value: strings.TrimSpace(p.text)})
	}
	return out
}

func parseFactorList(fl *elem, e *Experiment) error {
	for _, k := range fl.kids {
		switch k.name {
		case "factor":
			f := Factor{
				ID:          k.attr("id"),
				Type:        LevelType(k.attr("type")),
				Usage:       Usage(k.attr("usage")),
				Description: k.childText("description"),
			}
			if lv := k.child("levels"); lv != nil {
				for _, l := range lv.children("level") {
					level, err := parseLevel(l, f.Type)
					if err != nil {
						return fmt.Errorf("desc: factor %s: %w", f.ID, err)
					}
					f.Levels = append(f.Levels, level)
				}
			}
			e.Factors = append(e.Factors, f)
		case "replicationfactor":
			n, err := strconv.Atoi(strings.TrimSpace(k.text))
			if err != nil {
				return fmt.Errorf("desc: bad replication count %q", k.text)
			}
			e.Repl = Replication{ID: k.attr("id"), Count: n}
		}
	}
	return nil
}

func parseLevel(l *elem, t LevelType) (Level, error) {
	if t == TypeActorNodeMap {
		lv := Level{ActorMap: map[string][]string{}}
		for _, a := range l.children("actor") {
			id := a.attr("id")
			insts := a.children("instance")
			nodes := make([]string, len(insts))
			for _, in := range insts {
				idx, err := strconv.Atoi(in.attr("id"))
				if err != nil || idx < 0 || idx >= len(insts) {
					return Level{}, fmt.Errorf("bad instance id %q", in.attr("id"))
				}
				nodes[idx] = strings.TrimSpace(in.text)
			}
			lv.ActorMap[id] = nodes
		}
		return lv, nil
	}
	return Level{Raw: unquote(l.text)}, nil
}

func parseProcesses(ps *elem, e *Experiment) error {
	for _, k := range ps.kids {
		switch k.name {
		case "node_process":
			np := NodeProcess{
				Actor:    k.attr("actor"),
				Name:     k.attr("name"),
				NodesRef: k.attr("nodesref"),
			}
			np.Actions = parseActionsContainer(k)
			e.NodeProcesses = append(e.NodeProcesses, np)
		case "manipulation_process":
			mp := ManipulationProcess{
				Actor:    k.attr("actor"),
				NodesRef: k.attr("nodesref"),
			}
			mp.Actions = parseActionsContainer(k)
			e.ManipProcesses = append(e.ManipProcesses, mp)
		case "env_process":
			ep := EnvProcess{Name: k.attr("name")}
			ep.Actions = parseActionsContainer(k)
			e.EnvProcesses = append(e.EnvProcesses, ep)
		}
	}
	return nil
}

// parseActionsContainer accepts either a wrapper child (sd_actions,
// env_actions, manip_actions, actions) or direct action children.
func parseActionsContainer(k *elem) []Action {
	container := k
	for _, w := range []string{"sd_actions", "env_actions", "manip_actions", "actions"} {
		if c := k.child(w); c != nil {
			container = c
			break
		}
	}
	var out []Action
	for _, a := range container.kids {
		out = append(out, parseAction(a))
	}
	return out
}

func parseAction(a *elem) Action {
	act := Action{
		Name:       a.name,
		Params:     map[string]string{},
		FactorRefs: map[string]string{},
	}
	for k, v := range a.attrs {
		act.Params[k] = v
	}
	switch a.name {
	case "wait_for_event":
		act.Wait = parseWaitSpec(a)
		return act
	case "event_flag":
		act.Value = unquote(a.childText("value"))
		return act
	}
	for _, c := range a.kids {
		if fr := c.child("factorref"); fr != nil {
			act.FactorRefs[c.name] = fr.attr("id")
			continue
		}
		act.Params[c.name] = unquote(c.text)
	}
	// wait_for_time also takes its seconds as bare text: <wait_for_time>5</…>.
	if a.name == "wait_for_time" && act.Params["seconds"] == "" {
		if s := strings.TrimSpace(a.text); s != "" {
			act.Params["seconds"] = unquote(s)
		}
	}
	return act
}

func parseWaitSpec(a *elem) *WaitSpec {
	w := &WaitSpec{Params: map[string]string{}}
	w.Event = unquote(a.childText("event_dependency"))
	if fd := a.child("from_dependency"); fd != nil {
		if n := fd.child("node"); n != nil {
			w.FromActor = n.attr("actor")
			w.FromInstance = n.attr("instance")
			if id := n.attr("id"); id != "" {
				w.FromNode = id
			}
		} else {
			w.FromNode = unquote(fd.text)
		}
	}
	if pd := a.child("param_dependency"); pd != nil {
		if n := pd.child("node"); n != nil {
			w.ParamActor = n.attr("actor")
			w.ParamInstance = n.attr("instance")
		}
	}
	for _, p := range a.children("param") {
		w.Params[p.attr("key")] = unquote(p.text)
	}
	if ts := a.childText("timeout"); ts != "" {
		if v, err := strconv.ParseFloat(unquote(ts), 64); err == nil {
			w.TimeoutSec = v
		}
	}
	return w
}

// --- Marshalling ---

// Encode writes the experiment description as an XML document.
func Encode(e *Experiment, w io.Writer) error {
	var b strings.Builder
	b.Grow(8 << 10) // typical documents are a few KiB; skip doubling growth
	b.WriteString(xml.Header)
	fmt.Fprintf(&b, "<experiment name=\"%s\" comment=\"%s\">\n", esc(e.Name), esc(e.Comment))
	if len(e.Params) > 0 {
		b.WriteString("  <parameterlist>\n")
		for _, p := range e.Params {
			fmt.Fprintf(&b, "    <parameter key=\"%s\">%s</parameter>\n", esc(p.Key), esc(p.Value))
		}
		b.WriteString("  </parameterlist>\n")
	}
	b.WriteString("  <nodes>\n")
	for _, n := range e.AbstractNodes {
		fmt.Fprintf(&b, "    <abstractnode id=\"%s\" />\n", esc(n))
	}
	for _, n := range e.EnvironmentNodes {
		fmt.Fprintf(&b, "    <environmentnode id=\"%s\" />\n", esc(n))
	}
	b.WriteString("  </nodes>\n")
	b.WriteString("  <factorlist>\n")
	for _, f := range e.Factors {
		fmt.Fprintf(&b, "    <factor id=\"%s\" type=\"%s\" usage=\"%s\">\n", esc(f.ID), esc(string(f.Type)), esc(string(f.Usage)))
		if f.Description != "" {
			fmt.Fprintf(&b, "      <description>%s</description>\n", esc(f.Description))
		}
		b.WriteString("      <levels>\n")
		for _, l := range f.Levels {
			encodeLevel(&b, l, f.Type)
		}
		b.WriteString("      </levels>\n")
		b.WriteString("    </factor>\n")
	}
	if e.Repl.Count > 0 {
		fmt.Fprintf(&b, "    <replicationfactor usage=\"replication\" type=\"int\" id=\"%s\">%d</replicationfactor>\n",
			esc(e.Repl.ID), e.Repl.Count)
	}
	b.WriteString("  </factorlist>\n")
	b.WriteString("  <processes>\n")
	for _, np := range e.NodeProcesses {
		fmt.Fprintf(&b, "    <node_process actor=\"%s\" name=\"%s\" nodesref=\"%s\">\n      <sd_actions>\n",
			esc(np.Actor), esc(np.Name), esc(np.NodesRef))
		for _, a := range np.Actions {
			encodeAction(&b, a, "        ")
		}
		b.WriteString("      </sd_actions>\n    </node_process>\n")
	}
	for _, mp := range e.ManipProcesses {
		fmt.Fprintf(&b, "    <manipulation_process actor=\"%s\" nodesref=\"%s\">\n      <manip_actions>\n",
			esc(mp.Actor), esc(mp.NodesRef))
		for _, a := range mp.Actions {
			encodeAction(&b, a, "        ")
		}
		b.WriteString("      </manip_actions>\n    </manipulation_process>\n")
	}
	for _, ep := range e.EnvProcesses {
		fmt.Fprintf(&b, "    <env_process name=\"%s\">\n      <env_actions>\n", esc(ep.Name))
		for _, a := range ep.Actions {
			encodeAction(&b, a, "        ")
		}
		b.WriteString("      </env_actions>\n    </env_process>\n")
	}
	b.WriteString("  </processes>\n")
	b.WriteString("  <platform>\n")
	for _, n := range e.Platform.Actors {
		fmt.Fprintf(&b, "    <actornode id=\"%s\" abstract=\"%s\" address=\"%s\" />\n", esc(n.ID), esc(n.Abstract), esc(n.Address))
	}
	for _, n := range e.Platform.Env {
		fmt.Fprintf(&b, "    <envnode id=\"%s\" address=\"%s\" />\n", esc(n.ID), esc(n.Address))
	}
	b.WriteString("  </platform>\n")
	fmt.Fprintf(&b, "  <execution seed=\"%d\" plan=\"%s\" />\n", e.Seed, esc(string(e.PlanKind)))
	if len(e.EEParams) > 0 {
		b.WriteString("  <eeparams>\n")
		for _, p := range e.EEParams {
			fmt.Fprintf(&b, "    <parameter key=\"%s\">%s</parameter>\n", esc(p.Key), esc(p.Value))
		}
		b.WriteString("  </eeparams>\n")
	}
	b.WriteString("</experiment>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// EncodeString returns the XML document as a string.
func EncodeString(e *Experiment) (string, error) {
	var b strings.Builder
	if err := Encode(e, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

func encodeLevel(b *strings.Builder, l Level, t LevelType) {
	if t == TypeActorNodeMap {
		b.WriteString("        <level>\n")
		actors := make([]string, 0, len(l.ActorMap))
		for a := range l.ActorMap {
			actors = append(actors, a)
		}
		sort.Strings(actors)
		for _, a := range actors {
			fmt.Fprintf(b, "          <actor id=\"%s\">", esc(a))
			for i, n := range l.ActorMap[a] {
				fmt.Fprintf(b, "<instance id=\"%d\">%s</instance>", i, esc(n))
			}
			b.WriteString("</actor>\n")
		}
		b.WriteString("        </level>\n")
		return
	}
	fmt.Fprintf(b, "        <level>%s</level>\n", esc(quote(l.Raw)))
}

func encodeAction(b *strings.Builder, a Action, ind string) {
	switch a.Name {
	case "wait_for_event":
		fmt.Fprintf(b, "%s<wait_for_event>\n", ind)
		w := a.Wait
		if w != nil {
			if w.FromActor != "" || w.FromNode != "" {
				fmt.Fprintf(b, "%s  <from_dependency>", ind)
				if w.FromActor != "" {
					fmt.Fprintf(b, "<node actor=\"%s\" instance=\"%s\" />", esc(w.FromActor), esc(w.FromInstance))
				} else {
					b.WriteString(esc(quote(w.FromNode)))
				}
				b.WriteString("</from_dependency>\n")
			}
			fmt.Fprintf(b, "%s  <event_dependency>%s</event_dependency>\n", ind, esc(quote(w.Event)))
			if w.ParamActor != "" {
				fmt.Fprintf(b, "%s  <param_dependency><node actor=\"%s\" instance=\"%s\" /></param_dependency>\n",
					ind, esc(w.ParamActor), esc(w.ParamInstance))
			}
			keys := sortedKeys(w.Params)
			for _, k := range keys {
				fmt.Fprintf(b, "%s  <param key=\"%s\">%s</param>\n", ind, esc(k), esc(quote(w.Params[k])))
			}
			if w.TimeoutSec > 0 {
				fmt.Fprintf(b, "%s  <timeout>%v</timeout>\n", ind, w.TimeoutSec)
			}
		}
		fmt.Fprintf(b, "%s</wait_for_event>\n", ind)
	case "event_flag":
		fmt.Fprintf(b, "%s<event_flag><value>%s</value></event_flag>\n", ind, esc(quote(a.Value)))
	default:
		if len(a.Params) == 0 && len(a.FactorRefs) == 0 {
			fmt.Fprintf(b, "%s<%s />\n", ind, a.Name)
			return
		}
		fmt.Fprintf(b, "%s<%s>\n", ind, a.Name)
		for _, k := range sortedKeys(a.Params) {
			fmt.Fprintf(b, "%s  <%s>%s</%s>\n", ind, k, esc(quote(a.Params[k])), k)
		}
		for _, k := range sortedKeys(a.FactorRefs) {
			fmt.Fprintf(b, "%s  <%s><factorref id=\"%s\" /></%s>\n", ind, k, esc(a.FactorRefs[k]), k)
		}
		fmt.Fprintf(b, "%s</%s>\n", ind, a.Name)
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quote protects a value the parser would change: unquote trims blanks and
// strips one pair of surrounding double quotes, so such a value is written
// inside one more pair and parses back to itself.
func quote(s string) string {
	if unquote(s) != s {
		return `"` + s + `"`
	}
	return s
}

func esc(s string) string {
	var b strings.Builder
	xml.EscapeText(&b, []byte(s))
	return b.String()
}
