package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// maporder guards the repeatability contract (§IV-C1) against Go's
// randomized map iteration: a `range` over a map whose body reaches a
// determinism-sensitive sink — an event Emit/Publish, an XML-RPC fan-out,
// a journal write, an encoder or formatted stream write, a gauge/histogram
// export — produces artifacts whose order varies run to run even under a
// fixed seed. The fix is always the same: iterate sorted keys (which also
// makes the loop range a slice, silencing the check). Commutative metric
// updates (Inc/Add) are deliberately not sinks.
//
// The body scan includes func literals (InjectWait-style synchronous
// closures are the common case) but skips `go` statements only in the
// sense that a goroutine's own scheduling is already nondeterministic —
// they are still flagged, since launching per-map-entry goroutines toward
// an ordered sink is exactly the hazard.

// Maporder returns the deterministic-iteration analyzer.
func Maporder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "no range over a map whose body reaches a determinism-sensitive sink; iterate sorted keys",
		Run:  maporderRun,
	}
}

func maporderRun(f *File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(f.Ast, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !f.isMapRange(rng) {
			return true
		}
		if sink := f.firstSink(rng.Body); sink != "" {
			out = append(out, Diagnostic{
				Pos:   f.pos(rng.Pos()),
				Check: "maporder",
				Message: fmt.Sprintf("map iteration order reaches determinism-sensitive sink %s; "+
					"range over sorted keys instead", sink),
			})
		}
		return true
	})
	return out
}

// isMapRange reports whether the range expression is map-typed.
func (f *File) isMapRange(rng *ast.RangeStmt) bool {
	tv, ok := f.Pkg.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// firstSink returns a description of the first determinism-sensitive sink
// call in the body, or "".
func (f *File) firstSink(body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if s := f.sinkOf(call); s != "" {
			sink = s
			return false
		}
		return true
	})
	return sink
}

// sinkOf classifies one call as a determinism-sensitive sink.
func (f *File) sinkOf(call *ast.CallExpr) string {
	// Package-level sinks: formatted stream writes and fsio writes.
	if pkg, name, ok := f.qualifiedCall(call); ok {
		if pkg == "fmt" && (name == "Fprint" || name == "Fprintf" || name == "Fprintln") {
			return "fmt." + name
		}
		if pkg == "excovery/internal/store/fsio" {
			return "fsio." + name
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	recv := f.typeOf(sel.X)
	switch name {
	case "Emit":
		// The event API: NodeHandle.Emit, EventWriter.Emit, recorder Emit.
		return "Emit"
	case "Publish":
		if strings.Contains(recv, "eventlog.") {
			return recv + ".Publish"
		}
	case "Call":
		if recv == "excovery/internal/xmlrpc.Client" {
			return "Client.Call"
		}
	case "Set", "Observe":
		// Gauge/histogram exports under internal/obs; counters (Inc/Add)
		// are commutative and excluded.
		if strings.HasPrefix(recv, "excovery/internal/obs.") {
			return recv + "." + name
		}
	case "Encode":
		switch recv {
		case "encoding/json.Encoder", "encoding/gob.Encoder", "encoding/xml.Encoder":
			return recv + ".Encode"
		}
	case "Begin", "End", "Done", "Append":
		if strings.HasSuffix(recv, "store.Journal") {
			return "Journal." + name
		}
	}
	return ""
}
