package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// randConstructors are the math/rand functions that build explicit,
// plumbable PRNG state instead of touching the global source.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Seededrand enforces the paper's repeatability requirement on randomness
// (§IV-C1: identical seeds replay identical treatment plans, backoff
// schedules and fault timings): no calls to global math/rand functions —
// rand.Intn, rand.Seed, rand.Float64, rand.Shuffle, … share hidden
// process-global state that makes runs order-dependent — and no PRNG
// seeded from the wall clock. That is all it enforces: it does not check
// that a seed derives from the experiment seed, and today not all do —
// fault injections are seeded from the action's randomseed parameter
// (default 1) and the per-run seed seeds nothing (ROADMAP items 1 and 12).
// crypto/rand is not restricted: it feeds identifiers (session ids,
// idempotency key bases), never measurements.
func Seededrand() *Analyzer {
	return &Analyzer{
		Name: "seededrand",
		Doc:  "no global math/rand functions, no wall-clock PRNG seeds; plumb a seeded *rand.Rand",
		Run:  seededrandRun,
	}
}

func seededrandRun(f *File) []Diagnostic {
	var out []Diagnostic
	// Nested constructors (rand.New(rand.NewSource(time.Now()…))) would
	// report the same wall read once per enclosing call; dedup by position.
	seen := map[token.Pos]bool{}
	ast.Inspect(f.Ast, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := f.qualifiedCall(call)
		if !ok || pkg != "math/rand" && pkg != "math/rand/v2" {
			return true
		}
		if !randConstructors[name] {
			out = append(out, Diagnostic{
				Pos:   f.pos(call.Pos()),
				Check: "seededrand",
				Message: fmt.Sprintf("global rand.%s uses the process-wide PRNG; "+
					"draw from a seeded *rand.Rand derived from the experiment seed", name),
			})
			return true
		}
		// rand.NewSource(time.Now().…) / rand.New(rand.NewSource(wall)):
		// an explicit source seeded from the wall clock defeats replay just
		// as thoroughly as the global PRNG.
		for _, arg := range call.Args {
			if wall := wallSeedIn(f, arg); wall != nil && !seen[wall.Pos()] {
				seen[wall.Pos()] = true
				out = append(out, Diagnostic{
					Pos:   f.pos(wall.Pos()),
					Check: "seededrand",
					Message: fmt.Sprintf("rand.%s seeded from the wall clock; "+
						"derive the seed from the experiment seed instead", name),
				})
			}
		}
		return true
	})
	return out
}

// wallSeedIn returns a time.Now() call inside expr, if any.
func wallSeedIn(f *File, expr ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if pkg, name, ok := f.qualifiedCall(call); ok && pkg == "time" && name == "Now" {
				found = call
				return false
			}
		}
		return true
	})
	return found
}
