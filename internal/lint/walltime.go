package lint

import (
	"go/ast"
)

// wallClockAllowed lists package-path prefixes where reading the wall
// clock is the point: the time-sync estimator measures real clock offsets
// (§IV-B3) and the obs layer stamps traces and metrics with operator-facing
// wall times. Everywhere else a time.Now() breaks repeatability — the same
// seed must replay the same timeline, so deterministic paths read an
// injected vclock.Clock (or the scheduler's virtual clock) instead.
var wallClockAllowed = []string{
	"excovery/internal/timesync",
	"excovery/internal/obs",
}

// Walltime rejects time.Now() calls outside the allowlisted wall-clock
// packages. Legitimate wall reads elsewhere — the realtime scheduler
// anchor, journal wall metadata — carry a //lint:ignore walltime comment
// naming why the site is exempt.
func Walltime() *Analyzer {
	return &Analyzer{
		Name: "walltime",
		Doc:  "no time.Now() outside allowlisted wall-clock sites; inject a vclock.Clock",
		Run:  walltimeRun,
	}
}

func walltimeRun(f *File) []Diagnostic {
	if pathAllowed(f.Pkg.Path, wallClockAllowed) {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(f.Ast, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, name, ok := f.qualifiedCall(call); ok && pkg == "time" && name == "Now" {
			out = append(out, Diagnostic{
				Pos:   f.pos(call.Pos()),
				Check: "walltime",
				Message: "time.Now() outside an allowed wall-clock site; " +
					"deterministic paths must read an injected vclock.Clock",
			})
		}
		return true
	})
	return out
}

// pathAllowed reports whether path equals or lies under one of the
// allowlisted package-path prefixes.
func pathAllowed(path string, allowed []string) bool {
	for _, a := range allowed {
		if path == a || len(path) > len(a) && path[:len(a)] == a && path[len(a)] == '/' {
			return true
		}
	}
	return false
}
