package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Mutexheldio flags network calls and blocking file I/O performed while a
// mutex is held. The control-plane hot spots — the noderpc host's outbox
// and lease state, the master's accounting, the journal — share mutexes
// between the cooperative scheduler's goroutine and plain OS goroutines; a
// synchronous RPC or an fsync under such a lock turns a slow peer or disk
// into a framework-wide stall (every Emit blocks behind the host mutex).
// The scan is linear per function: a call is "held" when it appears
// between X.Lock() and the matching X.Unlock() in source order, with
// defer X.Unlock() holding to the end of the function. Deferred calls and
// go statements do not block the lock holder and are skipped. Function
// literals are analyzed as separate functions: their bodies usually run on
// another goroutine (go / defer / scheduler task), outside the caller's
// critical section. Deliberate exceptions — the journal's write+fsync
// ordering — carry //lint:ignore mutexheldio comments stating the reason.
func Mutexheldio() *Analyzer {
	return &Analyzer{
		Name: "mutexheldio",
		Doc:  "no network call or blocking file I/O between Lock() and Unlock() of a mutex",
		Run:  mutexheldioRun,
	}
}

// osBlockingFuncs are package-level os functions that hit the filesystem.
var osBlockingFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
	"Rename": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "Truncate": true,
}

// fileBlockingMethods are *os.File methods that perform disk I/O.
var fileBlockingMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true,
	"Read": true, "ReadAt": true, "ReadFrom": true,
	"Sync": true, "Truncate": true,
}

func mutexheldioRun(f *File) []Diagnostic {
	var out []Diagnostic
	for _, body := range functionBodies(f.Ast) {
		out = append(out, scanLockedRegions(f, body)...)
	}
	return out
}

// functionBodies collects every function body in the file: declarations
// plus all function literals (each analyzed with fresh lock state).
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				bodies = append(bodies, fn.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, fn.Body)
		}
		return true
	})
	return bodies
}

// scanLockedRegions walks one function body in source order tracking which
// mutexes are held.
func scanLockedRegions(f *File, body *ast.BlockStmt) []Diagnostic {
	var out []Diagnostic
	locked := map[string]int{} // mutex expr → Lock line
	f.lockWalk(body, func(call *ast.CallExpr, mu ast.Expr, op string) {
		switch op {
		case "Lock", "RLock":
			locked[types.ExprString(mu)] = f.pos(call.Pos()).Line
			return
		case "Unlock", "RUnlock":
			delete(locked, types.ExprString(mu))
			return
		}
		if len(locked) == 0 {
			return
		}
		if desc := blockingCall(f, call); desc != "" {
			mu, line := firstHeld(locked)
			out = append(out, Diagnostic{
				Pos:   f.pos(call.Pos()),
				Check: "mutexheldio",
				Message: fmt.Sprintf("%s while holding %s (locked at line %d); "+
					"release the mutex before blocking I/O", desc, mu, line),
			})
		}
	})
	return out
}

// blockingCall classifies a call as network or file I/O, returning a short
// description or "".
func blockingCall(f *File, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		switch f.pkgPathOf(id) {
		case "time":
			if name == "Sleep" {
				return "time.Sleep"
			}
			return ""
		case "os":
			if osBlockingFuncs[name] {
				return "os." + name
			}
			return ""
		case "io":
			if name == "ReadAll" || name == "Copy" {
				return "io." + name
			}
			return ""
		case "net":
			if strings.HasPrefix(name, "Dial") || name == "Listen" {
				return "net." + name
			}
			return ""
		case "net/http":
			switch name {
			case "Get", "Head", "Post", "PostForm":
				return "http." + name
			}
			return ""
		}
	}
	switch f.typeOf(sel.X) {
	case "excovery/internal/xmlrpc.Client":
		// Every method of the RPC client performs an HTTP exchange (Call)
		// or backs one (do).
		return "xmlrpc client ." + name
	case "net/http.Client":
		if name == "Do" {
			return "http.Client.Do"
		}
	case "os.File":
		if fileBlockingMethods[name] {
			return "os.File." + name
		}
	}
	return ""
}

// firstHeld returns the lexically smallest held mutex (deterministic
// reporting when several are held).
func firstHeld(locked map[string]int) (string, int) {
	best := ""
	for mu := range locked {
		if best == "" || mu < best {
			best = mu
		}
	}
	return best, locked[best]
}
