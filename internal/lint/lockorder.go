package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder detects lock-order cycles across the module's four interacting
// lock domains (master committer, fleet, registry, obs): it builds a
// whole-program lock-acquisition graph whose nodes are mutex identities
// keyed on the declaring `Type.field` — every *Fleet value's `mu` is one
// node, so an order inversion between any two instances is caught — and
// reports every cycle. Edges come from two sources: a direct nested
// acquisition (B locked while A is held), and a call made while holding A
// to a function that (transitively, through the intra-module call graph)
// acquires B. The scan is linear per function like mutexheldio: func
// literals, go statements and deferred calls are skipped (they run
// outside the current hold), and a deferred Unlock keeps the mutex held
// to the end of the function.
//
// Self-edges (A -> A) are not reported: locking two instances of the same
// type is a different hazard (an ordering convention over instance
// identity) that this pass cannot check without value tracking.

// lockFn is what one function (all init functions of a package count as
// one) contributes to the lock graph.
type lockFn struct {
	acquires map[string]bool // mutex identities the function locks itself
	calls    []string        // module functions called (anywhere in the body)
	edges    []lockEdge      // direct nestings and calls made while holding a mutex
}

// lockEdge is one edge source: from is held while the function locks to
// (at.via == "") or calls at.via, which adds an edge to every mutex the
// callee acquires.
type lockEdge struct {
	from, to string
	at       edgeInfo
}

// Lockorder returns the cross-package lock-order cycle analyzer.
func Lockorder() *Analyzer {
	return &Analyzer{
		Name:      "lockorder",
		Doc:       "the module-wide lock-acquisition graph (Type.field identities) must be cycle-free",
		RunModule: lockorderRun,
	}
}

// scanLockEvents walks a body in source order, tracking the held-mutex
// set: Lock/RLock pushes (recording a direct edge per already-held mutex),
// Unlock/RUnlock pops, and any module-function call is recorded both as a
// call-graph edge and — per held mutex — as a held call.
func (f *File) scanLockEvents(body *ast.BlockStmt, fn *lockFn) {
	var held []string // identities, in acquisition order
	f.lockWalk(body, func(call *ast.CallExpr, mu ast.Expr, op string) {
		at := edgeInfo{file: f.Name, line: f.pos(call.Pos()).Line}
		if mu != nil {
			id := f.lockIdentity(mu)
			switch op {
			case "Lock", "RLock":
				for _, h := range held {
					if h != id {
						fn.edges = append(fn.edges, lockEdge{from: h, to: id, at: at})
					}
				}
				held = append(held, id)
				fn.acquires[id] = true
			case "Unlock", "RUnlock":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == id {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return
		}
		if full, ok := f.moduleFunc(f.calleeFunc(call)); ok {
			fn.calls = append(fn.calls, full)
			at.via = full
			for _, h := range held {
				fn.edges = append(fn.edges, lockEdge{from: h, at: at})
			}
		}
	})
}

// lockIdentity returns a mutex's declaration-keyed identity:
// "pkg.Type.field" for a struct field, "pkg.name" otherwise.
func (f *File) lockIdentity(mu ast.Expr) string {
	if inner, ok := mu.(*ast.SelectorExpr); ok {
		if owner := f.typeOf(inner.X); owner != "" && !strings.Contains(owner, " ") {
			return owner + "." + inner.Sel.Name
		}
	}
	return f.Pkg.Path + "." + exprText(mu)
}

// exprText renders a short expression for identity/reporting purposes.
func exprText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprText(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprText(v.X)
	case *ast.StarExpr:
		return exprText(v.X)
	case *ast.BinaryExpr:
		return exprText(v.X) + v.Op.String() + exprText(v.Y)
	}
	return "?"
}

// declFullName resolves a FuncDecl to its types.Func full name.
func (f *File) declFullName(fd *ast.FuncDecl) string {
	if fn, ok := f.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// edgeInfo locates one lock-graph edge for reporting.
type edgeInfo struct {
	file string
	line int
	via  string // "" for a direct nesting; callee name otherwise
}

func lockorderRun(m *Module) []Diagnostic {
	fns := map[string]*lockFn{} // by types.Func full name
	for _, f := range m.files() {
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := f.declFullName(fd)
			if name == "" {
				continue
			}
			fn := fns[name]
			if fn == nil {
				fn = &lockFn{acquires: map[string]bool{}}
				fns[name] = fn
			}
			f.scanLockEvents(fd.Body, fn)
		}
	}

	// Transitive acquisition sets over the intra-module call graph.
	memo := map[string]map[string]bool{}
	var reach func(name string, stack map[string]bool) map[string]bool
	reach = func(name string, stack map[string]bool) map[string]bool {
		if got, ok := memo[name]; ok {
			return got
		}
		if stack[name] {
			return nil // recursion: the cycle's own edges are still collected
		}
		fn := fns[name]
		if fn == nil {
			return nil
		}
		stack[name] = true
		out := map[string]bool{}
		for id := range fn.acquires {
			out[id] = true
		}
		for _, c := range fn.calls {
			for id := range reach(c, stack) {
				out[id] = true
			}
		}
		delete(stack, name)
		memo[name] = out
		return out
	}

	// The lock graph: direct nested edges plus held-call closure edges.
	edges := map[string]map[string]edgeInfo{}
	addEdge := func(from, to string, info edgeInfo) {
		if from == to {
			return
		}
		byTo := edges[from]
		if byTo == nil {
			byTo = map[string]edgeInfo{}
			edges[from] = byTo
		}
		if cur, ok := byTo[to]; !ok || info.file < cur.file ||
			(info.file == cur.file && info.line < cur.line) {
			byTo[to] = info
		}
	}
	fnNames := make([]string, 0, len(fns))
	for n := range fns {
		fnNames = append(fnNames, n)
	}
	sort.Strings(fnNames)
	for _, n := range fnNames {
		for _, e := range fns[n].edges {
			if e.at.via == "" {
				addEdge(e.from, e.to, e.at)
				continue
			}
			for id := range reach(e.at.via, map[string]bool{}) {
				addEdge(e.from, id, e.at)
			}
		}
	}

	// Cycle detection: from each node (sorted), DFS for a path back to it;
	// report each cycle once, keyed on its sorted member set.
	nodes := make([]string, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	reported := map[string]bool{}
	var out []Diagnostic
	for _, start := range nodes {
		path := findCycle(start, edges)
		if path == nil {
			continue
		}
		members := append([]string(nil), path...)
		sort.Strings(members)
		key := strings.Join(members, "|")
		if reported[key] {
			continue
		}
		reported[key] = true
		info := edges[path[0]][path[1%len(path)]]
		desc := strings.Join(append(path, path[0]), " -> ")
		msg := fmt.Sprintf("lock-order cycle: %s", desc)
		if info.via != "" {
			msg += fmt.Sprintf(" (via call to %s while %s held)", info.via, path[0])
		}
		out = append(out, Diagnostic{
			Pos:     token.Position{Filename: info.file, Line: info.line},
			Check:   "lockorder",
			Message: msg,
		})
	}
	return out
}

// findCycle returns the first (sorted-neighbor DFS) cycle through start,
// as the node sequence [start, …] without the closing repeat, or nil.
func findCycle(start string, edges map[string]map[string]edgeInfo) []string {
	var path []string
	onPath := map[string]bool{}
	visited := map[string]bool{}
	var dfs func(n string) bool
	dfs = func(n string) bool {
		path = append(path, n)
		onPath[n] = true
		tos := make([]string, 0, len(edges[n]))
		for to := range edges[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if to == start && len(path) > 1 {
				return true
			}
			if onPath[to] || visited[to] {
				continue
			}
			if dfs(to) {
				return true
			}
		}
		path = path[:len(path)-1]
		onPath[n] = false
		visited[n] = true
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}
