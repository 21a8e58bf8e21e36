package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// errdrop reports discarded error returns from durability-critical calls:
// the fsio staged-write helpers, (*os.File).Sync, (*os.File).Close on a
// file the function opened for writing, the store.Journal append family,
// and the store.RunStore level-2 writes (Write*, MarkRunDone). A dropped
// error from any of these converts "the data is on stable storage" into
// "the data is probably on stable storage" — the exact failure mode the
// WAL and the staged-write contract exist to rule out (DESIGN.md §8): a
// run whose harvest was cut short by a full disk must not be marked done.
//
// Discard forms: a bare expression statement, and an assignment whose
// error position is blank (`_ = f.Sync()`, `n, _ := …`). One allowlist is
// built in: a discarded call is exempt when a later statement on the same
// path (the rest of its enclosing block, or of any enclosing block within
// the function) returns a non-nil error — an err variable or a freshly
// built error, not any call's result — cleanup on an already-failing
// path cannot mask the first cause, and forcing `_ =` noise onto
// `f.Close(); os.Remove(tmp); return err` sequences would teach people to
// ignore the check. Everything else needs an explicit //lint:ignore with
// a reason.

// Errdrop returns the dropped-durability-error analyzer.
func Errdrop() *Analyzer {
	return &Analyzer{
		Name: "errdrop",
		Doc:  "no discarded error returns from durability-critical calls (fsio, Sync, Close-after-write, Journal, RunStore writes)",
		Run:  errdropRun,
	}
}

func errdropRun(f *File) []Diagnostic {
	var out []Diagnostic
	for _, decl := range f.Ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		written := f.writtenFiles(fd.Body)
		out = append(out, f.scanDiscards(fd.Body.List, written, false)...)
	}
	return out
}

// writtenFiles collects the local *os.File variables the function opens
// for writing (os.Create, or os.OpenFile or fsio.OpenFile with a write
// flag): Close errors matter for these — the kernel may surface a failed
// delayed write only at close time — while a read-side Close is harmless.
func (f *File) writtenFiles(body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := f.calleeFunc(call)
		if fn == nil {
			return true
		}
		name := fn.FullName()
		writes := name == "os.Create"
		if (name == "os.OpenFile" || name == "excovery/internal/store/fsio.OpenFile") && len(call.Args) == 3 {
			flags := exprText(call.Args[1])
			writes = strings.Contains(flags, "O_WRONLY") || strings.Contains(flags, "O_RDWR") ||
				strings.Contains(flags, "O_APPEND")
		}
		if !writes {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && !isBlank(id) {
			if obj := f.identObj(id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// identObj resolves an identifier to its object via Defs (for :=) or Uses
// (for =).
func (f *File) identObj(id *ast.Ident) types.Object {
	if obj := f.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return f.Pkg.Info.Uses[id]
}

// scanDiscards walks a statement list. errPath is true when a later
// statement of an enclosing block returns a non-nil error — discards
// below such a point are cleanup on an already-failing path.
func (f *File) scanDiscards(stmts []ast.Stmt, written map[types.Object]bool, errPath bool) []Diagnostic {
	var out []Diagnostic
	for i, st := range stmts {
		ep := errPath || f.errReturnIn(stmts[i+1:])
		switch v := st.(type) {
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok {
				if target := f.durabilityTarget(call, written); target != "" && !ep {
					out = append(out, f.errdropDiag(call, target, "discarded"))
				}
			}
		case *ast.DeferStmt:
			// defer f.Close() on a written file drops the error even on the
			// success path; the error-path exemption does not apply.
			if target := f.durabilityTarget(v.Call, written); target != "" {
				out = append(out, f.errdropDiag(v.Call, target, "deferred and discarded"))
			}
		case *ast.AssignStmt:
			if len(v.Rhs) == 1 {
				if call, ok := v.Rhs[0].(*ast.CallExpr); ok && f.blankErrAssign(v, call) {
					if target := f.durabilityTarget(call, written); target != "" && !ep {
						out = append(out, f.errdropDiag(call, target, "assigned to _"))
					}
				}
			}
		}
		// Recurse into nested statements carrying the error-path flag.
		for _, nested := range nestedBlocks(st) {
			out = append(out, f.scanDiscards(nested, written, ep)...)
		}
		// Func literal bodies are scanned as fresh roots (they may close
		// over the written-file variables); only outermost literals here —
		// inner ones recurse through their enclosing literal's scan.
		for _, lit := range outerFuncLits(st) {
			out = append(out, f.scanDiscards(lit.Body.List, written, false)...)
		}
	}
	return out
}

// outerFuncLits returns the outermost func literals inside one statement.
func outerFuncLits(st ast.Stmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(st, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

func (f *File) errdropDiag(call *ast.CallExpr, target, how string) Diagnostic {
	return Diagnostic{
		Pos:   f.pos(call.Pos()),
		Check: "errdrop",
		Message: fmt.Sprintf("error from durability-critical %s %s; "+
			"check it or return it (staged-write contract, DESIGN.md §8)", target, how),
	}
}

// blankErrAssign reports whether the assignment discards the call's error
// result: the LHS slot matching the signature's trailing error is blank.
func (f *File) blankErrAssign(as *ast.AssignStmt, call *ast.CallExpr) bool {
	return len(as.Lhs) > 0 && isBlank(as.Lhs[len(as.Lhs)-1])
}

// durabilityTarget classifies a call as durability-critical and returns
// its description, or "". The callee must return an error for a discard
// to exist.
func (f *File) durabilityTarget(call *ast.CallExpr, written map[types.Object]bool) string {
	if !f.returnsError(call) {
		return ""
	}
	if pkg, name, ok := f.qualifiedCall(call); ok && pkg == "excovery/internal/store/fsio" {
		return "fsio." + name
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := f.typeOf(sel.X)
	switch sel.Sel.Name {
	case "Sync":
		if recv == "os.File" {
			return "(*os.File).Sync"
		}
	case "Close":
		if recv == "os.File" {
			if id, ok := sel.X.(*ast.Ident); ok && written[f.identObj(id)] {
				return "Close of write-opened file"
			}
		}
		if strings.HasSuffix(recv, "store.Journal") {
			return "Journal.Close"
		}
	case "Begin", "End", "Done", "Append":
		if strings.HasSuffix(recv, "store.Journal") {
			return "Journal." + sel.Sel.Name
		}
	}
	if name := sel.Sel.Name; strings.HasSuffix(recv, "store.RunStore") &&
		(strings.HasPrefix(name, "Write") || name == "MarkRunDone") {
		return "RunStore." + name
	}
	return ""
}

// returnsError reports whether the call's (possibly multi-value) result
// ends in an error.
func (f *File) returnsError(call *ast.CallExpr) bool {
	tv, ok := f.Pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// errReturnIn reports whether the statement list contains, at its top
// level, a return carrying a non-nil error: an err identifier, or a call
// that builds an error (fmt.Errorf, errors.New, errors.Join). Any other
// call may return nil on success — `return SyncDir(dir)` ends the success
// path too — so it does not make the path a failing one.
func (f *File) errReturnIn(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		ret, ok := st.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			continue
		}
		last := ret.Results[len(ret.Results)-1]
		if id, ok := last.(*ast.Ident); ok && id.Name != "nil" && strings.Contains(id.Name, "err") {
			return true
		}
		if call, ok := last.(*ast.CallExpr); ok {
			switch pkg, name, _ := f.qualifiedCall(call); pkg + "." + name {
			case "fmt.Errorf", "errors.New", "errors.Join":
				return true
			}
		}
	}
	return false
}

// nestedBlocks returns the statement lists nested directly inside one
// statement (if/else chains, loops, switches, selects, blocks).
func nestedBlocks(st ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch v := st.(type) {
	case *ast.BlockStmt:
		out = append(out, v.List)
	case *ast.IfStmt:
		out = append(out, v.Body.List)
		if v.Else != nil {
			out = append(out, []ast.Stmt{v.Else})
		}
	case *ast.ForStmt:
		out = append(out, v.Body.List)
	case *ast.RangeStmt:
		out = append(out, v.Body.List)
	case *ast.SwitchStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, []ast.Stmt{v.Stmt})
	}
	return out
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
