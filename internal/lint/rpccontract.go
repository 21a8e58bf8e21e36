package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// rpccontract verifies the module's XML-RPC wire contract statically: the
// control channel, the lease protocol and the discovery registry all speak
// stringly-typed method names with positional parameters, so a client and
// a handler can drift apart without any compiler noticing — the drift
// surfaces mid-campaign as a fault. The analyzer collects every handler
// registered on an xmlrpc.Server (name plus a positional-arity profile
// derived from the handler body's arg/argAt accesses) and checks every
// Client.Call site with a literal method name module-wide against that
// table: unknown method names and arities outside [min, max] are findings.
// Register/RegisterMeta and Call/CallMeta are checked alike — call
// metadata travels in HTTP headers and is no positional parameter.
//
// The profile distinguishes required from optional positions by the
// handler's own parsing idiom: a statement-level `v, ok := arg[T](params,
// i)` is required (the handler rejects the call without it), while a
// blank `v, _ :=` or an if-guarded `if v, ok := …; ok` access is optional
// — this is how host.set_master's trailing (session, ttl_ms) and
// registry.claim's (count, region) stay optional-suffix without any
// annotation. Calls through a forwarder like (*RemoteNode).call — a
// module function of shape (method string, params ...any) that forwards
// to Client.Call or CallMeta — are checked like direct calls.

// rpcMethodRE matches the method-name vocabulary ("host.set_master",
// "system.listMethods"); other string literals in a Call-shaped position
// are not treated as RPC methods.
var rpcMethodRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*$`)

const (
	rpcClientType = "excovery/internal/xmlrpc.Client"
	rpcServerType = "excovery/internal/xmlrpc.Server"
	rpcMetaType   = "excovery/internal/xmlrpc.Meta"
)

// rpcProfile is a handler's positional-parameter profile.
type rpcProfile struct {
	req     map[int]bool // indices the handler rejects calls without
	opt     map[int]bool // indices the handler reads but tolerates missing
	helpers []string     // []any-helper functions the handler delegates to
	unknown bool         // params escapes the recognized idioms; arity unchecked
}

func newRPCProfile() *rpcProfile {
	return &rpcProfile{req: map[int]bool{}, opt: map[int]bool{}}
}

// minArgs is the smallest accepted call arity (highest required index + 1).
func (p *rpcProfile) minArgs() int {
	n := 0
	for i := range p.req {
		if i+1 > n {
			n = i + 1
		}
	}
	return n
}

// maxArgs is the largest accepted call arity (highest referenced index + 1).
func (p *rpcProfile) maxArgs() int {
	n := p.minArgs()
	for i := range p.opt {
		if i+1 > n {
			n = i + 1
		}
	}
	return n
}

// merge folds another registration or helper profile into p, keeping the
// union of referenced indices and of required indices.
func (p *rpcProfile) merge(q *rpcProfile) {
	if q == nil {
		return
	}
	for i := range q.req {
		p.req[i] = true
	}
	for i := range q.opt {
		p.opt[i] = true
	}
	p.helpers = append(p.helpers, q.helpers...)
	p.unknown = p.unknown || q.unknown
}

// rpcHandler is the merged profile of every registration of one method
// name; pos is the registration cited in findings.
type rpcHandler struct {
	profile *rpcProfile
	pos     token.Position
}

// rpcCall records one Call site with a literal method name. callee is ""
// for a direct Client.Call and the forwarder's full name otherwise; argc
// is -1 when the argument count is not statically derivable.
type rpcCall struct {
	method string
	argc   int
	callee string
	pos    token.Position
}

// Rpccontract returns the XML-RPC client/server drift analyzer.
func Rpccontract() *Analyzer {
	return &Analyzer{
		Name:      "rpccontract",
		Doc:       "Client.Call sites must match a registered XML-RPC handler's name and positional arity",
		RunModule: rpccontractRun,
	}
}

func rpccontractRun(m *Module) []Diagnostic {
	handlers := map[string]*rpcHandler{}
	helpers := map[string]*rpcProfile{} // []any-param helpers by full name
	forwarders := map[string]bool{}     // Call forwarders by full name
	var calls []*rpcCall
	for _, f := range m.files() {
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := f.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if rpcIsForwarder(f, fd) {
				forwarders[obj.FullName()] = true
			}
			if ident := rpcParamsIdent(f, fd.Type); ident != nil {
				helpers[obj.FullName()] = rpcProfileOf(f, fd.Body, ident)
			}
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok && (sel.Sel.Name == "Register" || sel.Sel.Name == "RegisterMeta") &&
				len(call.Args) >= 2 && f.typeOf(sel.X) == rpcServerType {
				name, ok := stringLit(call.Args[0])
				if !ok {
					return true
				}
				pos := f.pos(call.Pos())
				h := handlers[name]
				if h == nil {
					h = &rpcHandler{profile: newRPCProfile(), pos: pos}
					handlers[name] = h
				} else if posKey(pos) < posKey(h.pos) {
					h.pos = pos
				}
				h.profile.merge(rpcHandlerProfile(f, call.Args[1]))
				return true
			}
			if c, ok := rpcCallSite(f, call); ok {
				calls = append(calls, c)
			}
			return true
		})
	}
	// Fold delegated helpers (e.g. nodeRunArgs) into the handler profiles;
	// helpers may in turn delegate, so iterate to a fixed point (depth is
	// tiny in practice).
	for range handlers {
		changed := false
		for _, h := range handlers {
			for len(h.profile.helpers) > 0 {
				name := h.profile.helpers[0]
				h.profile.helpers = h.profile.helpers[1:]
				if hp := helpers[name]; hp != nil {
					h.profile.merge(hp)
				} else {
					h.profile.unknown = true
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	var out []Diagnostic
	names := make([]string, 0, len(handlers))
	for n := range handlers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, c := range calls {
		if c.callee != "" && !forwarders[c.callee] {
			continue // a string-first module call that is not an RPC forwarder
		}
		h := handlers[c.method]
		if h == nil {
			out = append(out, Diagnostic{
				Pos:   c.pos,
				Check: "rpccontract",
				Message: fmt.Sprintf("call to unregistered XML-RPC method %q (known: %s)",
					c.method, strings.Join(names, ", ")),
			})
			continue
		}
		if c.argc < 0 || h.profile.unknown {
			continue
		}
		minN, maxN := h.profile.minArgs(), h.profile.maxArgs()
		if c.argc < minN || c.argc > maxN {
			want := fmt.Sprintf("%d", minN)
			if maxN != minN {
				want = fmt.Sprintf("%d..%d", minN, maxN)
			}
			out = append(out, Diagnostic{
				Pos:   c.pos,
				Check: "rpccontract",
				Message: fmt.Sprintf("call to %s passes %d params, handler at %s:%d takes %s",
					c.method, c.argc, h.pos.Filename, h.pos.Line, want),
			})
		}
	}
	return out
}

// posKey renders a position as "file:line". A method registered more than
// once is cited at the registration whose key sorts first as a string.
func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// rpcCallSite matches a Call-shaped site with a literal method name:
// either Call/CallMeta on *xmlrpc.Client, or a module function call whose
// first argument is a method-name literal and whose signature ends in
// ...any (a forwarder candidate, confirmed against the module's forwarders
// once every file is read).
func rpcCallSite(f *File, call *ast.CallExpr) (*rpcCall, bool) {
	if len(call.Args) == 0 {
		return nil, false
	}
	method, ok := stringLit(call.Args[0])
	if !ok || !rpcMethodRE.MatchString(method) {
		return nil, false
	}
	if fixed := rpcClientCall(f, call); fixed > 0 {
		return &rpcCall{method: method, argc: rpcArgc(call, fixed), pos: f.pos(call.Pos())}, true
	}
	fn := f.calleeFunc(call)
	full, inModule := f.moduleFunc(fn)
	if !inModule {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !sig.Variadic() || sig.Params().Len() < 2 {
		return nil, false
	}
	return &rpcCall{method: method, argc: rpcArgc(call, 1), callee: full, pos: f.pos(call.Pos())}, true
}

// rpcClientCall reports how many leading arguments of a call on
// *xmlrpc.Client are not positional parameters: 1 for Call (the method
// name), 2 for CallMeta (method name and metadata), 0 for anything else.
func rpcClientCall(f *File, call *ast.CallExpr) int {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || f.typeOf(sel.X) != rpcClientType {
		return 0
	}
	switch sel.Sel.Name {
	case "Call":
		return 1
	case "CallMeta":
		return 2
	}
	return 0
}

// rpcArgc counts the positional parameters a call puts on the wire: its
// arguments after the fixed leading ones. -1 for the spread form, which is
// not statically derivable.
func rpcArgc(call *ast.CallExpr, fixed int) int {
	if call.Ellipsis.IsValid() {
		return -1
	}
	return len(call.Args) - fixed
}

// rpcIsForwarder reports whether fd has the forwarder shape: parameters
// (method string, params ...any) and a body that passes the method
// parameter on to Client.Call or CallMeta.
func rpcIsForwarder(f *File, fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	var names []*ast.Ident
	for _, field := range params.List {
		names = append(names, field.Names...)
	}
	if len(names) != 2 {
		return false
	}
	obj := f.Pkg.Info.Defs[names[0]]
	if obj == nil || obj.Type() == nil || obj.Type().String() != "string" {
		return false
	}
	fnObj, ok := f.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	if sig, ok := fnObj.Type().(*types.Signature); !ok || !sig.Variadic() {
		return false
	}
	forwards := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || rpcClientCall(f, call) == 0 {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && f.Pkg.Info.Uses[id] == obj {
			forwards = true
		}
		return true
	})
	return forwards
}

// rpcParamsIdent returns the []any parameter of a handler-shaped function
// ("func(params []any) …", a helper like nodeRunArgs, or the MetaHandler
// shape "func(meta xmlrpc.Meta, params []any) …"), or nil.
func rpcParamsIdent(f *File, ft *ast.FuncType) *ast.Ident {
	if ft.Params == nil || len(ft.Params.List) == 0 || len(ft.Params.List) > 2 {
		return nil
	}
	if len(ft.Params.List) == 2 && f.typeOf(ft.Params.List[0].Type) != rpcMetaType {
		return nil
	}
	field := ft.Params.List[len(ft.Params.List)-1]
	if len(field.Names) != 1 {
		return nil
	}
	arr, ok := field.Type.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return nil
	}
	if id, ok := arr.Elt.(*ast.Ident); !ok || id.Name != "any" {
		if iface, ok := arr.Elt.(*ast.InterfaceType); !ok || iface.Methods == nil || len(iface.Methods.List) != 0 {
			return nil
		}
	}
	return field.Names[0]
}

// rpcHandlerProfile profiles the handler expression of a Register call,
// looking through wrapper calls like dataPath("m", fn) / h.fenced("m",
// fn) to the innermost func literal.
func rpcHandlerProfile(f *File, expr ast.Expr) *rpcProfile {
	for {
		switch v := expr.(type) {
		case *ast.FuncLit:
			if ident := rpcParamsIdent(f, v.Type); ident != nil {
				return rpcProfileOf(f, v.Body, ident)
			}
			p := newRPCProfile()
			p.unknown = true
			return p
		case *ast.CallExpr:
			var lit ast.Expr
			for _, a := range v.Args {
				if _, ok := a.(*ast.FuncLit); ok {
					lit = a
					break
				}
				if _, ok := a.(*ast.CallExpr); ok {
					lit = a // nested wrapper
				}
			}
			if lit == nil {
				p := newRPCProfile()
				p.unknown = true
				return p
			}
			expr = lit
		default:
			p := newRPCProfile()
			p.unknown = true
			return p
		}
	}
}

// rpcProfileOf derives the positional profile of a handler body over its
// []any parameter. Recognized accesses: `v, ok := arg[T](params, i)` at
// statement level (required), the same with a blank ok or as an if-guard
// init (optional), len(params), and delegation `helper(params)` to a
// single-[]any-param function (profile merged once every file is read). Any other use
// of params makes the arity unknown — the name check still applies, the
// arity check is skipped.
func rpcProfileOf(f *File, body *ast.BlockStmt, params *ast.Ident) *rpcProfile {
	p := newRPCProfile()
	obj := f.Pkg.Info.Defs[params]
	if obj == nil {
		p.unknown = true
		return p
	}
	recognized := map[*ast.Ident]bool{}

	// classify records the index access of one arg/argAt call; optional
	// marks if-guarded or blank-ok accesses.
	classify := func(call *ast.CallExpr, optional bool) bool {
		idx, paramsID, ok := rpcArgAccess(f, call, obj)
		if !ok {
			return false
		}
		recognized[paramsID] = true
		if optional {
			p.opt[idx] = true
		} else {
			p.req[idx] = true
		}
		return true
	}
	// Parents are visited before children, so an if-guard classifies its
	// init assignment (optional) before the bare AssignStmt visit would
	// reclassify it, and an assignment consumes its RHS call before the
	// bare CallExpr visit reaches it.
	consumed := map[ast.Node]bool{}
	classifyAssign := func(as *ast.AssignStmt, guarded bool) bool {
		if consumed[as] || len(as.Rhs) != 1 {
			return false
		}
		consumed[as] = true
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		blank := len(as.Lhs) == 2 && isBlank(as.Lhs[1])
		if !classify(call, guarded || blank) {
			// Not an arg access: leave the call for the bare CallExpr
			// visit, which recognizes len(params) and helper delegation.
			return false
		}
		consumed[call] = true
		return true
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.IfStmt:
			if as, ok := v.Init.(*ast.AssignStmt); ok {
				classifyAssign(as, true)
			}
		case *ast.AssignStmt:
			classifyAssign(v, false)
		case *ast.CallExpr:
			if consumed[v] {
				return true
			}
			// len(params) is harmless; helper(params) delegates.
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "len" && len(v.Args) == 1 {
				if pid, ok := v.Args[0].(*ast.Ident); ok && f.Pkg.Info.Uses[pid] == obj {
					recognized[pid] = true
				}
			}
			if len(v.Args) == 1 {
				if pid, ok := v.Args[0].(*ast.Ident); ok && f.Pkg.Info.Uses[pid] == obj {
					if fn := f.calleeFunc(v); fn != nil {
						if full, inMod := f.moduleFunc(fn); inMod {
							recognized[pid] = true
							p.helpers = append(p.helpers, full)
						}
					}
				}
			}
			classify(v, false) // bare arg call (result compared inline etc.)
		}
		return true
	})

	// Any remaining use of params escapes the recognized idioms.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if ok && f.Pkg.Info.Uses[id] == obj && !recognized[id] {
			p.unknown = true
		}
		return true
	})
	return p
}

// rpcArgAccess matches arg[T](params, i) / argAt[T](params, i) against the
// handler's params object, returning the constant index.
func rpcArgAccess(f *File, call *ast.CallExpr, params types.Object) (int, *ast.Ident, bool) {
	if len(call.Args) != 2 {
		return 0, nil, false
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.IndexExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			name = id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			name = id.Name
		}
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "arg" && name != "argAt" {
		return 0, nil, false
	}
	pid, ok := call.Args[0].(*ast.Ident)
	if !ok || f.Pkg.Info.Uses[pid] != params {
		return 0, nil, false
	}
	lit, ok := call.Args[1].(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, nil, false
	}
	idx, err := strconv.Atoi(lit.Value)
	if err != nil {
		return 0, nil, false
	}
	return idx, pid, true
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
