// Package lint is ExCovery's invariant linter: a stdlib-only static
// analysis suite (go/parser, go/ast, go/types, go/importer) that turns the
// framework's repeatability and durability conventions into mechanically
// checked contracts. The paper's core promise — perfectly repeatable runs
// from seeded PRNGs and reference-clock timestamps (§IV-C1, §VI) — and the
// durability contracts of DESIGN.md §8 are exactly the kind of invariant
// that survives code review for months and then breaks silently in an
// unrelated refactor; the analyzers here fail `make check` instead.
//
// The driver is one path (DESIGN.md §15). Loading parses every non-test
// package of the module and type-checks them serially, each after its
// module-internal dependencies; a package that fails to parse or
// type-check is isolated — its dependents are skipped with a driver
// diagnostic instead of a panic, and it contributes nothing to analysis.
// Each analyzer has up to two hooks over the healthy files: Run checks one
// file at a time, RunModule checks the whole module at once (lock-order
// cycle detection, which crosses package boundaries). Every finding of
// either hook passes one suppression filter.
//
// Six repo-specific analyzers run over every non-test file of the module:
//
//	walltime      — no time.Now() outside the allowlisted wall-clock
//	                sites; deterministic paths read an injected
//	                vclock.Clock. That also keeps wall time out of PRNG
//	                seeds; a test in internal/seeds holds that no other
//	                package builds or draws from a math/rand PRNG.
//	metricnames   — metric names at Counter/Gauge/Histogram factory
//	                sites come from the obs.M* registry constants
//	                (internal/obs/names.go), never string literals.
//	durablerename — os.Rename inside internal/store is paired with a
//	                directory fsync in the same function (the fsio
//	                staged-write contract).
//	mutexheldio   — no network call or blocking file I/O between Lock()
//	                and Unlock() of a mutex within a function.
//	lockorder     — the cross-package lock-acquisition graph (keyed on
//	                type.field mutex identity) is cycle-free.
//	errdrop       — no discarded error returns from durability-critical
//	                calls (fsio helpers, file Sync/Write, Close on
//	                written files, journal appends).
//
// Map iteration order has no analyzer: tests hold it, the byte pins of
// the encoders and of the stored levels 2 and 3, and order tests where
// the order shows elsewhere (DESIGN.md §15.4).
//
// A finding is suppressed by the comment
//
//	//lint:ignore <check> <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory: a suppression without one is itself reported. On
// whole-module runs a suppression that no longer matches any finding is
// reported as stale, so the suppression inventory shrinks with the code
// instead of fossilizing.
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, reported as "file:line: [check] message".
type Diagnostic struct {
	// Pos locates the finding; Filename is module-root-relative.
	Pos token.Position
	// Check names the analyzer ("lint" for suppression meta-findings,
	// "driver" for load failures).
	Check string
	// Message states the violated invariant.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Analyzer is one invariant check. Run checks one file; RunModule checks
// the whole module at once, for contracts that cross package boundaries,
// and walks the module's files itself. Either hook may be nil.
type Analyzer struct {
	// Name is the check identifier used in diagnostics and suppressions.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports a file's findings (before suppression filtering).
	Run func(f *File) []Diagnostic
	// RunModule reports module-wide findings (before suppression
	// filtering).
	RunModule func(m *Module) []Diagnostic
}

// All returns the full six-analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Walltime(),
		Metricnames(),
		Durablerename(),
		Mutexheldio(),
		Lockorder(),
		Errdrop(),
	}
}

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	line   int
	check  string
	reason string
	used   bool
}

// File is one parsed and type-checked source file.
type File struct {
	// Pkg is the containing package.
	Pkg *Package
	// Ast is the parsed file (with comments).
	Ast *ast.File
	// Name is the module-root-relative path used in diagnostics.
	Name string

	suppressions []suppression
}

// Package is one type-checked package of the module.
type Package struct {
	// Path is the import path, e.g. "excovery/internal/store".
	Path string
	// Files are the package's non-test files, sorted by name.
	Files []*File
	// Types and Info hold the go/types results (nil when the package
	// failed to load — such packages are excluded from analysis).
	Types *types.Package
	Info  *types.Info
	mod   *Module

	// broken marks a package that failed to parse or type-check, or that
	// depends on one; the corresponding driver diagnostic lives in
	// Module.errs.
	broken bool
}

// Broken reports whether the package failed to load (and was therefore
// excluded from analysis).
func (p *Package) Broken() bool { return p.broken }

// LoadStats describes how the driver loaded the module.
type LoadStats struct {
	// Packages is the number of packages discovered.
	Packages int
	// TypeChecked is the number of packages successfully type-checked.
	TypeChecked int
}

// Module is a loaded source tree, type-checked as far as its packages
// permit.
type Module struct {
	// Path is the module path from go.mod.
	Path string
	// Root is the absolute module root directory.
	Root string
	// Fset maps positions for every parsed file.
	Fset *token.FileSet
	// Pkgs are the module's packages sorted by import path.
	Pkgs []*Package
	// Stats describes the load (package counts).
	Stats LoadStats

	errs        []Diagnostic
	reportStale bool
}

// LoadErrors returns the driver diagnostics of packages that failed to
// parse or type-check (and of their skipped dependents), sorted. A
// non-empty result means the analysis covered only part of the module;
// cmd/excovery-lint exits 2.
func (m *Module) LoadErrors() []Diagnostic {
	return append([]Diagnostic(nil), m.errs...)
}

// Load parses and type-checks every non-test package under root (a module
// root containing go.mod). Directories named testdata, vendor and hidden
// directories are skipped, as are _test.go files: the invariants guard
// production paths, and tests legitimately fake clocks and event names.
//
// Packages type-check one at a time, each after its module-internal
// dependencies. A package that fails to parse or type-check does not
// abort the load and does not poison its dependents: it (and every
// package importing it) is marked broken with a driver diagnostic in
// LoadErrors, and the healthy remainder is analyzed normally. Load itself
// errors only on infrastructure failures (unreadable go.mod, filesystem
// walk errors).
func Load(root string) (*Module, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(absRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Path: modPath, Root: absRoot, Fset: token.NewFileSet(), reportStale: true}
	byPath := map[string]*Package{}
	err = filepath.WalkDir(absRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != absRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !isSource(path) {
			return nil
		}
		rel, err := filepath.Rel(absRoot, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		ipath := modPath
		if dir != "." {
			ipath = modPath + "/" + dir
		}
		return mod.parseFile(byPath, ipath, path, filepath.ToSlash(rel))
	})
	if err != nil {
		return nil, err
	}
	mod.typecheckAll(byPath)
	return mod, nil
}

// LoadPackage parses and type-checks the .go files of one directory as a
// single package under an explicit import path. It backs the analyzer
// golden tests: the import path places a testdata package inside (or
// outside) an analyzer's scope, and the files may import the standard
// library only. Stale-suppression reporting stays off — fixtures carry
// suppressions for the one analyzer under test, which other-analyzer runs
// would misreport as stale. A package that fails to load is an error.
func LoadPackage(dir, importPath string) (*Module, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod := &Module{Path: importPath, Root: absDir, Fset: token.NewFileSet()}
	byPath := map[string]*Package{}
	entries, err := os.ReadDir(absDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !isSource(e.Name()) {
			continue
		}
		if err := mod.parseFile(byPath, importPath, filepath.Join(absDir, e.Name()), e.Name()); err != nil {
			return nil, err
		}
	}
	mod.typecheckAll(byPath)
	if len(mod.errs) > 0 {
		return nil, fmt.Errorf("lint: %s", mod.errs[0])
	}
	return mod, nil
}

// isSource reports whether a file is a non-test Go source file.
func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parseFile parses one source file into the package at import path ipath,
// creating the package on first use. The file is read from path but
// registered under name, so diagnostics stay stable regardless of the
// caller's working directory. A parse failure marks the package broken
// with a driver diagnostic; only an unreadable file is an error.
func (m *Module) parseFile(byPath map[string]*Package, ipath, path, name string) error {
	pkg := byPath[ipath]
	if pkg == nil {
		pkg = &Package{Path: ipath, mod: m}
		byPath[ipath] = pkg
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	af, err := parser.ParseFile(m.Fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		pkg.broken = true
		m.errs = append(m.errs, parseDiagnostic(name, err))
		return nil
	}
	f := &File{Pkg: pkg, Ast: af, Name: name}
	f.parseSuppressions(m.Fset)
	pkg.Files = append(pkg.Files, f)
	return nil
}

// typecheckAll sorts the parsed packages and runs go/types over them
// serially, depth first over module-internal imports: each package is
// checked after its dependencies. A package whose dependency is broken is
// skipped with a driver diagnostic instead of being fed partial types, and
// a package on (or depending on) an import cycle — invalid Go, but the
// driver must degrade to a diagnostic, not a hang — likewise.
func (m *Module) typecheckAll(byPath map[string]*Package) {
	for _, pkg := range byPath {
		sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Name < pkg.Files[j].Name })
		m.Pkgs = append(m.Pkgs, pkg)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	m.Stats.Packages = len(m.Pkgs)

	imp := importer.Default()
	const (
		onStack = 1
		done    = 2
	)
	state := map[*Package]int{}
	cyclic := map[*Package]bool{}
	// visit checks p after its dependencies and reports whether p lies on
	// or depends on an import cycle.
	var visit func(p *Package) bool
	visit = func(p *Package) bool {
		switch state[p] {
		case onStack:
			return true
		case done:
			return cyclic[p]
		}
		state[p] = onStack
		deps := p.internalImports(byPath)
		for _, d := range deps {
			if visit(byPath[d]) {
				cyclic[p] = true
			}
		}
		state[p] = done
		if p.broken {
			return cyclic[p] // parse failure already diagnosed
		}
		msg := ""
		if cyclic[p] {
			msg = fmt.Sprintf("package %s not analyzed: import cycle", p.Path)
		} else if bad := firstBroken(deps, byPath); bad != "" {
			msg = fmt.Sprintf("package %s not analyzed: dependency %s failed to load", p.Path, bad)
		}
		if msg != "" {
			p.broken = true
			m.errs = append(m.errs, Diagnostic{Pos: p.anchorPos(), Check: "driver", Message: msg})
			return cyclic[p]
		}
		if err := p.typecheck(imp, byPath); err != nil {
			p.broken = true
			m.errs = append(m.errs, typecheckDiagnostic(m, p, err))
		} else {
			m.Stats.TypeChecked++
		}
		return false
	}
	for _, p := range m.Pkgs {
		visit(p)
	}
	sortDiagnostics(m.errs)
}

// firstBroken returns the first broken package of deps (sorted), or "".
func firstBroken(deps []string, byPath map[string]*Package) string {
	for _, d := range deps {
		if byPath[d].broken {
			return d
		}
	}
	return ""
}

// anchorPos is the package's reporting position for package-level driver
// diagnostics: line 1 of its first file, or just the import path when no
// file parsed.
func (p *Package) anchorPos() token.Position {
	if len(p.Files) > 0 {
		return token.Position{Filename: p.Files[0].Name, Line: 1}
	}
	return token.Position{Filename: p.Path, Line: 1}
}

// parseDiagnostic converts a parser error into a driver diagnostic at the
// first error's position.
func parseDiagnostic(file string, err error) Diagnostic {
	d := Diagnostic{Pos: token.Position{Filename: file, Line: 1}, Check: "driver"}
	msg := err.Error()
	var list scanner.ErrorList
	if errors.As(err, &list) && len(list) > 0 && list[0].Pos.Line > 0 {
		d.Pos.Line = list[0].Pos.Line
		msg = list[0].Msg
		if len(list) > 1 {
			msg += fmt.Sprintf(" (and %d more errors)", len(list)-1)
		}
	}
	d.Message = "cannot parse: " + firstLine(msg)
	return d
}

// typecheckDiagnostic converts a go/types error into a driver diagnostic.
func typecheckDiagnostic(m *Module, p *Package, err error) Diagnostic {
	d := Diagnostic{Pos: p.anchorPos(), Check: "driver"}
	var terr types.Error
	if errors.As(err, &terr) {
		if pos := m.Fset.Position(terr.Pos); pos.IsValid() {
			d.Pos = pos
		}
		d.Message = fmt.Sprintf("package %s failed to type-check: %s", p.Path, terr.Msg)
		return d
	}
	d.Message = fmt.Sprintf("package %s failed to type-check: %s", p.Path, firstLine(err.Error()))
	return d
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// files returns the files of every healthy package, in package and file
// order. It is the one place analysis reaches source: a broken package
// contributes nothing, to file-local and module-wide checks alike.
func (m *Module) files() []*File {
	var out []*File
	for _, pkg := range m.Pkgs {
		if !pkg.broken {
			out = append(out, pkg.Files...)
		}
	}
	return out
}

// Run executes the analyzers — each file-local hook over every healthy
// file, then each module-wide hook once — filters suppressed findings,
// reports malformed and (on whole-module runs) stale suppressions, and
// returns the diagnostics sorted by file, line and check. Broken packages
// are skipped; their driver diagnostics live in LoadErrors.
func (m *Module) Run(analyzers []*Analyzer) []Diagnostic {
	files := m.files()
	byName := map[string]*File{}
	var out []Diagnostic
	for _, f := range files {
		byName[f.Name] = f
		for i := range f.suppressions {
			f.suppressions[i].used = false
			if f.suppressions[i].reason == "" {
				out = append(out, Diagnostic{
					Pos:     token.Position{Filename: f.Name, Line: f.suppressions[i].line},
					Check:   "lint",
					Message: "suppression without a reason: //lint:ignore <check> <reason>",
				})
			}
		}
	}
	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
		var found []Diagnostic
		if a.Run != nil {
			for _, f := range files {
				found = append(found, a.Run(f)...)
			}
		}
		if a.RunModule != nil {
			found = append(found, a.RunModule(m)...)
		}
		for _, d := range found {
			if f := byName[d.Pos.Filename]; f == nil || !f.suppress(a.Name, d.Pos.Line) {
				out = append(out, d)
			}
		}
	}
	if m.reportStale {
		for _, f := range files {
			for _, s := range f.suppressions {
				if s.reason == "" || s.used || !enabled[s.check] {
					continue
				}
				out = append(out, Diagnostic{
					Pos:   token.Position{Filename: f.Name, Line: s.line},
					Check: "lint",
					Message: fmt.Sprintf("stale suppression: no %s finding on this "+
						"or the next line; remove the //lint:ignore", s.check),
				})
			}
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// internalImports returns the package's module-internal dependencies that
// exist in the module, sorted and without p itself.
func (p *Package) internalImports(byPath map[string]*Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range p.Files {
		for _, imp := range f.Ast.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != p.Path && byPath[path] != nil && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// typecheck runs go/types over the package's files.
func (p *Package) typecheck(std types.Importer, byPath map[string]*Package) error {
	files := make([]*ast.File, len(p.Files))
	for i, f := range p.Files {
		files[i] = f.Ast
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: &modImporter{std: std, byPath: byPath},
	}
	tp, err := conf.Check(p.Path, p.mod.Fset, files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", p.Path, err)
	}
	p.Types, p.Info = tp, info
	return nil
}

// modImporter resolves module-internal imports from the already-checked
// package cache and delegates everything else to the stdlib importer.
type modImporter struct {
	std    types.Importer
	byPath map[string]*Package
}

func (im *modImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.byPath[path]; ok {
		if p.Types == nil {
			return nil, fmt.Errorf("lint: %s not yet type-checked (import cycle?)", path)
		}
		return p.Types, nil
	}
	return im.std.Import(path)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// parseSuppressions collects the file's //lint:ignore comments.
func (f *File) parseSuppressions(fset *token.FileSet) {
	for _, cg := range f.Ast.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "lint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			s := suppression{line: fset.Position(c.Pos()).Line}
			if len(fields) > 0 {
				s.check = fields[0]
			}
			if len(fields) > 1 {
				s.reason = strings.Join(fields[1:], " ")
			}
			f.suppressions = append(f.suppressions, s)
		}
	}
}

// suppress reports whether a finding of check at line is covered by a
// suppression on the same line or the line directly above, marking the
// suppression used (for stale-suppression reporting).
func (f *File) suppress(check string, line int) bool {
	for i := range f.suppressions {
		s := &f.suppressions[i]
		if s.check != check || s.reason == "" {
			continue
		}
		if s.line == line || s.line == line-1 {
			s.used = true
			return true
		}
	}
	return false
}

// pos converts a token.Pos into a Diagnostic position with the file's
// module-relative name.
func (f *File) pos(p token.Pos) token.Position {
	pos := f.Pkg.mod.Fset.Position(p)
	pos.Filename = f.Name
	return pos
}

// pkgPathOf resolves an identifier used as a package qualifier to the
// imported package path, or "" when the identifier is not a package name
// (e.g. a local variable shadowing an import).
func (f *File) pkgPathOf(id *ast.Ident) string {
	if obj, ok := f.Pkg.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}

// qualifiedCall matches a call of the form pkg.Fn(...) and returns the
// package path and function name.
func (f *File) qualifiedCall(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	path := f.pkgPathOf(id)
	if path == "" {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// calleeName extracts the called function or method name from a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// typeOf returns the fully-qualified type string of an expression with any
// leading pointer stripped, or "".
func (f *File) typeOf(e ast.Expr) string {
	tv, ok := f.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	s := tv.Type.String()
	return strings.TrimPrefix(s, "*")
}

// calleeFunc resolves a call's callee to its *types.Func (package-level
// function or method), or nil for dynamic calls, builtins and conversions.
func (f *File) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		switch x := fun.X.(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		}
	case *ast.IndexListExpr:
		switch x := fun.X.(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		}
	}
	if id == nil {
		return nil
	}
	if fn, ok := f.Pkg.Info.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}

// moduleFunc reports whether fn belongs to this module and returns its
// stable full name ("(*pkg.Type).Method" / "pkg.Func").
func (f *File) moduleFunc(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	mod := f.Pkg.mod.Path
	if path != mod && !strings.HasPrefix(path, mod+"/") {
		return "", false
	}
	return fn.FullName(), true
}

// lockOp matches mu.Lock(), mu.Unlock(), mu.RLock() and mu.RUnlock() on a
// sync.Mutex or sync.RWMutex and returns the mutex expression and the
// method name, or nil.
func (f *File) lockOp(call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, ""
	}
	switch f.typeOf(sel.X) {
	case "sync.Mutex", "sync.RWMutex":
		return sel.X, sel.Sel.Name
	}
	return nil, ""
}

// lockWalk visits the calls of one function body in source order: visit
// gets each Lock-family call with its mutex and operation (see lockOp),
// and every other call with a nil mutex. Function literals, defer and go
// statements are not entered — they run outside the current hold — so a
// deferred Unlock never releases, which models "held to the end of the
// function".
func (f *File) lockWalk(body *ast.BlockStmt, visit func(call *ast.CallExpr, mu ast.Expr, op string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			mu, op := f.lockOp(v)
			visit(v, mu, op)
		}
		return true
	})
}
