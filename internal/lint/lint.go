// Package lint is ExCovery's invariant linter: a stdlib-only static
// analysis suite (go/parser, go/ast, go/types, go/importer) that turns the
// framework's repeatability and durability conventions into mechanically
// checked contracts. The paper's core promise — perfectly repeatable runs
// from seeded PRNGs and reference-clock timestamps (§IV-C1, §VI) — and the
// durability contracts of DESIGN.md §8 are exactly the kind of invariant
// that survives code review for months and then breaks silently in an
// unrelated refactor; the analyzers here fail `make check` instead.
//
// The driver is a whole-program, fact-based two-pass pipeline (DESIGN.md
// §15). Loading parses every non-test package of the module and
// type-checks dependency-ready packages in parallel; a package that fails
// to parse or type-check is isolated — its facts never poison dependents,
// which are skipped with a driver diagnostic instead of a panic. Analysis
// then runs in two passes: pass 1 walks every file, running the
// file-local checks and collecting per-package facts (registered RPC
// handlers, lock-acquisition regions, call edges, map-iteration sites);
// pass 2 hands the merged module-wide fact set to each analyzer's Finish
// hook for cross-package checking (RPC contract verification, lock-order
// cycle detection, determinism-sink reachability).
//
// Ten repo-specific analyzers run over every non-test file of the module:
//
//	walltime      — no time.Now() outside the allowlisted wall-clock
//	                sites; deterministic paths read an injected
//	                vclock.Clock.
//	seededrand    — no global math/rand functions and no wall-clock PRNG
//	                seeds; randomness flows through plumbed seeded
//	                *rand.Rand values.
//	eventnames    — event types at Emit sites and journal record
//	                constructors come from the central registries
//	                (eventlog.Ev*, sd.Ev*, store.Rec*), never string
//	                literals.
//	metricnames   — metric names at Counter/Gauge/Histogram factory
//	                sites come from the obs.M* registry constants
//	                (internal/obs/names.go), never string literals.
//	durablerename — os.Rename inside internal/store is paired with a
//	                directory fsync in the same function (the fsio
//	                staged-write contract).
//	mutexheldio   — no network call or blocking file I/O between Lock()
//	                and Unlock() of a mutex within a function.
//	rpccontract   — every Client.Call / CallMeta("x.y", …) site
//	                module-wide matches a registered XML-RPC handler's
//	                name and positional arity.
//	lockorder     — the cross-package lock-acquisition graph (keyed on
//	                type.field mutex identity) is cycle-free.
//	maporder      — no range over a map whose body reaches a
//	                determinism-sensitive sink (Emit, RPC fan-out,
//	                journal append, encoder, gauge export).
//	errdrop       — no discarded error returns from durability-critical
//	                calls (fsio helpers, file Sync/Write, Close on
//	                written files, journal appends).
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
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// Facts is the module-wide fact store of a two-pass run: pass 1 (Collect)
// records per-package observations under (analyzer, key); pass 2 (Finish)
// reads the merged set for cross-package checking. Keys are
// analyzer-chosen; Keys returns them sorted so finishing passes iterate
// deterministically. The store is written and read on one goroutine.
type Facts struct {
	m map[string]map[string]any
}

func newFacts() *Facts { return &Facts{m: map[string]map[string]any{}} }

// Put records a fact for an analyzer under key, replacing any previous
// value.
func (fx *Facts) Put(analyzer, key string, v any) {
	byKey := fx.m[analyzer]
	if byKey == nil {
		byKey = map[string]any{}
		fx.m[analyzer] = byKey
	}
	byKey[key] = v
}

// Get returns the fact an analyzer stored under key.
func (fx *Facts) Get(analyzer, key string) (any, bool) {
	v, ok := fx.m[analyzer][key]
	return v, ok
}

// Keys returns an analyzer's fact keys sorted.
func (fx *Facts) Keys(analyzer string) []string {
	out := make([]string, 0, len(fx.m[analyzer]))
	for k := range fx.m[analyzer] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Analyzer is one invariant check. Run is the file-local pass; Collect and
// Finish form the whole-program pass: Collect gathers facts file by file,
// Finish checks the merged module-wide fact set. Any hook may be nil.
type Analyzer struct {
	// Name is the check identifier used in diagnostics and suppressions.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports a file's findings (before suppression filtering).
	Run func(f *File) []Diagnostic
	// Collect records per-file facts into the module-wide store (pass 1).
	Collect func(f *File, fx *Facts)
	// Finish checks the merged facts and reports module-wide findings
	// (pass 2).
	Finish func(m *Module, fx *Facts) []Diagnostic
}

// All returns the full ten-analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Walltime(),
		Seededrand(),
		Eventnames(),
		Metricnames(),
		Durablerename(),
		Mutexheldio(),
		Rpccontract(),
		Lockorder(),
		Maporder(),
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
	// MaxParallel is the high-water mark of concurrently type-checking
	// packages — the timing guard in the test suite asserts it stays > 1
	// so the parallel driver cannot silently regress to serial.
	MaxParallel int
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
	// Stats describes the load (package counts, type-check parallelism).
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
// Dependency-ready packages type-check in parallel. A package that fails
// to parse or type-check does not abort the load and does not poison its
// dependents: it (and every package importing it) is marked broken with a
// driver diagnostic in LoadErrors, and the healthy remainder is analyzed
// normally. Load itself errors only on infrastructure failures (unreadable
// go.mod, filesystem walk errors).
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

	// Pass 1: parse every package directory. Parse failures are recorded
	// as driver diagnostics and mark the package broken; the walk
	// continues.
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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
		pkg := byPath[ipath]
		if pkg == nil {
			pkg = &Package{Path: ipath, mod: mod}
			byPath[ipath] = pkg
		}
		// Read via the absolute path but register the module-relative name:
		// diagnostics stay stable regardless of the caller's working
		// directory.
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		relName := filepath.ToSlash(rel)
		af, perr := parser.ParseFile(mod.Fset, relName, src, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			pkg.broken = true
			mod.errs = append(mod.errs, parseDiagnostic(relName, perr))
			return nil
		}
		f := &File{Pkg: pkg, Ast: af, Name: relName}
		f.parseSuppressions(mod.Fset)
		pkg.Files = append(pkg.Files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pkg := range byPath {
		sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Name < pkg.Files[j].Name })
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	mod.Stats.Packages = len(mod.Pkgs)

	// Pass 2: type-check dependency-ready packages in parallel.
	mod.typecheckAll(byPath)
	sortDiagnostics(mod.errs)
	return mod, nil
}

// typecheckAll runs go/types over the module in dependency levels: every
// package whose internal imports are already checked runs concurrently
// with its peers (Kahn levels, so no locking on the package cache is
// needed — imports resolve strictly to earlier levels). Packages whose
// dependencies are broken are skipped with a driver diagnostic instead of
// being fed partial facts.
func (m *Module) typecheckAll(byPath map[string]*Package) {
	// Internal dependency edges, restricted to packages that exist.
	deps := map[string][]string{}
	for _, p := range m.Pkgs {
		seen := map[string]bool{}
		for _, d := range p.internalImports() {
			if d == p.Path || byPath[d] == nil || seen[d] {
				continue
			}
			seen[d] = true
			deps[p.Path] = append(deps[p.Path], d)
		}
	}

	imp := newStdImporter(m.Fset)
	done := map[string]bool{}
	var mu sync.Mutex // guards m.errs and the parallelism high-water mark
	inFlight := 0
	for {
		var ready []*Package
		for _, p := range m.Pkgs {
			if done[p.Path] {
				continue
			}
			ok := true
			for _, d := range deps[p.Path] {
				if !done[d] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, p)
			}
		}
		if len(ready) == 0 {
			break
		}
		var run []*Package
		for _, p := range ready {
			done[p.Path] = true
			if p.broken {
				continue // parse failure already diagnosed
			}
			if bad := firstBrokenDep(p, deps[p.Path], byPath); bad != "" {
				p.broken = true
				m.errs = append(m.errs, Diagnostic{
					Pos:   p.anchorPos(),
					Check: "driver",
					Message: fmt.Sprintf("package %s not analyzed: dependency %s failed to load",
						p.Path, bad),
				})
				continue
			}
			run = append(run, p)
		}
		var wg sync.WaitGroup
		for _, p := range run {
			wg.Add(1)
			go func(p *Package) {
				defer wg.Done()
				mu.Lock()
				inFlight++
				if inFlight > m.Stats.MaxParallel {
					m.Stats.MaxParallel = inFlight
				}
				mu.Unlock()
				err := p.typecheck(imp, byPath)
				mu.Lock()
				inFlight--
				if err != nil {
					p.broken = true
					m.errs = append(m.errs, typecheckDiagnostic(m, p, err))
				} else {
					m.Stats.TypeChecked++
				}
				mu.Unlock()
			}(p)
		}
		wg.Wait()
	}
	// Anything still pending sits on an import cycle (invalid Go, but the
	// driver must degrade to a diagnostic, not a hang).
	for _, p := range m.Pkgs {
		if !done[p.Path] && !p.broken {
			p.broken = true
			m.errs = append(m.errs, Diagnostic{
				Pos:     p.anchorPos(),
				Check:   "driver",
				Message: fmt.Sprintf("package %s not analyzed: import cycle", p.Path),
			})
		}
	}
}

// firstBrokenDep returns the first (sorted) broken dependency of p, or "".
func firstBrokenDep(p *Package, deps []string, byPath map[string]*Package) string {
	sorted := append([]string(nil), deps...)
	sort.Strings(sorted)
	for _, d := range sorted {
		if dp := byPath[d]; dp != nil && dp.broken {
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
	// parser returns a scanner.ErrorList; avoid importing go/scanner for
	// one type switch by parsing the "file:line:col: msg" prefix instead.
	msg := err.Error()
	if i := strings.Index(msg, ": "); i > 0 {
		if f, line, ok := splitPosPrefix(msg[:i]); ok && f == file {
			d.Pos.Line = line
			msg = msg[i+2:]
		}
	}
	d.Message = "cannot parse: " + firstLine(msg)
	return d
}

// typecheckDiagnostic converts a go/types error into a driver diagnostic.
func typecheckDiagnostic(m *Module, p *Package, err error) Diagnostic {
	d := Diagnostic{Pos: p.anchorPos(), Check: "driver"}
	var terr types.Error
	if e, ok := errAsTypes(err); ok {
		terr = e
		pos := m.Fset.Position(terr.Pos)
		if pos.IsValid() {
			d.Pos = pos
		}
		d.Message = fmt.Sprintf("package %s failed to type-check: %s", p.Path, terr.Msg)
		return d
	}
	d.Message = fmt.Sprintf("package %s failed to type-check: %s", p.Path, firstLine(err.Error()))
	return d
}

// errAsTypes unwraps err to a types.Error.
func errAsTypes(err error) (types.Error, bool) {
	for err != nil {
		if te, ok := err.(types.Error); ok {
			return te, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			break
		}
		err = u.Unwrap()
	}
	return types.Error{}, false
}

// splitPosPrefix parses "file:line" or "file:line:col" into (file, line).
func splitPosPrefix(s string) (string, int, bool) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return "", 0, false
	}
	// The line number is the first numeric component after the filename.
	var line int
	if _, err := fmt.Sscanf(parts[1], "%d", &line); err != nil || line <= 0 {
		return "", 0, false
	}
	return parts[0], line, true
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// LoadPackage parses and type-checks the .go files of one directory as a
// single package under an explicit import path. It backs the analyzer
// golden tests: the import path places a testdata package inside (or
// outside) an analyzer's scope, and the files may import the standard
// library only. Stale-suppression reporting stays off — fixtures carry
// suppressions for the one analyzer under test, which other-analyzer runs
// would misreport as stale.
func LoadPackage(dir, importPath string) (*Module, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod := &Module{Path: importPath, Root: absDir, Fset: token.NewFileSet()}
	pkg := &Package{Path: importPath, mod: mod}
	entries, err := os.ReadDir(absDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		af, err := parser.ParseFile(mod.Fset, e.Name(), readFileIn(absDir, e.Name()), parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		f := &File{Pkg: pkg, Ast: af, Name: e.Name()}
		f.parseSuppressions(mod.Fset)
		pkg.Files = append(pkg.Files, f)
	}
	sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Name < pkg.Files[j].Name })
	mod.Pkgs = []*Package{pkg}
	mod.Stats = LoadStats{Packages: 1, TypeChecked: 1, MaxParallel: 1}
	if err := pkg.typecheck(newStdImporter(mod.Fset), map[string]*Package{}); err != nil {
		return nil, err
	}
	return mod, nil
}

// readFileIn reads dir/name, returning the source or nil (letting the
// parser report the open error with the right filename).
func readFileIn(dir, name string) any {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil
	}
	return b
}

// Run executes the analyzers in two passes over every loaded file —
// pass 1: file-local checks plus fact collection; pass 2: the whole-program
// Finish hooks over the merged fact set — filters suppressed findings,
// reports malformed and (on whole-module runs) stale suppressions, and
// returns the diagnostics sorted by file, line and check. Broken packages
// are skipped; their driver diagnostics live in LoadErrors.
func (m *Module) Run(analyzers []*Analyzer) []Diagnostic {
	fx := newFacts()
	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		if pkg.broken || pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
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
			for _, a := range analyzers {
				if a.Collect != nil {
					a.Collect(f, fx)
				}
				if a.Run == nil {
					continue
				}
				for _, d := range a.Run(f) {
					if f.suppress(a.Name, d.Pos.Line) {
						continue
					}
					out = append(out, d)
				}
			}
		}
	}
	files := m.fileIndex()
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		for _, d := range a.Finish(m, fx) {
			if f := files[d.Pos.Filename]; f != nil && f.suppress(a.Name, d.Pos.Line) {
				continue
			}
			out = append(out, d)
		}
	}
	if m.reportStale {
		for _, pkg := range m.Pkgs {
			if pkg.broken || pkg.Types == nil {
				continue
			}
			for _, f := range pkg.Files {
				for i := range f.suppressions {
					s := &f.suppressions[i]
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
	}
	sortDiagnostics(out)
	return out
}

// fileIndex maps module-relative filenames to files, for applying
// suppressions to whole-program (Finish) diagnostics.
func (m *Module) fileIndex() map[string]*File {
	idx := map[string]*File{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			idx[f.Name] = f
		}
	}
	return idx
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

// internalImports returns the package's module-internal dependencies.
func (p *Package) internalImports() []string {
	var out []string
	for _, f := range p.Files {
		for _, imp := range f.Ast.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == p.mod.Path || strings.HasPrefix(path, p.mod.Path+"/") {
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
		Importer: &modImporter{mod: p.mod, std: std, byPath: byPath},
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
	mod    *Module
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

// newStdImporter builds the standard-library importer: compiled export
// data when available (fast), with a from-source fallback for toolchains
// that ship no precompiled standard library. Imports are serialized behind
// a mutex — the go/importer caches are not safe for the driver's parallel
// type-checking, but completed *types.Package values are immutable and
// shared freely.
func newStdImporter(fset *token.FileSet) types.Importer {
	return &stdImporter{gc: importer.Default(), src: importer.ForCompiler(fset, "source", nil)}
}

type stdImporter struct {
	mu      sync.Mutex
	gc, src types.Importer
}

func (im *stdImporter) Import(path string) (*types.Package, error) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if p, err := im.gc.Import(path); err == nil {
		return p, nil
	}
	return im.src.Import(path)
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
