package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadFixture type-checks one testdata directory under an explicit import
// path (the path places the fixture inside or outside an analyzer's
// package scope).
func loadFixture(t *testing.T, dir, importPath string) *Module {
	t.Helper()
	mod, err := LoadPackage(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatalf("LoadPackage(%s): %v", dir, err)
	}
	return mod
}

// wantedFindings collects the fixture's "// want <check> [<check>…]"
// markers as "file:line: check" keys with expected counts.
func wantedFindings(mod *Module) map[string]int {
	want := map[string]int{}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Ast.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					line := mod.Fset.Position(c.Pos()).Line
					for _, check := range strings.Fields(rest) {
						want[fmt.Sprintf("%s:%d: %s", f.Name, line, check)]++
					}
				}
			}
		}
	}
	return want
}

// checkGolden runs one analyzer over the fixture and matches the findings
// against the want markers exactly — every marker must fire on its line,
// and nothing else may fire.
func checkGolden(t *testing.T, mod *Module, a *Analyzer) []Diagnostic {
	t.Helper()
	diags := mod.Run([]*Analyzer{a})
	want := wantedFindings(mod)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Check)
		if want[key] > 0 {
			want[key]--
			continue
		}
		t.Errorf("unexpected finding: %s", d)
	}
	var missed []string
	for key, n := range want {
		for ; n > 0; n-- {
			missed = append(missed, key)
		}
	}
	sort.Strings(missed)
	for _, key := range missed {
		t.Errorf("expected finding did not fire: %s", key)
	}
	return diags
}

func TestWalltimeGolden(t *testing.T) {
	mod := loadFixture(t, "walltime", "excovery/internal/core/testcase")
	diags := checkGolden(t, mod, Walltime())
	if len(diags) == 0 {
		t.Fatal("no findings")
	}
	// Pin the full diagnostic format once: "file:line: [check] message".
	got := diags[0].String()
	want := "src.go:14: [walltime] time.Now() outside an allowed wall-clock site; " +
		"deterministic paths must read an injected vclock.Clock"
	if got != want {
		t.Errorf("diagnostic format:\n got %q\nwant %q", got, want)
	}
}

func TestWalltimeAllowlist(t *testing.T) {
	// The same fixture under an allowlisted wall-clock package is clean.
	for _, path := range []string{
		"excovery/internal/obs",
		"excovery/internal/timesync/estimator",
	} {
		mod := loadFixture(t, "walltime", path)
		if diags := mod.Run([]*Analyzer{Walltime()}); len(diags) != 0 {
			t.Errorf("under %s: unexpected findings: %v", path, diags)
		}
	}
}

func TestMetricnamesGolden(t *testing.T) {
	mod := loadFixture(t, "metricnames", "excovery/internal/core/testcase")
	checkGolden(t, mod, Metricnames())
}

func TestDurablerenameGolden(t *testing.T) {
	mod := loadFixture(t, "durablerename", "excovery/internal/store/testcase")
	checkGolden(t, mod, Durablerename())
}

func TestDurablerenameOutOfScope(t *testing.T) {
	// Outside internal/store the staged-write contract does not apply.
	mod := loadFixture(t, "durablerename", "excovery/internal/core/testcase")
	if diags := mod.Run([]*Analyzer{Durablerename()}); len(diags) != 0 {
		t.Errorf("out of scope: unexpected findings: %v", diags)
	}
}

func TestMutexheldioGolden(t *testing.T) {
	mod := loadFixture(t, "mutexheldio", "excovery/internal/core/testcase")
	checkGolden(t, mod, Mutexheldio())
}

func TestSuppressionRequiresReason(t *testing.T) {
	// A reason-less //lint:ignore is itself reported and silences nothing.
	mod := loadFixture(t, "suppress", "excovery/internal/core/testcase")
	var got []string
	for _, d := range mod.Run([]*Analyzer{Walltime()}) {
		got = append(got, d.String())
	}
	want := []string{
		"src.go:10: [lint] suppression without a reason: //lint:ignore <check> <reason>",
		"src.go:11: [walltime] time.Now() outside an allowed wall-clock site; " +
			"deterministic paths must read an injected vclock.Clock",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("diagnostics:\n got %v\nwant %v", got, want)
	}
}

func TestLockorderGolden(t *testing.T) {
	mod := loadFixture(t, "lockorder", "excovery/internal/core/testcase")
	diags := checkGolden(t, mod, Lockorder())
	for _, d := range diags {
		if !strings.Contains(d.Message, "lock-order cycle:") {
			t.Errorf("finding lacks cycle description: %s", d)
		}
	}
}

func TestErrdropGolden(t *testing.T) {
	mod := loadFixture(t, "errdrop", "excovery/internal/store")
	checkGolden(t, mod, Errdrop())
}

// TestRepoClean is the meta-test behind `make lint`: the full analyzer
// suite over the real module must report nothing. A finding here means
// either a genuine invariant violation or a missing //lint:ignore with a
// reason — fix the code, don't relax the analyzer.
func TestRepoClean(t *testing.T) {
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(mod.Pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(mod.Pkgs))
	}
	if errs := mod.LoadErrors(); len(errs) != 0 {
		t.Fatalf("module does not load cleanly: %v", errs)
	}
	for _, d := range mod.Run(All()) {
		t.Errorf("%s", d)
	}
}
