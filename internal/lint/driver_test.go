package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTree materializes a throwaway module for driver failure-path tests.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadSurvivesBrokenPackages pins the driver's failure-path contract:
// a syntax error or type-check failure in one package yields a driver
// diagnostic (not a panic and not an aborted load), its dependents are
// skipped with their own diagnostics, and healthy packages are still
// analyzed normally.
func TestLoadSurvivesBrokenPackages(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		// Healthy package with a walltime violation: proves broken
		// siblings don't stop analysis of the rest of the module.
		"a/a.go": "package a\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n",
		// Syntax error.
		"bad/bad.go": "package bad\n\nfunc broken( {\n",
		// Depends on the unparseable package: must be skipped, not poisoned.
		"dep/dep.go": "package dep\n\nimport _ \"demo/bad\"\n",
		// Parses but fails type-checking.
		"typ/typ.go": "package typ\n\nvar X undefinedType\n",
		// Depends on the failed-typecheck package: skipped likewise.
		"use/use.go": "package use\n\nimport _ \"demo/typ\"\n",
	})

	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load returned an infrastructure error for source-level breakage: %v", err)
	}
	if mod.Stats.Packages != 5 {
		t.Errorf("Stats.Packages = %d, want 5", mod.Stats.Packages)
	}
	if mod.Stats.TypeChecked != 1 {
		t.Errorf("Stats.TypeChecked = %d, want 1 (only demo/a is healthy)", mod.Stats.TypeChecked)
	}

	wantErrs := []string{
		"cannot parse:",
		"package demo/dep not analyzed: dependency demo/bad failed to load",
		"package demo/typ failed to type-check:",
		"package demo/use not analyzed: dependency demo/typ failed to load",
	}
	errs := mod.LoadErrors()
	if len(errs) != len(wantErrs) {
		t.Fatalf("LoadErrors = %v, want %d diagnostics", errs, len(wantErrs))
	}
	for i, want := range wantErrs {
		if errs[i].Check != "driver" {
			t.Errorf("LoadErrors[%d].Check = %q, want driver", i, errs[i].Check)
		}
		if !strings.Contains(errs[i].Message, want) {
			t.Errorf("LoadErrors[%d] = %q, want substring %q", i, errs[i], want)
		}
	}

	broken := map[string]bool{}
	for _, p := range mod.Pkgs {
		broken[p.Path] = p.Broken()
	}
	for path, want := range map[string]bool{
		"demo/a": false, "demo/bad": true, "demo/dep": true, "demo/typ": true, "demo/use": true,
	} {
		if broken[path] != want {
			t.Errorf("Broken(%s) = %v, want %v", path, broken[path], want)
		}
	}

	// Analysis still runs over the healthy remainder — and ONLY over it:
	// no analyzer findings may come out of a broken package's files.
	diags := mod.Run(All())
	if len(diags) != 1 {
		t.Fatalf("Run = %v, want exactly the walltime finding from demo/a", diags)
	}
	if diags[0].Check != "walltime" || diags[0].Pos.Filename != "a/a.go" {
		t.Errorf("Run[0] = %v, want a walltime finding in a/a.go", diags[0])
	}
}

// TestLoadMissingDependencyDiagnosed pins that an unresolvable module
// import is a driver diagnostic on the importing package, and that a
// broken package contributes nothing to analysis.
func TestLoadMissingDependencyDiagnosed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport _ \"demo/gone\"\n",
	})
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	errs := mod.LoadErrors()
	if len(errs) != 1 || !strings.Contains(errs[0].Message, "failed to type-check") {
		t.Errorf("LoadErrors = %v, want one missing-import type-check diagnostic", errs)
	}
	if diags := mod.Run(All()); len(diags) != 0 {
		t.Errorf("Run over a fully-broken module produced findings: %v", diags)
	}
}

// TestLoadTimingGuard is the perf gate behind `make lint`: the driver must
// load and type-check the whole module inside the budget and leave nothing
// unchecked.
func TestLoadTimingGuard(t *testing.T) {
	const budget = 90 * time.Second
	start := time.Now()
	mod, err := Load(filepath.Join("..", ".."))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if errs := mod.LoadErrors(); len(errs) != 0 {
		t.Fatalf("module does not load cleanly: %v", errs)
	}
	if mod.Stats.TypeChecked != mod.Stats.Packages {
		t.Errorf("TypeChecked %d != Packages %d: part of the module went unanalyzed",
			mod.Stats.TypeChecked, mod.Stats.Packages)
	}
	if elapsed > budget {
		t.Errorf("whole-module load took %v, budget %v", elapsed, budget)
	}
}

// TestWholeProgramAcrossPackages pins the whole-program check through
// Load, across package boundaries: a lock-order cycle closes across two
// packages through a call, and an edge taken in a package's second init
// function is reported in that function's file.
func TestWholeProgramAcrossPackages(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{{
		name: "lock cycle closed through a call into another package",
		files: map[string]string{
			"internal/pa/pa.go": "package pa\n\nimport \"sync\"\n\ntype A struct{ Mu sync.Mutex }\n",
			// pb holds B.Mu, then takes A.Mu: the edge B -> A.
			"internal/pb/pb.go": "package pb\n\nimport (\n\t\"sync\"\n\n\t\"excovery/internal/pa\"\n)\n\n" +
				"type B struct{ Mu sync.Mutex }\n\n" +
				"func LockB(b *B) {\n\tb.Mu.Lock()\n\tb.Mu.Unlock()\n}\n\n" +
				"func BThenA(b *B, a *pa.A) {\n\tb.Mu.Lock()\n\ta.Mu.Lock()\n\ta.Mu.Unlock()\n\tb.Mu.Unlock()\n}\n",
			// pc holds A.Mu and calls pb.LockB: the edge A -> B, via a call.
			"internal/pc/pc.go": "package pc\n\nimport (\n\t\"excovery/internal/pa\"\n\t\"excovery/internal/pb\"\n)\n\n" +
				"func AThenB(a *pa.A, b *pb.B) {\n\ta.Mu.Lock()\n\tpb.LockB(b)\n\ta.Mu.Unlock()\n}\n",
		},
		want: []string{
			"internal/pc/pc.go:10: [lockorder] lock-order cycle: excovery/internal/pa.A.Mu -> " +
				"excovery/internal/pb.B.Mu -> excovery/internal/pa.A.Mu (via call to " +
				"excovery/internal/pb.LockB while excovery/internal/pa.A.Mu held)",
		},
	}, {
		name: "lock cycle between two init functions",
		files: map[string]string{
			"internal/pd/a.go": "package pd\n\nimport \"sync\"\n\n" +
				"type A struct{ Mu sync.Mutex }\n\ntype B struct{ Mu sync.Mutex }\n\nvar (\n\ta A\n\tb B\n)\n\n" +
				"func init() {\n\tb.Mu.Lock()\n\ta.Mu.Lock()\n\ta.Mu.Unlock()\n\tb.Mu.Unlock()\n}\n",
			"internal/pd/b.go": "package pd\n\n" +
				"func init() {\n\ta.Mu.Lock()\n\tb.Mu.Lock()\n\tb.Mu.Unlock()\n\ta.Mu.Unlock()\n}\n",
		},
		want: []string{
			"internal/pd/b.go:5: [lockorder] lock-order cycle: excovery/internal/pd.A.Mu -> " +
				"excovery/internal/pd.B.Mu -> excovery/internal/pd.A.Mu",
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{"go.mod": "module excovery\n\ngo 1.22\n"}
			for name, src := range tc.files {
				files[name] = src
			}
			mod, err := Load(writeTree(t, files))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if errs := mod.LoadErrors(); len(errs) != 0 {
				t.Fatalf("LoadErrors = %v", errs)
			}
			var got []string
			for _, d := range mod.Run(All()) {
				got = append(got, d.String())
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("findings:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
