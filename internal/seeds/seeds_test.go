package seeds_test

import (
	"go/parser"
	"go/token"
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"excovery/internal/desc"
	"excovery/internal/seeds"
)

// legacy holds, per tag, the expression its call site computed inline
// before the derivation moved into this package: file, then expression,
// over the same inputs.
var legacy = map[seeds.Tag]func(seed int64, id string, i int64) int64{
	// core.go, clock skew: seed ^ 0x51c3.
	seeds.Skew: func(seed int64, _ string, _ int64) int64 { return seed ^ 0x51c3 },
	// core.go, wireTopology: seed ^ 0x6e0.
	seeds.Geometric: func(seed int64, _ string, _ int64) int64 { return seed ^ 0x6e0 },
	// core.go, mkAgent: the agent hash, which collides (ROADMAP item 12).
	seeds.AgentSeed: func(seed int64, id string, _ int64) int64 {
		return seed ^ int64(len(id))*7919 ^ int64(id[0])<<13 ^ int64(id[len(id)-1])
	},
	// hybrid.go: seed^0x2c for the zeroconf part, seed^0xd1 for the directory.
	seeds.HybridZC:  func(seed int64, _ string, _ int64) int64 { return seed ^ 0x2c },
	seeds.HybridDir: func(seed int64, _ string, _ int64) int64 { return seed ^ 0xd1 },
	// zeroconf.go and scmdir.go: rand.NewSource(seed).
	seeds.Agent: func(seed int64, _ string, _ int64) int64 { return seed },
	// netem.go, AddNode: nw.seed ^ int64(hashID(id)), hashID an inline FNV-1a.
	seeds.Netem: func(seed int64, id string, _ int64) int64 {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(id); i++ {
			h ^= uint64(id[i])
			h *= 1099511628211
		}
		return seed ^ int64(h)
	},
	// plan.go, GeneratePlan: e.Seed*31 + int64(i) + int64(len(f.ID)).
	seeds.Factor: func(seed int64, id string, i int64) int64 { return seed*31 + i + int64(len(id)) },
	// plan.go, PlanRandomized: e.Seed ^ 0x5DEECE66D.
	seeds.Order: func(seed int64, _ string, _ int64) int64 { return seed ^ 0x5DEECE66D },
	// plan.go, shuffleWithinBlocks: e.Seed ^ 0x1B10C4ED.
	seeds.Blocks: func(seed int64, _ string, _ int64) int64 { return seed ^ 0x1B10C4ED },
	// plan.go, desc.RunSeed(expSeed, runID).
	seeds.Run: func(seed int64, _ string, i int64) int64 {
		h := uint64(seed) * 0x9E3779B97F4A7C15
		h ^= uint64(i) + 0x632BE59BD9B4E019
		h *= 0xD1B54A32D192ED03
		return int64(h)
	},
	// fault.go: rand.NewSource(seed) for the injection, (tm.Seed) for the
	// timing; traffic.go: (cfg.Seed), (cfg.SwitchSeed).
	seeds.Fault:  func(seed int64, _ string, _ int64) int64 { return seed },
	seeds.Timing: func(seed int64, _ string, _ int64) int64 { return seed },
	seeds.Pairs:  func(seed int64, _ string, _ int64) int64 { return seed },
	seeds.Switch: func(seed int64, _ string, _ int64) int64 { return seed },
	// failpoint.go, site: r.seed ^ int64(fnv.New64a() of the site name).
	seeds.Failpoint: func(seed int64, id string, _ int64) int64 {
		h := fnv.New64a()
		h.Write([]byte(id))
		return seed ^ int64(h.Sum64())
	},
	// lease.go, jitterSeed: the FNV-1a of the session.
	seeds.Lease: func(_ int64, id string, _ int64) int64 {
		h := fnv.New64a()
		h.Write([]byte(id))
		return int64(h.Sum64())
	},
	// rpc.go, backoff: c.Retry.Seed, or 1 when 0.
	seeds.Retry: func(seed int64, _ string, _ int64) int64 {
		if seed == 0 {
			return 1
		}
		return seed
	},
}

// TestDeriveMatchesLegacyExpressions pins every tag to the expression its
// call site used inline, bit for bit, over seeds 0, ±1 and large, ids of
// one and many bytes and several indices. Derive must also ignore the
// fields a tag does not read: the reference ignores them too.
func TestDeriveMatchesLegacyExpressions(t *testing.T) {
	for tag := seeds.Skew; tag <= seeds.Retry; tag++ {
		if legacy[tag] == nil {
			t.Errorf("tag %d has no legacy expression in this test", tag)
		}
	}
	ss := []int64{0, 1, -1, 20140519, 1<<62 + 12345, math.MaxInt64, math.MinInt64}
	ids := []string{"A", "N7", "N12", "N22", "casestudy-actor-0", "SM", "sd/zeroconf/query-a-rather-long-site-name"}
	idx := []int64{0, 1, 7, 1199, 1 << 40}
	for tag, want := range legacy {
		for _, s := range ss {
			for _, id := range ids {
				for _, i := range idx {
					k := seeds.Key{Tag: tag, Seed: s, ID: id, Index: i}
					if got, w := seeds.Derive(k), want(s, id, i); got != w {
						t.Fatalf("Derive(%+v) = %d, legacy expression %d", k, got, w)
					}
				}
			}
		}
	}
	if seeds.DefaultRandomSeed != 1 || seeds.DefaultSwitchSeed != 0 {
		t.Errorf("parameter defaults %d, %d; they were 1 (randomseed, random_seed) and 0 (random_switch_seed)",
			seeds.DefaultRandomSeed, seeds.DefaultSwitchSeed)
	}
}

// TestRandIsTheLegacyGenerator checks that a key's generator draws what
// rand.New(rand.NewSource(Derive(k))) drew at every former call site.
func TestRandIsTheLegacyGenerator(t *testing.T) {
	for _, k := range []seeds.Key{
		{Tag: seeds.Netem, Seed: 26, ID: "N12"},
		{Tag: seeds.Fault, Seed: seeds.DefaultRandomSeed},
		{Tag: seeds.Retry},
	} {
		got, want := k.Rand(), rand.New(rand.NewSource(seeds.Derive(k)))
		for i := 0; i < 100; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%+v: draw %d = %d, want %d", k, i, g, w)
			}
		}
	}
}

var sink int64

// TestRandStaysOnTheStack checks that a generator which does not outlive
// its caller costs what rand.New(rand.NewSource(seed)) written at the call
// site did: Key.Rand must inline, or the generator moves to the heap on
// every fault timing and traffic pair set, once per run.
func TestRandStaysOnTheStack(t *testing.T) {
	got := testing.AllocsPerRun(100, func() { sink += seeds.Key{Tag: seeds.Pairs, Seed: 7}.Rand().Int63() })
	want := testing.AllocsPerRun(100, func() { sink += rand.New(rand.NewSource(7)).Int63() })
	if got != want {
		t.Fatalf("Key.Rand costs %v allocations, rand.New(rand.NewSource(…)) %v", got, want)
	}
}

// TestRunSeedDistinct checks that the journaled run seed differs between
// the runs of an experiment and between experiment seeds.
func TestRunSeedDistinct(t *testing.T) {
	run := func(exp int64, id int) int64 {
		return seeds.Derive(seeds.Key{Tag: seeds.Run, Seed: exp, Index: int64(id)})
	}
	seen := map[int64]bool{}
	for id := 0; id < 1000; id++ {
		s := run(42, id)
		if seen[s] {
			t.Fatalf("duplicate run seed at run %d", id)
		}
		seen[s] = true
	}
	if run(1, 0) == run(2, 0) {
		t.Fatal("different experiment seeds should differ")
	}
}

// TestShippedNodesGetDistinctStreams checks that no two nodes of a shipped
// description share a netem stream or an SD agent stream.
func TestShippedNodesGetDistinctStreams(t *testing.T) {
	for _, name := range desc.Builtins() {
		e, err := desc.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		// The node set core.New builds: the platform's when it names
		// actors, else the abstract nodes.
		ids := append(append([]string{}, e.AbstractNodes...), e.EnvironmentNodes...)
		if len(e.Platform.Actors) > 0 {
			ids = ids[:0]
			for _, n := range append(append([]desc.PlatformNode{}, e.Platform.Actors...), e.Platform.Env...) {
				ids = append(ids, n.ID)
			}
		}
		if len(ids) < 2 {
			t.Fatalf("%s: %d nodes", name, len(ids))
		}
		for _, tag := range []seeds.Tag{seeds.Netem, seeds.AgentSeed} {
			owner := map[int64]string{}
			for _, id := range ids {
				s := seeds.Derive(seeds.Key{Tag: tag, Seed: e.Seed, ID: id})
				if prev, dup := owner[s]; dup {
					t.Errorf("%s: nodes %s and %s share the stream of tag %d", name, prev, id, tag)
				}
				owner[s] = id
			}
		}
	}
}

// TestAgentHashCollides pins a known defect: the agent seed reads only an
// id's length, first and last byte, so the generated grid ids N12 and N22
// get one SD agent stream. Fixing the hash must flip this test.
func TestAgentHashCollides(t *testing.T) {
	a := seeds.Derive(seeds.Key{Tag: seeds.AgentSeed, Seed: 8, ID: "N12"})
	b := seeds.Derive(seeds.Key{Tag: seeds.AgentSeed, Seed: 8, ID: "N22"})
	if a != b {
		t.Fatal("N12 and N22 no longer share an SD agent stream: the agent hash was fixed " +
			"(ROADMAP item 12); require distinct streams here instead")
	}
}

// TestOnlySeedsImportsMathRand holds the module's PRNG rule: no non-test
// file outside this package imports math/rand or math/rand/v2, so no code
// can draw from the process-global generator or build a stream this
// package does not key. Directories the go tool skips (".", "_" prefixes,
// testdata) and nested modules are not part of the module.
func TestOnlySeedsImportsMathRand(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset := token.NewFileSet()
	files, seedsImports := 0, false
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "math/rand" && !strings.HasPrefix(p, "math/rand/") {
				continue
			}
			if filepath.ToSlash(filepath.Dir(rel)) == "internal/seeds" {
				seedsImports = true
				continue
			}
			t.Errorf("%s imports %s; build streams with seeds.Key{…}.Rand()", rel, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 || !seedsImports {
		t.Fatalf("walk saw %d files, seeds.go imported math/rand: %v; the walk is broken", files, seedsImports)
	}
}
