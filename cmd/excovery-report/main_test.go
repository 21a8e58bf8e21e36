package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/obs"
)

// buildFixtureDB runs the Fig. 11 one-shot experiment (virtual time,
// fixed seed — fully deterministic) into a level-3 database file.
func buildFixtureDB(t *testing.T) string {
	return buildDB(t, desc.OneShot(30))
}

// buildDB runs an experiment into a level-3 database file.
func buildDB(t *testing.T, e *desc.Experiment) string {
	t.Helper()
	dir := t.TempDir()
	x, err := core.New(e, core.Options{StoreDir: filepath.Join(dir, "level2")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "exp.xcdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportSummary smoke-tests the default summary mode over a fixture
// database: the banner and the deterministic metric line.
func TestReportSummary(t *testing.T) {
	path := buildFixtureDB(t)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		`experiment "sd-oneshot"`,
		"(1 runs,",
		"n=1",
		"complete=1",
		"R(1s)=1.000",
		"CI95=[0.207,1.000]", // Wilson interval of 1 success in 1 run
		"t_R mean=0.0413s",   // the Fig. 11 discovery takes 41.276 ms, always
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

// TestReportGroupsByFactorList: -group takes a comma-separated factor
// list, one line per level combination, numbers ordered as numbers.
func TestReportGroupsByFactorList(t *testing.T) {
	e := desc.OneShot(30)
	e.Factors = append(e.Factors,
		desc.IntFactor("fact_a", desc.UsageConstant, 10, 2),
		desc.IntFactor("fact_b", desc.UsageConstant, 3, 1))
	path := buildDB(t, e)
	var out, errb bytes.Buffer
	if code := run([]string{"-group", "fact_a,fact_b", "-deadlines", "1,5", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{"fact_a=2 fact_b=1 ", "fact_a=2 fact_b=3 ", "fact_a=10 fact_b=1 ", "fact_a=10 fact_b=3 "}
	if len(lines) != 2+len(want) || lines[1] != "grouped by fact_a, fact_b:" {
		t.Fatalf("report:\n%s", out.String())
	}
	for i, w := range want {
		if l := lines[2+i]; !strings.HasPrefix(l, w) || !strings.Contains(l, "n=1 ") ||
			!strings.Contains(l, "R(5s)=") || !strings.Contains(l, "CI95=[") {
			t.Errorf("line %d = %q, want %q… with n, R(5s) and CI95", i, l, w)
		}
	}
}

// TestReportGroupsByActorMap: an actor_node_map factor groups by its level
// — Exp. E's SM count is the binding of actor0.
func TestReportGroupsByActorMap(t *testing.T) {
	e, err := desc.Builtin("exp-e-meshwide")
	if err != nil {
		t.Fatal(err)
	}
	e.Repl.Count = 1
	path := buildDB(t, e)
	var out, errb bytes.Buffer
	if code := run([]string{"-group", "fact_nodes", "-deadlines", "1", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{
		"fact_nodes=actor0:M0 actor1:U ",
		"fact_nodes=actor0:M0,M1 actor1:U ",
		"fact_nodes=actor0:M0,M1,M2 actor1:U ",
	}
	if len(lines) != 2+len(want) {
		t.Fatalf("report:\n%s", out.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[2+i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[2+i], w)
		}
	}
}

// TestReportEventsAndCSV smoke-tests the -events dump and -csv export.
func TestReportEventsAndCSV(t *testing.T) {
	path := buildFixtureDB(t)
	var out bytes.Buffer
	if code := run([]string{"-events", "-run", "0", path}, &out, &out); code != 0 {
		t.Fatalf("-events: exit %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "sd_service_add") {
		t.Errorf("-events dump has no sd_service_add event:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-csv", "-", path}, &out, &out); code != 0 {
		t.Fatalf("-csv: exit %d: %s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], "run") {
		t.Errorf("-csv output:\n%s", out.String())
	}
}

// TestReportBadUsage pins the CLI error paths: missing argument and a
// nonexistent database exit non-zero without panicking.
func TestReportBadUsage(t *testing.T) {
	var out bytes.Buffer
	if code := run(nil, &out, &out); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{filepath.Join(t.TempDir(), "nope.xcdb")}, &out, &out); code != 1 {
		t.Errorf("missing db: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "error:") {
		t.Errorf("missing db: no error message:\n%s", out.String())
	}
}

// TestReportTraceCarriesStoreOpen: -trace exports the run's trace.json
// spans and, on a lane of its own, the store.open span of this very
// invocation with the rows, bytes and duration of the open.
func TestReportTraceCarriesStoreOpen(t *testing.T) {
	dir := t.TempDir()
	x, err := core.New(desc.OneShot(30), core.Options{StoreDir: filepath.Join(dir, "level2")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(nil)
	tr.End(tr.Begin(0, "master", "run", "run 0", 0, 1, nil))
	if err := x.Store().WriteExtra(0, "master", "trace.json", obs.MarshalSpans(tr.Spans())); err != nil {
		t.Fatal(err)
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "exp.xcdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-trace", "-", "-run", "0", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not a Chrome trace: %v\n%s", err, out.String())
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		seen[ev.Name] = true
		if ev.Name != "store.open" {
			continue
		}
		if ev.TS != 0 || ev.Args["rows_Packets"] == "" || ev.Args["rows_Events"] == "0" || ev.Args["bytes"] == "0" || ev.Args["wall_ms"] == "" {
			t.Errorf("store.open span: ts=%d args=%v", ev.TS, ev.Args)
		}
	}
	if !seen["store.open"] || !seen["run 0"] {
		t.Errorf("trace has spans %v, want the run's and store.open", seen)
	}
}

// TestReportRepository: -repo summarizes every saved experiment of a
// directory, one line each in name order, and skips files that are not
// experiment databases. The names sort differently with and without their
// extension ("a-b.xcdb" < "a.xcdb", "a" < "a-b"); the report orders by name.
func TestReportRepository(t *testing.T) {
	dir := t.TempDir()
	three := desc.OneShot(30)
	three.Repl.Count = 3
	for name, src := range map[string]string{
		"a.xcdb":   buildFixtureDB(t),
		"a-b.xcdb": buildDB(t, three),
	} {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not an experiment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-repo", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want := "experiment               runs     t_R mean   t_R p90    R(1s)   \n" +
		"a                        1        0.0413s    0.0413s    1.000   \n" +
		"a-b                      3        0.0757s    0.1027s    1.000   \n"
	if out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestReportRepositoryMissingDir: a -repo directory that does not exist is
// an error, and the report does not create it.
func TestReportRepositoryMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo")
	var out bytes.Buffer
	if code := run([]string{"-repo", dir}, &out, &out); code != 1 {
		t.Errorf("exit %d, want 1:\n%s", code, out.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("report created %s (stat: %v)", dir, err)
	}
}
