package main

import (
	"bytes"
	"encoding/json"
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
	t.Helper()
	dir := t.TempDir()
	x, err := core.New(desc.OneShot(30), core.Options{StoreDir: filepath.Join(dir, "level2")})
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
		"t_R mean=0.0413s", // the Fig. 11 discovery takes 41.276 ms, always
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
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
