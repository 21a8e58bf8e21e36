package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"excovery/internal/desc"
	"excovery/internal/store"
)

// runCLI runs the command and returns its stdout, failing on a non-zero
// exit.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("excovery-run %v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	return out.String()
}

var tRLine = regexp.MustCompile(`t_R: mean=\S+`)

// TestDescriptionPlatformParamsApply: a description's link eeparams shape
// the platform when no flag overrides them. The plain Fig. 11 one-shot
// finds the SM in 41.3 ms; with 200 ms links and no loss the query and
// the response each cross one of them.
func TestDescriptionPlatformParamsApply(t *testing.T) {
	e := desc.OneShot(30)
	e.SetEEParam("link_delay_ms", "200")
	e.SetEEParam("link_loss", "0")
	path := filepath.Join(t.TempDir(), "slow.xml")
	doc, err := desc.EncodeString(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	plain := tRLine.FindString(runCLI(t, "-builtin", "oneshot"))
	slow := tRLine.FindString(runCLI(t, path))
	if plain != "t_R: mean=0.0413s" || slow == "" || slow == plain {
		t.Fatalf("plain %q, with 200 ms links %q: the eeparams did not reach the platform", plain, slow)
	}
	// A flag given on the command line still wins over the document.
	if fast := tRLine.FindString(runCLI(t, "-delay", "1", "-loss", "0.01", path)); fast != plain {
		t.Errorf("-delay 1 -loss 0.01 on the slow file: %q, want %q", fast, plain)
	}
}

// TestDBWithoutStoreRefusedUpFront: -db without -store cannot write a
// database, so the command refuses before it runs anything.
func TestDBWithoutStoreRefusedUpFront(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-builtin", "oneshot", "-db", filepath.Join(t.TempDir(), "x.xcdb")}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "-db requires -store") {
		t.Fatalf("exit %d, stderr %q; want 1 and the reason", code, errb.String())
	}
	if strings.Contains(out.String(), "experiment ") {
		t.Fatalf("the campaign ran before the refusal:\n%s", out.String())
	}
}

// TestOverridesStoredInDescription: the level-3 database stores the
// document that ran, with every platform flag given written into it.
func TestOverridesStoredInDescription(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "x.xcdb")
	runCLI(t, "-builtin", "oneshot", "-proto", "scmdir", "-delay", "3", "-allow-failed",
		"-store", filepath.Join(dir, "l2"), "-db", dbPath)
	db, err := store.OpenExperimentDB(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	info, err := db.Info()
	if err != nil {
		t.Fatal(err)
	}
	e, err := desc.ParseString(info.ExpXML)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.ParamValue("sd_protocol"); got != "scmdir" {
		t.Errorf("stored sd_protocol = %q, want scmdir", got)
	}
	if d, j := e.EEParam("link_delay_ms", ""), e.EEParam("link_jitter_ms", ""); d != "3" || j != "1.5" {
		t.Errorf("stored link delay/jitter = %q/%q, want 3/1.5", d, j)
	}
	if strings.Contains(info.ExpXML, "topology") {
		t.Error("a flag not given (-topo) was written into the description")
	}
}
