package desc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"excovery/descriptions"
	"excovery/internal/core"
	"excovery/internal/desc"
)

// TestShippedDescriptions holds every embedded description to what a
// shipped experiment must be: it parses, validates, expands into a plan
// and assembles on the emulated platform, and it is canonical —
// Encode(Parse(f)) is f byte for byte, so each file is exactly what
// desc.Encode writes. Embedding *.xml means a new file cannot escape it.
func TestShippedDescriptions(t *testing.T) {
	names := desc.Builtins()
	if len(names) == 0 {
		t.Fatal("no embedded descriptions")
	}
	for _, name := range names {
		t.Run(name+".xml", func(t *testing.T) {
			raw, err := fs.ReadFile(descriptions.FS, name+".xml")
			if err != nil {
				t.Fatal(err)
			}
			e, err := desc.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := desc.Validate(e); err != nil {
				t.Fatal(err)
			}
			if _, err := desc.GeneratePlan(e); err != nil {
				t.Fatal(err)
			}
			x, err := core.New(e, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			x.Close()
			if got, err := desc.EncodeString(e); err != nil || got != string(raw) {
				t.Fatalf("Encode(Parse(%s.xml)) is not the file (err %v):\n%s", name, err, got)
			}
		})
	}
}

// TestBuiltinWrappers: CaseStudy and OneShot are the files, with only the
// replication count or the SU deadline changed.
func TestBuiltinWrappers(t *testing.T) {
	cs, err := desc.Builtin("casestudy")
	if err != nil {
		t.Fatal(err)
	}
	if got := desc.CaseStudy(cs.Repl.Count); !reflect.DeepEqual(got, cs) {
		t.Errorf("CaseStudy(%d) differs from casestudy.xml", cs.Repl.Count)
	}
	one, err := desc.Builtin("oneshot")
	if err != nil {
		t.Fatal(err)
	}
	if got := desc.OneShot(30); !reflect.DeepEqual(got, one) {
		t.Error("OneShot(30) differs from oneshot.xml")
	}
	if w := desc.OneShot(7).NodeProcesses[1].Actions[5].Wait; w == nil || w.TimeoutSec != 7 {
		t.Errorf("OneShot(7) search wait = %+v", w)
	}
}

// TestLoad: a builtin name wins over a path, a path is parsed, and an
// unknown name lists the catalogue.
func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.xml")
	doc, err := desc.EncodeString(desc.OneShot(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := desc.Load("", path); err != nil || e.Name != "sd-oneshot" {
		t.Errorf("Load(path) = %v, %v", e, err)
	}
	if e, err := desc.Load("threeparty", path); err != nil || e.Name != "sd-threeparty" {
		t.Errorf("Load(threeparty, path) = %v, %v", e, err)
	}
	if _, err := desc.Load("", ""); err == nil {
		t.Error("Load with neither name nor path accepted")
	}
	if _, err := desc.Load("nope", ""); err == nil || !strings.Contains(err.Error(), "casestudy") {
		t.Errorf("unknown builtin: %v", err)
	}
}
