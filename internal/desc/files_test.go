package desc

import (
	"os"
	"path/filepath"
	"testing"
)

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestSchemaFileExists keeps the XSD artifact (§IV-C: "An XML schema
// description is provided with the framework code") present and
// non-trivial.
func TestSchemaFileExists(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "schema", "experiment.xsd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"xs:schema", "wait_for_event", "factorref", "replicationfactor"} {
		if !containsStr(string(data), want) {
			t.Errorf("schema lacks %q", want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
