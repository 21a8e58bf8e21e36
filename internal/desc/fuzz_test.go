package desc

import (
	"bytes"
	"io/fs"
	"testing"

	"excovery/descriptions"
)

// fuzzPlanRuns bounds the plans FuzzParse expands, so a mutated
// replication count costs a skipped check instead of gigabytes.
const fuzzPlanRuns = 10_000

// FuzzParse feeds mutated description documents, seeded from every
// embedded description, through the parser. No input may panic it; a
// document Validate accepts must expand into a plan; and Encode(Parse(x))
// must be a fixed point of Parse∘Encode, so what the encoder writes — the
// stored level-3 description, every shipped file — parses back to itself.
func FuzzParse(f *testing.F) {
	for _, name := range Builtins() {
		raw, err := fs.ReadFile(descriptions.FS, name+".xml")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if Validate(e) == nil {
			n, err := planRuns(e)
			if err != nil {
				t.Fatalf("Validate accepted a plan GeneratePlan refuses: %v", err)
			}
			if n <= fuzzPlanRuns {
				if _, err := GeneratePlan(e); err != nil {
					t.Fatalf("Validate accepted, GeneratePlan failed: %v", err)
				}
			}
		}
		doc, err := EncodeString(e)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := ParseString(doc)
		if err != nil {
			t.Fatalf("encoded document does not parse: %v\n%s", err, doc)
		}
		doc2, err := EncodeString(e2)
		if err != nil {
			t.Fatal(err)
		}
		if doc2 != doc {
			t.Fatalf("Encode(Parse(x)) is not a fixed point:\n%s\n---\n%s", doc, doc2)
		}
	})
}
