package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func readSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchSpec holds the program's vocabulary and BENCHMARK.json
// together: same workloads, same metrics, same units, in the same order.
func TestNamesMatchSpec(t *testing.T) {
	spec := readSpec(t)
	if spec.RunSeconds != refSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the program's reference length %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		what string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.spec), len(c.defs))
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the program %s [%s]",
					c.what, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: metric name %q is not made of letters, digits, _ . -", c.what, d.name)
			}
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a hundredth of
// the benchmark's size and checks the result line: exactly the metrics
// BENCHMARK.json lists for that mode, all finite, no failed operation.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.08",
				"--trace", []string{"0", "1"}[trace], "--out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s --trace %d: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %d: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %d: correct=%v attempted=%d failed=%d",
					w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s --trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s --trace %d: metric %s missing", w.name, trace, d.name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s --trace %d: %s = %v %s", w.name, trace, d.name, m.Value, m.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", w.name, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(scratchBase(out), scratchPrefix+"*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestTamperedDigestFails shows the determinism check firing: one digest
// of a set differs, the check names it, and an invocation whose report
// carries the failed check says "correct": false and ends in an error.
func TestTamperedDigestFails(t *testing.T) {
	good := strings.Repeat("ab", 32)
	if err := sameDigests("campaigns", []string{good, good, good}); err != nil {
		t.Fatalf("equal digests rejected: %v", err)
	}
	tampered := "ff" + good[2:]
	err := sameDigests("campaigns", []string{good, tampered})
	if err == nil {
		t.Fatal("a tampered digest passed the check")
	}
	if sameDigests("campaigns", []string{"", ""}) == nil {
		t.Fatal("empty digests passed the check")
	}

	rp := newReport()
	rp.attempted = 1
	for _, d := range endToEnd {
		rp.set(d.name, 1)
	}
	rp.check(err)
	var stdout, stderr bytes.Buffer
	if finish(rp, false, &stdout, &stderr) == nil {
		t.Fatal("finish accepted a report with a failed output check")
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("result line does not say correct:false: %s", stdout.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{20, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
