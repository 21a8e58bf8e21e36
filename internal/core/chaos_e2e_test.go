package core

// End-to-end checks for the canned chaos scenarios: they must run to
// completion through the full stack (description → plan → master → node
// executors → netem) and, with identical seeds, leave byte-identical
// level-3 artifacts.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
)

// runToLevel3 executes an experiment with a level-2 store, conditions it
// and returns the serialized level-3 database plus the first run's events.
func runToLevel3(t *testing.T, e *desc.Experiment) ([]byte, []eventlog.Event) {
	t.Helper()
	dir := t.TempDir()
	x, err := New(e, Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(rep.Results) {
		for _, rr := range rep.Results {
			if rr.Err != nil {
				t.Logf("run %d: %v", rr.Run.ID, rr.Err)
			}
		}
		t.Fatalf("completed %d of %d runs", rep.Completed, len(rep.Results))
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "experiment.l3")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, rep.Results[0].Events
}

func TestChaosReorderDeterministicLevel3(t *testing.T) {
	raw1, events := runToLevel3(t, desc.ChaosReorder(1))
	// The reorder fault must actually have fired through the executor.
	if _, ok := findEvent(events, string(eventlog.EvFaultMsgReorderStart)); !ok {
		t.Fatal("no fault_msg_reorder_start event in run 0")
	}
	if _, ok := findEvent(events, string(eventlog.EvFaultMsgReorderStop)); !ok {
		t.Fatal("no fault_msg_reorder_stop event in run 0")
	}
	raw2, _ := runToLevel3(t, desc.ChaosReorder(1))
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("level-3 artifacts differ across identical experiments (%d vs %d bytes)",
			len(raw1), len(raw2))
	}
}

func TestPartitionHealDeterministicLevel3(t *testing.T) {
	raw1, events := runToLevel3(t, desc.PartitionHeal(1))
	for _, typ := range []eventlog.Name{eventlog.EvEnvPartitionStart, eventlog.EvEnvPartitionHeal} {
		if _, ok := findEvent(events, string(typ)); !ok {
			t.Fatalf("no %s event in run 0", typ)
		}
	}
	raw2, _ := runToLevel3(t, desc.PartitionHeal(1))
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("level-3 artifacts differ across identical experiments (%d vs %d bytes)",
			len(raw1), len(raw2))
	}
}

// TestRegistryChurnDeterministicLevel3 runs the self-healing fleet's
// companion scenario (DESIGN.md §14): the SU claims the active publisher,
// that publisher's node is killed at the claim, and the standby must be
// re-discovered before the deadline. "Discovery measured by discovery."
func TestRegistryChurnDeterministicLevel3(t *testing.T) {
	raw1, events := runToLevel3(t, desc.RegistryChurn(1))
	// The churn sequence actually happened, in order: first claim, kill,
	// then the re-discovery completing the run.
	claimed, ok := findEvent(events, "claimed")
	if !ok {
		t.Fatal("SU never claimed the first publisher")
	}
	kill, ok := findEvent(events, string(eventlog.EvFaultNodeKillStart))
	if !ok {
		t.Fatal("no fault_node_kill_start event in run 0")
	}
	done, ok := findEvent(events, "done")
	if !ok {
		t.Fatal("SU never finished")
	}
	// The kill reacts to the claim in zero virtual time, so order on the
	// bus arrival sequence, not timestamps.
	if claimed.Seq >= kill.Seq || kill.Seq >= done.Seq {
		t.Fatalf("churn out of order: claimed #%d, kill #%d, done #%d",
			claimed.Seq, kill.Seq, done.Seq)
	}
	raw2, _ := runToLevel3(t, desc.RegistryChurn(1))
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("level-3 artifacts differ across identical experiments (%d vs %d bytes)",
			len(raw1), len(raw2))
	}
}

// TestChaosLevel3IdenticalAcrossGOMAXPROCS pins the determinism contract
// at the artifact level: task goroutines, the control-plane fan-out and the
// committer still run concurrently, yet for one seed the serialized level-3
// database of a chaos scenario must be byte-identical whether the process
// runs on one core or eight.
func TestChaosLevel3IdenticalAcrossGOMAXPROCS(t *testing.T) {
	scenarios := map[string]func(int) *desc.Experiment{
		"reorder":        desc.ChaosReorder,
		"partition-heal": desc.PartitionHeal,
	}
	for name, mk := range scenarios {
		t.Run(name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			raw1, _ := runToLevel3(t, mk(1))
			runtime.GOMAXPROCS(8)
			raw8, _ := runToLevel3(t, mk(1))
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(raw1, raw8) {
				t.Fatalf("level-3 artifacts differ between GOMAXPROCS=1 (%d bytes) and 8 (%d bytes)",
					len(raw1), len(raw8))
			}
		})
	}
}
