package master

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"excovery/internal/desc"
	"excovery/internal/failpoint"
	"excovery/internal/obs"
	"excovery/internal/store"
)

// crashFixture assembles a journaled, store-backed master over the stub
// platform, optionally resuming and optionally armed with failpoints.
func crashFixture(t *testing.T, dir string, reps int, resume bool, fp *failpoint.Registry, muts ...func(*Config)) (*Master, *fixture, *store.Journal) {
	t.Helper()
	st, err := store.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	m, f := newFixture(t, twoNodeExp(reps), func(c *Config) {
		c.Store = st
		c.Journal = j
		c.Resume = resume
		c.Failpoints = fp
		for _, mut := range muts {
			mut(c)
		}
	})
	return m, f, j
}

// runToCrash drives RunAll expecting it to die on the crash failpoint.
func runToCrash(t *testing.T, m *Master, f *fixture) *Report {
	t.Helper()
	var rep *Report
	var err error
	f.s.Go("experimaster", func() { rep, err = m.RunAll() })
	if rerr := f.s.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("RunAll err = %v, want ErrCrashed", err)
	}
	return rep
}

// TestCrashRecoveryReexecutesInFlightRun is the end-to-end durability
// scenario of the journal: the master is killed by the crash failpoint
// between a run's run_attempt_begin record and its execution, restarted
// with resume, and must re-execute exactly that run — once — with no
// duplicate or lost measurements in the final level-3 database.
func TestCrashRecoveryReexecutesInFlightRun(t *testing.T) {
	dir := t.TempDir()

	// Session 1: crash at the second run's first attempt (Skip: 1 lets
	// run 0 attempt 1 through; run 1 attempt 1 crashes).
	fp := failpoint.New(1)
	fp.Enable(failpoint.SiteMasterAttempt, failpoint.Rule{
		Prob: 1, Act: failpoint.Crash, Skip: 1, Count: 1})
	m1, f1, _ := crashFixture(t, dir, 3, false, fp)
	rep1 := runToCrash(t, m1, f1)
	if rep1.Completed != 1 {
		t.Fatalf("session 1 completed = %d, want 1", rep1.Completed)
	}

	// The crash left a dangling journal attempt for run 1; plant the
	// half-written run dir a crashed harvest would have left, so the
	// discard path is exercised too.
	if err := os.MkdirAll(filepath.Join(dir, "runs", "1", "A"), 0o755); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, "runs", "1", "A", "events.jsonl")
	if err := os.WriteFile(junk, []byte(`{"type":"stale"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Session 2: resume. Run 0 skips, run 1 recovers and re-executes,
	// run 2 executes normally.
	m2, f2, j2 := crashFixture(t, dir, 3, true, nil)
	if rp := j2.Replay(); !rp.Done[0] || !rp.Dangling[1] || rp.InDoubt(0) || !rp.InDoubt(1) {
		t.Fatalf("journal replay = %+v", rp)
	}
	rep2 := runMaster(t, m2, f2.s)
	if rep2.Skipped != 1 || rep2.Recovered != 1 || rep2.Completed != 2 {
		t.Fatalf("session 2: skipped=%d recovered=%d completed=%d",
			rep2.Skipped, rep2.Recovered, rep2.Completed)
	}
	// The planted partial state was discarded; the path now holds only the
	// re-executed run's fresh harvest.
	if data, err := os.ReadFile(junk); err != nil || strings.Contains(string(data), "stale") {
		t.Fatalf("stale partial state survived resume: %q (%v)", data, err)
	}

	// No duplicate and no lost measurements in the conditioned level-3
	// database: every plan run is present and the re-executed run's
	// events appear exactly once (one alpha_done from node A per run).
	checkExactlyOnce(t, m2, 3)

	// A third session has nothing left to do: the journal proves every
	// run durably complete.
	m3, f3, j3 := crashFixture(t, dir, 3, true, nil)
	rp := j3.Replay()
	for run := 0; run < 3; run++ {
		if !rp.Done[run] || rp.InDoubt(run) {
			t.Fatalf("run %d not durably done after session 2: %+v", run, rp)
		}
	}
	rep3 := runMaster(t, m3, f3.s)
	if rep3.Skipped != 3 || rep3.Completed != 0 || rep3.Recovered != 0 {
		t.Fatalf("session 3: %+v", rep3)
	}
}

// TestCrashMidPipelineExactlyOnce: with fan-out and the pipelined
// committer active, a crash failpoint must still observe a settled
// pipeline — earlier runs' staged harvests, done markers and journal
// completions are all durable before the simulated kill — and a resumed
// session re-executes only the in-flight run, exactly once.
func TestCrashMidPipelineExactlyOnce(t *testing.T) {
	dir := t.TempDir()

	// Session 1: runs 0 and 1 complete (their commits ride the pipeline),
	// run 2's first attempt crashes after its journal begin record.
	fp := failpoint.New(1)
	fp.Enable(failpoint.SiteMasterAttempt, failpoint.Rule{
		Prob: 1, Act: failpoint.Crash, Skip: 2, Count: 1})
	m1, f1, _ := crashFixture(t, dir, 3, false, fp)
	m1.cfg.Fanout = 4
	rep1 := runToCrash(t, m1, f1)
	if rep1.Completed != 2 {
		t.Fatalf("session 1 completed = %d, want 2", rep1.Completed)
	}
	// The crash barrier drained the pipeline: both completed runs are
	// durable on every layer — done marker, journal completion, artifacts.
	// (Replay is an open-time snapshot, so inspect through a fresh open.)
	jr, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	rp := jr.Replay()
	jr.Close()
	for run := 0; run < 2; run++ {
		if !rp.Done[run] {
			t.Fatalf("run %d has no journal completion after crash drain: %+v", run, rp)
		}
		if !m1.cfg.Store.RunDone(run) {
			t.Fatalf("run %d has no done marker after crash drain", run)
		}
		if _, err := os.Stat(filepath.Join(dir, "runs", itoa(run), "A", "events.jsonl")); err != nil {
			t.Fatalf("run %d harvest not committed before crash: %v", run, err)
		}
	}
	if !rp.Dangling[2] || !rp.InDoubt(2) {
		t.Fatalf("run 2 should be in doubt: %+v", rp)
	}

	// Session 2: resume with fan-out still on. Runs 0 and 1 skip, run 2
	// recovers and re-executes.
	m2, f2, _ := crashFixture(t, dir, 3, true, nil)
	m2.cfg.Fanout = 4
	rep2 := runMaster(t, m2, f2.s)
	if rep2.Skipped != 2 || rep2.Recovered != 1 || rep2.Completed != 1 {
		t.Fatalf("session 2: skipped=%d recovered=%d completed=%d",
			rep2.Skipped, rep2.Recovered, rep2.Completed)
	}

	// Exactly-once across both sessions: one alpha_done per run in the
	// conditioned database.
	checkExactlyOnce(t, m2, 3)
}

func itoa(n int) string { return fmt.Sprint(n) }

// checkExactlyOnce conditions the store and requires every plan run to be
// present in the level-3 database with its events exactly once (one
// alpha_done from node A per run): no duplicate and no lost measurements
// across sessions.
func checkExactlyOnce(t *testing.T, m *Master, runs int) {
	t.Helper()
	db, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.RunIDs()
	if err != nil || len(ids) != runs {
		t.Fatalf("level-3 runs = %v (%v)", ids, err)
	}
	for _, run := range ids {
		evs, err := db.EventsOfRun(run)
		if err != nil {
			t.Fatal(err)
		}
		alphaDone := 0
		for _, ev := range evs {
			if ev.Type == "alpha_done" && ev.Node == "A" {
				alphaDone++
			}
		}
		if alphaDone != 1 {
			t.Fatalf("run %d has %d alpha_done events, want exactly 1", run, alphaDone)
		}
	}
}

// TestJournalDoneAloneSkipsRun: the journal's run_done record is an
// independent completion witness — even if the store's done marker is
// lost, replay prevents re-executing a durably recorded run.
func TestJournalDoneAloneSkipsRun(t *testing.T) {
	dir := t.TempDir()
	m1, f1, _ := crashFixture(t, dir, 2, false, nil)
	if rep := runMaster(t, m1, f1.s); rep.Completed != 2 {
		t.Fatalf("completed = %d", rep.Completed)
	}
	if err := os.Remove(filepath.Join(dir, "runs", "0", "done")); err != nil {
		t.Fatal(err)
	}
	m2, f2, _ := crashFixture(t, dir, 2, true, nil)
	rep := runMaster(t, m2, f2.s)
	if rep.Skipped != 2 {
		t.Fatalf("journal done record ignored: %+v", rep)
	}
	if len(f2.a.calls) != 0 {
		t.Fatalf("skipped runs still executed: %v", f2.a.calls)
	}
}

// TestResumeRefusesMismatchedPlan: the manifest pins a store to one
// description+seed+plan identity; resuming with anything else must fail
// loudly instead of silently mixing incompatible measurements.
func TestResumeRefusesMismatchedPlan(t *testing.T) {
	dir := t.TempDir()
	m1, f1, _ := crashFixture(t, dir, 2, false, nil)
	runMaster(t, m1, f1.s)

	st, err := store.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := twoNodeExp(2)
	e.Seed = 99 // different seed → different plan identity
	m2, f2 := newFixture(t, e, func(c *Config) {
		c.Store = st
		c.Resume = true
	})
	var runErr error
	f2.s.Go("experimaster", func() { _, runErr = m2.RunAll() })
	if err := f2.s.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr == nil || !errors.Is(runErr, store.ErrResumeRefused) {
		t.Fatalf("mismatched seed resumed: err = %v", runErr)
	}
}

// TestCrashFnIsInvoked: with a CrashFn configured (the daemons pass
// os.Exit), the failpoint invokes it before the in-process fallback.
func TestCrashFnIsInvoked(t *testing.T) {
	fp := failpoint.New(1)
	fp.Enable(failpoint.SiteMasterAttempt, failpoint.Rule{Prob: 1, Act: failpoint.Crash, Count: 1})
	called := 0
	m, f := newFixture(t, twoNodeExp(1), func(c *Config) {
		c.Failpoints = fp
		c.CrashFn = func() { called++ }
	})
	rep := runToCrash(t, m, f)
	if called != 1 || rep.Completed != 0 {
		t.Fatalf("called=%d rep=%+v", called, rep)
	}
}

// refusedExtras is a node whose plugin measurement of run badRun the
// staging store cannot create while *bad is set: the name points below a
// directory that does not exist, which fails for every user (the tests may
// run as root, whom a read-only directory mode does not stop).
type refusedExtras struct {
	*stubNode
	bad    *bool
	badRun int
}

func (n refusedExtras) HarvestExtras() []store.ExtraMeasurement {
	name := "probe.txt"
	if *n.bad && n.rec.Run() == n.badRun {
		name = "no/such/dir/probe.txt"
	}
	return []store.ExtraMeasurement{{Run: n.rec.Run(), Node: n.id, Name: name, Content: []byte("x")}}
}

// unencodablePackets is a node whose packet capture of run badRun the
// store cannot encode while *bad is set.
type unencodablePackets struct {
	*stubNode
	bad    *bool
	badRun int
}

func (n unencodablePackets) HarvestPackets() []store.PacketRecord {
	if *n.bad && n.rec.Run() == n.badRun {
		return []store.PacketRecord{unencodable}
	}
	return nil
}

// unencodable is a packet record no packets.jsonl line can hold: its time
// lies past the year 9999.
var unencodable = store.PacketRecord{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Dir: "tx"}

// sixNodes adds the idle nodes C to F to a master's configuration; node C,
// the third of six, cannot have its packets of run 1 stored while *bad is
// set. Its packets.jsonl is in the middle of a staged run's job list.
func sixNodes(bad *bool) func(*Config) {
	return func(c *Config) {
		for _, id := range []string{"C", "D", "E", "F"} {
			c.Nodes[id] = newStub(id, c.S, c.Bus)
		}
		c.Nodes["C"] = unencodablePackets{stubNode: c.Nodes["C"].(*stubNode), bad: bad, badRun: 1}
	}
}

// TestRefusedHarvestWriteLeavesRunReexecutable: a write the store refuses
// in the middle of a run's harvest (full or read-only disk) must abort the
// stage — no run directory, no done marker, no journal completion — and be
// reported as run_harvest_failed; the resumed session re-executes exactly
// that run, once. The staged files are written concurrently, so the
// refused write may be any of them: node A's extra, among the first jobs,
// or node C's packets.jsonl, the third node's of six.
func TestRefusedHarvestWriteLeavesRunReexecutable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mut     func(bad *bool) func(*Config)
		errPart string
	}{
		{"extra", func(bad *bool) func(*Config) {
			return func(c *Config) {
				c.Nodes["A"] = refusedExtras{stubNode: c.Nodes["A"].(*stubNode), bad: bad, badRun: 1}
			}
		}, "probe.txt"},
		{"packets of node 3 of 6", sixNodes, "year outside of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			bad := true
			m1, f1, _ := crashFixture(t, dir, 3, false, nil, tc.mut(&bad))
			runMaster(t, m1, f1.s)
			failed := 0
			for _, ev := range f1.bus.Snapshot() {
				if ev.Type == "run_harvest_failed" {
					failed++
					if ev.Params["run"] != "1" || !strings.Contains(ev.Params["err"], tc.errPart) {
						t.Fatalf("run_harvest_failed params = %v, want the error naming %q", ev.Params, tc.errPart)
					}
				}
			}
			if failed != 1 {
				t.Fatalf("run_harvest_failed events = %d, want 1", failed)
			}
			for run := 0; run < 3; run++ {
				if got, want := m1.cfg.Store.RunDone(run), run != 1; got != want {
					t.Fatalf("run %d done marker = %v, want %v", run, got, want)
				}
			}
			for _, leftover := range []string{"1", ".staging-1"} {
				if _, err := os.Stat(filepath.Join(dir, "runs", leftover)); !os.IsNotExist(err) {
					t.Fatalf("runs/%s exists after the aborted stage (%v)", leftover, err)
				}
			}

			// Session 2: the fault cleared. Runs 0 and 2 skip, run 1 is in
			// doubt (attempt ended, never completed) and re-executes.
			bad = false
			m2, f2, j2 := crashFixture(t, dir, 3, true, nil, tc.mut(&bad))
			if rp := j2.Replay(); !rp.Done[0] || rp.Done[1] || !rp.Done[2] || !rp.InDoubt(1) {
				t.Fatalf("journal replay = %+v", rp)
			}
			rep2 := runMaster(t, m2, f2.s)
			if rep2.Skipped != 2 || rep2.Recovered != 1 || rep2.Completed != 1 {
				t.Fatalf("session 2: skipped=%d recovered=%d completed=%d",
					rep2.Skipped, rep2.Recovered, rep2.Completed)
			}
			checkExactlyOnce(t, m2, 3)
		})
	}
}

// TestAbortedStageOutlivesNoWriter: when a write in the middle of a staged
// run's job list fails while the other jobs still write, commitHarvest
// returns that error only after every job returned, so the staging
// directory it aborted stays gone. With four writers, all six nodes'
// packets.jsonl jobs (the failed one included) have recorded themselves
// when it returns; a stage that returned at the first error would leave
// writers behind and record fewer.
func TestAbortedStageOutlivesNoWriter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m, _ := newFixture(t, twoNodeExp(1), sixNodes(new(bool)))
	reg := obs.NewRegistry()
	st, err := store.NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Obs.Metrics = reg
	m.cfg.Store = st

	// Every node but C has enough captures that its packets job is still
	// encoding when C's fails on its one record.
	many := make([]store.PacketRecord, 20000)
	for i := range many {
		many[i] = store.PacketRecord{Time: time.Unix(int64(i), 0).UTC(), Dir: "rx", ID: uint64(i), Data: []byte("payload")}
	}
	hd := &harvestData{run: desc.Run{ID: 1}, nodes: make([]nodeHarvest, len(m.order)),
		info: store.RunInfo{Run: 1}}
	for slot, id := range m.order {
		hd.nodes[slot].packets = many
		if id == "C" {
			hd.nodes[slot].packets = []store.PacketRecord{unencodable}
		}
	}
	err = m.commitHarvest(hd)
	if err == nil || !strings.Contains(err.Error(), "year outside of range") {
		t.Fatalf("commitHarvest error = %v, want node C's", err)
	}
	if n := reg.HistogramTotal(obs.MStoreOpSeconds); n != 6 {
		t.Fatalf("%d packets.jsonl jobs had returned with commitHarvest, want all 6", n)
	}
	entries, err := os.ReadDir(filepath.Join(st.Dir, "runs"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("runs/ after the aborted stage: %v, %v", entries, err)
	}
	if st.RunDone(1) {
		t.Fatal("done marker after the aborted stage")
	}
}
