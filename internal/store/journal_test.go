package store

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"excovery/internal/eventlog"
)

func TestJournalReplayLifecycle(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Run 0: clean completion. Run 1: failed attempt, then success.
	// Run 2: begin with no end — the crash case.
	j.Begin(0, 1, 42, 0)
	j.End(0, 1, "ok", "")
	j.Done(0)
	j.Begin(1, 1, 43, 1)
	j.End(1, 1, "failed", "boom")
	j.Begin(1, 2, 43, 1)
	j.End(1, 2, "ok", "")
	j.Done(1)
	j.Begin(2, 1, 44, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rp := j2.Replay()
	if rp.Records != 9 {
		t.Fatalf("records = %d, want 9", rp.Records)
	}
	if !rp.Done[0] || !rp.Done[1] || rp.Done[2] {
		t.Fatalf("done = %v", rp.Done)
	}
	if !rp.Dangling[2] || rp.Dangling[0] || rp.Dangling[1] {
		t.Fatalf("dangling = %v", rp.Dangling)
	}
	if !rp.InDoubt(2) || rp.InDoubt(0) || rp.InDoubt(1) {
		t.Fatal("InDoubt disagrees with replay state")
	}
	if rp.Attempts[1] != 2 {
		t.Fatalf("attempts[1] = %d, want 2", rp.Attempts[1])
	}
	// New appends continue the sequence.
	j2.End(2, 1, "aborted", "")
	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	rp3 := j3.Replay()
	if rp3.Dangling[2] || !rp3.Ended[2] || !rp3.InDoubt(2) {
		t.Fatalf("after end: dangling=%v ended=%v", rp3.Dangling, rp3.Ended)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Begin(0, 1, 1, 0)
	j.End(0, 1, "ok", "")
	j.Done(0)
	j.Close()

	// Simulate a crash mid-append: a half-written final record.
	f, err := os.OpenFile(JournalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":4,"type":"run_attempt_beg`)
	f.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer j2.Close()
	rp := j2.Replay()
	if !rp.Truncated || rp.Records != 3 || !rp.Done[0] {
		t.Fatalf("replay = %+v", rp)
	}
}

// TestJournalResumesTwiceAfterTornTail: records appended after a torn tail
// start a line of their own, so the journal still opens — with every one
// of them — after the next crash. The tail is cut off mid-record, or right
// before its newline: a record whose append never returned.
func TestJournalResumesTwiceAfterTornTail(t *testing.T) {
	for name, tail := range map[string]string{
		"mid-record":     `{"seq":4,"type":"run_attempt_beg`,
		"before newline": `{"seq":4,"type":"run_attempt_begin","run":1,"attempt":1,"time":"2014-05-19T12:00:00Z"}`,
	} {
		dir := t.TempDir()
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		j.Begin(0, 1, 1, 0)
		j.End(0, 1, "ok", "")
		j.Done(0)
		j.Close()
		f, err := os.OpenFile(JournalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(tail)
		f.Close()

		j2, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("%s: first resume: %v", name, err)
		}
		if rp := j2.Replay(); !rp.Truncated || rp.Records != 3 {
			t.Fatalf("%s: first resume replay = %+v", name, rp)
		}
		for _, err := range []error{j2.Begin(1, 1, 2, 0), j2.End(1, 1, "ok", ""), j2.Done(1)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		j2.Close()

		j3, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("%s: second resume: %v", name, err)
		}
		rp := j3.Replay()
		j3.Close()
		if rp.Truncated || rp.Records != 6 || !rp.Done[0] || !rp.Done[1] || rp.InDoubt(1) {
			t.Fatalf("%s: second resume replay = %+v", name, rp)
		}
		if j3.Records() != 6 {
			t.Fatalf("%s: sequence continues at %d, want 6", name, j3.Records())
		}
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	j.Begin(0, 1, 1, 0)
	j.Close()
	data, _ := os.ReadFile(JournalPath(dir))
	os.WriteFile(JournalPath(dir), append([]byte("garbage not json\n"), data...), 0o644)
	if _, err := OpenJournal(dir); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	if err := j.Begin(0, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.End(0, 1, "ok", ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Done(0); err != nil {
		t.Fatal(err)
	}
	if j.Records() != 0 || j.Replay().InDoubt(0) {
		t.Fatal("nil journal not inert")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestManifestVerify(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := PlanManifest{DescriptionHash: HashDescription("<x/>"), Seed: 7, PlanLen: 12, PlatformSeed: 41}
	// No manifest yet: verification is trivial (pre-journal stores).
	if err := rs.VerifyManifest(m); err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	if err := rs.VerifyManifest(m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*PlanManifest)
	}{
		{"description", func(p *PlanManifest) { p.DescriptionHash = HashDescription("<y/>") }},
		{"seed", func(p *PlanManifest) { p.Seed = 8 }},
		{"plan length", func(p *PlanManifest) { p.PlanLen = 13 }},
		{"platform seed", func(p *PlanManifest) { p.PlatformSeed = 42 }},
	} {
		bad := m
		tc.mut(&bad)
		err := rs.VerifyManifest(bad)
		if err == nil || !strings.Contains(err.Error(), "resume refused") {
			t.Fatalf("%s mismatch: err = %v", tc.name, err)
		}
	}
	// A zero platform seed on either side (no emulated platform, or a
	// pre-field manifest) is not verified.
	unset := m
	unset.PlatformSeed = 0
	if err := rs.VerifyManifest(unset); err != nil {
		t.Fatalf("zero platform seed verified: %v", err)
	}
}

func TestStagedHarvestCommitsAtomically(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := rs.StageRun(3)
	if err != nil {
		t.Fatal(err)
	}
	st := sr.Store()
	if err := st.WriteEvents(3, "A", []eventlog.Event{{Node: "A", Type: "ev"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteRunInfo(RunInfo{Run: 3}); err != nil {
		t.Fatal(err)
	}
	// Nothing visible in the real store before commit, and run listing
	// ignores the staging directory.
	if runs, _ := rs.Runs(); len(runs) != 0 {
		t.Fatalf("runs before commit = %v", runs)
	}
	if err := sr.Commit(); err != nil {
		t.Fatal(err)
	}
	if runs, _ := rs.Runs(); len(runs) != 1 || runs[0] != 3 {
		t.Fatalf("runs after commit = %v", runs)
	}
	evs, err := rs.ReadEvents(3, "A")
	if err != nil || len(evs) != 1 {
		t.Fatalf("events = %v, %v", evs, err)
	}
	if _, err := os.Stat(filepath.Join(rs.Dir, "runs", ".staging-3")); !os.IsNotExist(err) {
		t.Fatal("staging directory left behind")
	}
}

func TestStagedHarvestSupersedesPartialDir(t *testing.T) {
	rs, _ := NewRunStore(t.TempDir())
	// A half-written run dir from a crashed in-place harvest.
	if err := rs.WriteEvents(1, "A", []eventlog.Event{{Node: "A", Type: "stale"}}); err != nil {
		t.Fatal(err)
	}
	sr, err := rs.StageRun(1)
	if err != nil {
		t.Fatal(err)
	}
	sr.Store().WriteEvents(1, "A", []eventlog.Event{{Node: "A", Type: "fresh"}})
	if err := sr.Commit(); err != nil {
		t.Fatal(err)
	}
	evs, _ := rs.ReadEvents(1, "A")
	if len(evs) != 1 || evs[0].Type != "fresh" {
		t.Fatalf("committed events = %v", evs)
	}
}

func TestDiscardRunRefusesDone(t *testing.T) {
	rs, _ := NewRunStore(t.TempDir())
	rs.WriteEvents(0, "A", []eventlog.Event{{Node: "A", Type: "ev"}})
	rs.MarkRunDone(0)
	if err := rs.DiscardRun(0); err == nil {
		t.Fatal("discarded a completed run")
	}
	rs.WriteEvents(1, "A", []eventlog.Event{{Node: "A", Type: "ev"}})
	if err := rs.DiscardRun(1); err != nil {
		t.Fatal(err)
	}
	if runs, _ := rs.Runs(); len(runs) != 1 || runs[0] != 0 {
		t.Fatalf("runs after discard = %v", runs)
	}
}

// TestStagedStoreRecordsEveryDirectory: after each write method, the
// directories a staging store recorded — each after its parent, for
// Commit to fsync deepest first — are exactly those of the staged tree.
// The done marker is staged with the data and appears with it.
func TestStagedStoreRecordsEveryDirectory(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := rs.StageRun(5)
	if err != nil {
		t.Fatal(err)
	}
	st := sr.Store()
	ev := []eventlog.Event{{Node: "A", Type: "ev"}}
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"StageRun", func() error { return nil }},
		{"WriteEvents", func() error { return st.WriteEvents(5, "A", ev) }},
		{"WriteEvents again", func() error { return st.WriteEvents(5, "A", ev) }},
		{"WritePackets", func() error { return st.WritePackets(5, "B", []PacketRecord{{Dir: "tx"}}) }},
		{"WriteExtra", func() error { return st.WriteExtra(5, "A", "x.json", []byte("{}")) }},
		{"WriteExtra new node", func() error { return st.WriteExtra(5, "C", "y.json", []byte("{}")) }},
		{"AppendLog", func() error { return st.AppendLog(5, "D", "line\n") }},
		{"WriteRunInfo", func() error { return st.WriteRunInfo(RunInfo{Run: 5}) }},
		{"MarkRunDone", func() error { return st.MarkRunDone(5) }},
	} {
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var walked []string
		err := filepath.WalkDir(st.staged.dirs[0], func(path string, d os.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				walked = append(walked, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		recorded := append([]string{}, st.staged.dirs...)
		for i, dir := range recorded[1:] {
			if !slices.Contains(recorded[:i+1], filepath.Dir(dir)) {
				t.Errorf("%s: %s recorded before its parent: %v", w.name, dir, recorded)
			}
		}
		slices.Sort(recorded)
		if !slices.Equal(walked, recorded) {
			t.Errorf("%s: recorded %v, the tree has %v", w.name, recorded, walked)
		}
	}
	if err := st.WriteEvents(6, "A", ev); err == nil {
		t.Error("a staging store for run 5 took a write for run 6")
	}
	if rs.RunDone(5) {
		t.Fatal("done marker visible before commit")
	}
	if err := sr.Commit(); err != nil {
		t.Fatal(err)
	}
	if !rs.RunDone(5) {
		t.Fatal("no done marker after commit")
	}
	if entries, err := os.ReadDir(filepath.Join(rs.Dir, "runs")); err != nil || len(entries) != 1 {
		t.Fatalf("runs/ after commit: %v, %v", entries, err)
	}
}

// TestStagedStoreTakesConcurrentWrites: writers of distinct files of one
// staged run, several per directory, may run at once. Each directory is
// made and recorded once, after its parent, and the bytes counted are
// those of the committed files.
func TestStagedStoreTakesConcurrentWrites(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := rs.StageRun(2)
	if err != nil {
		t.Fatal(err)
	}
	st := sr.Store()
	var writes []func() error
	for _, node := range []string{"A", "B", "C", "D"} {
		writes = append(writes,
			func() error { return st.WriteEvents(2, node, []eventlog.Event{{Node: node, Type: "ev"}}) },
			func() error { return st.WritePackets(2, node, []PacketRecord{{Dir: "tx", Node: node}}) },
			func() error { return st.WriteExtra(2, node, "x.json", []byte("{}")) },
			func() error { return st.WriteExtra(2, node, "y.json", []byte("[]")) })
	}
	writes = append(writes,
		func() error { return st.WriteRunInfo(RunInfo{Run: 2}) },
		func() error { return st.MarkRunDone(2) })
	errs := make(chan error, len(writes))
	var wg sync.WaitGroup
	for _, w := range writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	recorded := st.staged.dirs
	for i, dir := range recorded[1:] {
		if !slices.Contains(recorded[:i+1], filepath.Dir(dir)) {
			t.Errorf("%s recorded before its parent: %v", dir, recorded)
		}
	}
	if len(recorded) != 1+4*2 {
		t.Errorf("recorded %d directories, want the run's, 4 nodes' and their extra/: %v", len(recorded), recorded)
	}
	staged := st.staged.bytes.Load()
	if err := sr.Commit(); err != nil {
		t.Fatal(err)
	}
	var size int64
	err = filepath.WalkDir(filepath.Join(rs.Dir, "runs", "2"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		size += info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if size != staged {
		t.Errorf("staged %d bytes, committed %d", staged, size)
	}
	if !rs.RunDone(2) {
		t.Error("no done marker after commit")
	}
}

// TestLeftoverStagingOfEitherLayoutIsRemoved: a crashed harvest leaves
// runs/.staging-<run> holding the run's files, or, as earlier versions
// staged them, runs/<run> below it. DiscardRun and a new StageRun remove
// either.
func TestLeftoverStagingOfEitherLayoutIsRemoved(t *testing.T) {
	for _, layout := range []string{"", filepath.Join("runs", "4")} {
		rs, err := NewRunStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		plant := func() {
			dir := filepath.Join(rs.Dir, "runs", ".staging-4", layout, "A")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "events.jsonl"), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		plant()
		if err := rs.DiscardRun(4); err != nil {
			t.Fatal(err)
		}
		if entries, err := os.ReadDir(filepath.Join(rs.Dir, "runs")); err != nil || len(entries) != 0 {
			t.Fatalf("layout %q: runs/ after DiscardRun: %v, %v", layout, entries, err)
		}
		plant()
		sr, err := rs.StageRun(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.Store().WriteRunInfo(RunInfo{Run: 4}); err != nil {
			t.Fatal(err)
		}
		if err := sr.Commit(); err != nil {
			t.Fatal(err)
		}
		if nodes, err := rs.RunNodes(4); err != nil || len(nodes) != 0 {
			t.Fatalf("layout %q: committed run holds the leftover's nodes %v (%v)", layout, nodes, err)
		}
	}
}
