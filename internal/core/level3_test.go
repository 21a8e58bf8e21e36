package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/fault"
	"excovery/internal/netem"
	"excovery/internal/obs"
)

// TestLevel3BytesPinned holds the level-3 file — format XCRDB1, row order,
// every conditioned value — to what the commit before the level-3 path was
// rebuilt (streamed save, packet-line decoder, indexes declared on open)
// wrote for the same fixed-seed campaigns. A speed-up of the storage path
// must not move a byte; a deliberate format change updates the digests.
func TestLevel3BytesPinned(t *testing.T) {
	oneShot := desc.OneShot(30)
	oneShot.Repl.Count = 6
	for _, c := range []struct {
		name   string
		exp    *desc.Experiment
		size   int
		sha256 string
	}{
		{"oneshot x6", oneShot, 71049,
			"3cc79f29610b33079755f6dbaf355470c407696ac5797cfa2934719039b17d1d"},
		// Six treatments, one replication each: multi-hop paths, load
		// traffic, ~17k packet rows.
		{"casestudy 6 runs", desc.CaseStudy(1), 9489248,
			"c4d020186cba0327524036e39b150fdae36c86f692d6754ffd4127911ca70993"},
	} {
		raw, _ := runToLevel3(t, c.exp)
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != c.sha256 || len(raw) != c.size {
			t.Errorf("%s: level-3 file is %d bytes, sha256 %s; pinned %d bytes, %s",
				c.name, len(raw), got, c.size, c.sha256)
		}
	}
}

// TestLevel2BytesPinned holds the level-2 capture files to what the commit
// before the capture path was rebuilt (flat capture records, one harvest
// copy, the packet-line encoder in place of encoding/json) wrote for the
// same fixed-seed campaign: every packets.jsonl of the six case-study
// treatments, hashed in path order with its path.
func TestLevel2BytesPinned(t *testing.T) {
	const (
		pinnedFiles  = 36
		pinnedBytes  = 9009936
		pinnedSHA256 = "44ce1b7fde995c0675b553101cb80bdd8c33dae2f14e824d81dc0b9af29ee270"
	)
	dir := t.TempDir()
	x, err := New(desc.CaseStudy(1), Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := x.Run(); err != nil || rep.Completed != 6 {
		t.Fatalf("campaign: %+v, %v", rep, err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "runs", "*", "*", "packets.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	h := sha256.New()
	total := 0
	for _, f := range files {
		rel, err := filepath.Rel(dir, f)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
		total += len(raw)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedSHA256 || len(files) != pinnedFiles || total != pinnedBytes {
		t.Errorf("level-2 captures are %d files, %d bytes, sha256 %s; pinned %d files, %d bytes, %s",
			len(files), total, got, pinnedFiles, pinnedBytes, pinnedSHA256)
	}
}

// TestLevel2TreePinned holds the whole level-2 run hierarchy of the six
// case-study treatments — every file under runs/, events.jsonl,
// packets.jsonl, runinfo.json and the done markers alike — to what the
// committer wrote before its durable tail was rebuilt (files fsynced as
// they are written, events without encoding/json, the done marker staged
// with the run). One "path size sha256" line per file, in path order, is
// hashed; on a mismatch the lines are logged.
func TestLevel2TreePinned(t *testing.T) {
	const (
		pinnedFiles  = 90
		pinnedBytes  = 9032718
		pinnedSHA256 = "0fa146ed52e1a5b2eee155cad4840e6db8b87dc793f1e59345ad5a8aca0ea076"
	)
	dir := t.TempDir()
	x, err := New(desc.CaseStudy(1), Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := x.Run(); err != nil || rep.Completed != 6 {
		t.Fatalf("campaign: %+v, %v", rep, err)
	}
	var lines []string
	total := 0
	err = filepath.WalkDir(filepath.Join(dir, "runs"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(raw)
		lines = append(lines, fmt.Sprintf("%s %d %s\n", filepath.ToSlash(rel), len(raw), hex.EncodeToString(sum[:])))
		total += len(raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedSHA256 || len(lines) != pinnedFiles || total != pinnedBytes {
		t.Errorf("level-2 tree is %d files, %d bytes, sha256 %s; pinned %d files, %d bytes, %s\n%s",
			len(lines), total, got, pinnedFiles, pinnedBytes, pinnedSHA256, strings.Join(lines, ""))
	}
}

// TestCaseStudyEffortPinned holds the scheduler and network effort of the
// six case-study runs: deterministic counts, refreshed only deliberately
// like the digests above. The timer and packet counts are what the commit
// that still ran the traffic generator as one task per flow produced; its
// switch count was 5341 (890 per run), nearly all of them one handoff per
// background packet. Work that never blocks stays off tasks.
func TestCaseStudyEffortPinned(t *testing.T) {
	x, err := New(desc.CaseStudy(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := x.Run(); err != nil || rep.Completed != 6 {
		t.Fatalf("campaign: %+v, %v", rep, err)
	}
	if got := x.S.Switches(); got > 6*100 {
		t.Errorf("%d task switches in 6 runs, want at most 100 per run", got)
	}
	if got := x.S.FiredTimers(); got != 25378 {
		t.Errorf("%d timers fired, pinned 25378", got)
	}
	want := netem.Stats{Sent: 5136, Transmissions: 5343, Delivered: 5060, Duplicates: 995}
	want.Dropped[netem.DropLoss] = 75
	if got := x.Net.Stats(); got != want {
		t.Errorf("network stats %+v, pinned %+v", got, want)
	}
}

// TestTrafficInstruments: with a registry, the fault layer's packet counter
// is the sum of what every run's generator sent, and no flow is left
// running after the campaign.
func TestTrafficInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	x, err := New(desc.CaseStudy(1), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var gens []*fault.Traffic
	emit := x.Env.emit
	x.Env.emit = func(typ string, params map[string]string) {
		if typ == eventlog.EvEnvTrafficStart {
			gens = append(gens, x.Env.Traffic())
			if got, want := x.Env.trafficFlows.Value(), int64(2*len(x.Env.Traffic().Pairs())); got != want {
				t.Errorf("run %d: %d flows on the gauge, want %d", len(gens), got, want)
			}
		}
		emit(typ, params)
	}
	if rep, err := x.Run(); err != nil || rep.Completed != 6 {
		t.Fatalf("campaign: %+v, %v", rep, err)
	}
	var sent uint64
	for _, g := range gens {
		sent += g.Sent()
	}
	if got := reg.CounterValue(obs.MFaultTrafficPackets); len(gens) != 6 || sent == 0 || uint64(got) != sent {
		t.Errorf("counter %d, generators %d, sum of Sent() %d", got, len(gens), sent)
	}
	if got := x.Env.trafficFlows.Value(); got != 0 {
		t.Errorf("%d flows on the gauge after the campaign", got)
	}
}

// TestFinalizeRecordsStoreOps: a platform given a registry exposes what
// Finalize and Save did — the series /metrics serves on the master.
func TestFinalizeRecordsStoreOps(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	x, err := New(desc.OneShot(30), Options{StoreDir: dir, Metrics: reg})
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
	if err := db.Save(filepath.Join(dir, "exp.xcdb")); err != nil {
		t.Fatal(err)
	}
	events, _ := db.DB.Count("Events")
	for _, op := range []string{"condition", "save"} {
		if got := reg.CounterValue(obs.MStoreRows, "op", op, "table", "Events"); got != int64(events) || got == 0 {
			t.Errorf("%s{op=%s,table=Events} = %d, the database has %d", obs.MStoreRows, op, got, events)
		}
	}
	// The committer's share: one write_packets observation per node, with
	// the bytes conditioning then read back — every one of them by the
	// packet-line scanner, none by the encoding/json fallback.
	written := reg.CounterValue(obs.MStoreBytes, "op", "write_packets")
	if read := reg.CounterValue(obs.MStoreBytes, "op", "condition"); written != read || written == 0 {
		t.Errorf("%s: write_packets %d bytes, condition read %d", obs.MStoreBytes, written, read)
	}
	if got := reg.CounterTotal(obs.MStoreDecoderFallbacks); got != 0 {
		t.Errorf("%s = %d on a store the engine wrote", obs.MStoreDecoderFallbacks, got)
	}
	if got := reg.CounterTotal(obs.MNetemCaptured); got == 0 {
		t.Errorf("%s = 0 after a run", obs.MNetemCaptured)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		obs.MStoreOpSeconds + `_count{op="save"} 1`,
		fmt.Sprintf(`%s_count{op="write_packets"} %d`, obs.MStoreOpSeconds, len(x.Managers)),
		obs.MNetemCaptureBufferBytes + `{node="`,
	} {
		if !strings.Contains(text.String(), series) {
			t.Errorf("exposition lacks %s:\n%s", series, text.String())
		}
	}
}

// TestCommitRunRecordedPerRun: an instrumented campaign records one
// commit_run operation per completed run, and its bytes are every level-2
// byte of the committed runs.
func TestCommitRunRecordedPerRun(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	e := desc.OneShot(30)
	e.Repl.Count = 4
	x, err := New(e, Options{StoreDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil || rep.Completed != 4 {
		t.Fatalf("campaign: %+v, %v", rep, err)
	}
	var onDisk int64
	err = filepath.WalkDir(filepath.Join(dir, "runs"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		onDisk += fi.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue(obs.MStoreBytes, "op", "commit_run"); got != onDisk || got == 0 {
		t.Errorf("%s{op=commit_run} = %d, the runs hold %d bytes", obs.MStoreBytes, got, onDisk)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if series := fmt.Sprintf(`%s_count{op="commit_run"} %d`, obs.MStoreOpSeconds, rep.Completed); !strings.Contains(text.String(), series) {
		t.Errorf("exposition lacks %s:\n%s", series, text.String())
	}
}
