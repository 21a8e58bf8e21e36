package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/fault"
	"excovery/internal/netem"
	"excovery/internal/obs"
	"excovery/internal/store"
)

// TestLevel3BytesPinned holds the level-3 file — format XCRDB1, row order,
// every conditioned value — to what the commit before the level-3 path was
// rebuilt (streamed save, packet-line decoder, indexes declared on open)
// wrote for the same fixed-seed campaigns. A speed-up of the storage path
// must not move a byte; a deliberate format change updates the digests.
// Storing all-zero payloads by their length moved the case study's once
// (TestParentFormatStoreDecodes keeps the digest from before); the
// one-shot runs carry no such payload.
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
		{"casestudy 6 runs", desc.CaseStudy(1), 2575132,
			"7a32ffa372c9af3a2bfc91e23d2f0ce9541ea6014331500f6cdc827362108e9a"},
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
// treatments, hashed in path order with its path. Storing all-zero
// payloads by their length moved it once (TestParentFormatStoreDecodes
// keeps the digest from before).
func TestLevel2BytesPinned(t *testing.T) {
	const (
		pinnedFiles  = 36
		pinnedBytes  = 2095820
		pinnedSHA256 = "b72fe4df08683c2f2ede7b2924dd8eae11673257f3e19a6aba9cb7287c54aec8"
	)
	dir := t.TempDir()
	runStored(t, desc.CaseStudy(1), dir)
	files, total, sum := packetFilesDigest(t, dir)
	if sum != pinnedSHA256 || files != pinnedFiles || total != pinnedBytes {
		t.Errorf("level-2 captures are %d files, %d bytes, sha256 %s; pinned %d files, %d bytes, %s",
			files, total, sum, pinnedFiles, pinnedBytes, pinnedSHA256)
	}
}

// TestLevel2TreePinned holds the whole level-2 run hierarchy of the six
// case-study treatments — every file under runs/, events.jsonl,
// packets.jsonl, runinfo.json and the done markers alike — to what the
// committer wrote before its durable tail was rebuilt (files fsynced as
// they are written, events without encoding/json, the done marker staged
// with the run), packets.jsonl as it is since all-zero payloads are stored
// by their length. One "path size sha256" line per file, in path order, is
// hashed; on a mismatch the lines are logged.
func TestLevel2TreePinned(t *testing.T) {
	const (
		pinnedFiles  = 90
		pinnedBytes  = 2118602
		pinnedSHA256 = "86dccdbddaa19157eb655d0f6858a592d200c1dfb5fbd3e75ece25debdf036bc"
	)
	dir := t.TempDir()
	runStored(t, desc.CaseStudy(1), dir)
	var lines []string
	total := 0
	err := filepath.WalkDir(filepath.Join(dir, "runs"), func(path string, d os.DirEntry, err error) error {
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

// decodedPins are TestDecodedPacketsPinned's campaigns and digests.
var decodedPins = []struct {
	name    string
	exp     func() *desc.Experiment
	records int
	sha256  string
}{
	{"oneshot x6", func() *desc.Experiment {
		e := desc.OneShot(30)
		e.Repl.Count = 6
		return e
	}, 320, "611365c7715616ec1e3508d9edcbe52a2a01c287c582e87797d9f820f8f8e59c"},
	{"casestudy 6 runs", func() *desc.Experiment { return desc.CaseStudy(1) }, 23028,
		"cf79d4641a041eabf3cea021b9702139ffa502a276610919a9a508eca54e095a"},
}

// TestDecodedPacketsPinned holds what the stored packets decode to — every
// record ReadPackets returns from level 2 and PacketsOfRun returns from
// the saved and reopened level-3 file — for the same fixed-seed campaigns
// as TestLevel3BytesPinned. The byte pins above move with any change of
// the stored form; this one moves only when a decoded record does, so a
// format change that keeps it proves itself lossless. It was committed
// before all-zero payloads were stored by their length, and that change
// left it as it was.
func TestDecodedPacketsPinned(t *testing.T) {
	for _, c := range decodedPins {
		dir := t.TempDir()
		x := runStored(t, c.exp(), dir)
		if records, sum, _ := decodedPackets(t, x, dir); sum != c.sha256 || records != c.records {
			t.Errorf("%s: %d decoded records, sha256 %s; pinned %d, %s", c.name, records, sum, c.records, c.sha256)
		}
	}
}

// legacyPacket is PacketRecord without its methods: encoding/json writes
// it as the store wrote every record before all-zero payloads were stored
// by their length, payload always as base64.
type legacyPacket struct {
	Time time.Time      `json:"time"`
	Dir  string         `json:"dir"`
	Node string         `json:"node,omitempty"`
	ID   uint64         `json:"id"`
	Tag  uint16         `json:"tag"`
	Src  string         `json:"src"`
	Dst  string         `json:"dst"`
	Data []byte         `json:"data"`
	Path []netem.NodeID `json:"path,omitempty"`
}

// TestParentFormatStoreDecodes: a case-study store in the form written
// before all-zero payloads were stored by their length — every packet line
// of a fresh store re-encoded as a legacyPacket — is byte for byte what
// that writer left (its level-2 and level-3 digests, as TestLevel2BytesPinned
// and TestLevel3BytesPinned pinned them then), and it opens, conditions and
// decodes to the records TestDecodedPacketsPinned pins.
func TestParentFormatStoreDecodes(t *testing.T) {
	const (
		level2Bytes  = 9009936
		level2SHA256 = "44ce1b7fde995c0675b553101cb80bdd8c33dae2f14e824d81dc0b9af29ee270"
		level3Bytes  = 9489248
		level3SHA256 = "c4d020186cba0327524036e39b150fdae36c86f692d6754ffd4127911ca70993"
	)
	pin := decodedPins[1]
	dir := t.TempDir()
	x := runStored(t, pin.exp(), dir)
	files, err := filepath.Glob(filepath.Join(dir, "runs", "*", "*", "packets.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var legacy []byte
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if line == "" {
				continue
			}
			var p store.PacketRecord
			if err := json.Unmarshal([]byte(line), &p); err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(legacyPacket(p))
			if err != nil {
				t.Fatal(err)
			}
			legacy = append(append(legacy, b...), '\n')
		}
		if err := os.WriteFile(f, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, total, sum := packetFilesDigest(t, dir); sum != level2SHA256 || total != level2Bytes {
		t.Errorf("legacy level 2: %d files, %d bytes, sha256 %s; written then %d bytes, %s",
			n, total, sum, level2Bytes, level2SHA256)
	}
	records, sum, level3 := decodedPackets(t, x, dir)
	if got := sha256.Sum256(level3); hex.EncodeToString(got[:]) != level3SHA256 || len(level3) != level3Bytes {
		t.Errorf("level 3 of the legacy store: %d bytes, sha256 %x; written then %d bytes, %s",
			len(level3), got, level3Bytes, level3SHA256)
	}
	if sum != pin.sha256 || records != pin.records {
		t.Errorf("legacy store: %d decoded records, sha256 %s; pinned %d, %s", records, sum, pin.records, pin.sha256)
	}
}

// runStored runs e to completion with its level-2 store in dir.
func runStored(t *testing.T, e *desc.Experiment, dir string) *Experiment {
	t.Helper()
	x, err := New(e, Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := x.Run(); err != nil || rep.Completed != len(rep.Results) {
		t.Fatalf("campaign: %+v, %v", rep, err)
	}
	return x
}

// packetFilesDigest hashes every packets.jsonl of the store in dir, in
// path order with its path and size.
func packetFilesDigest(t *testing.T, dir string) (files, total int, sum string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "runs", "*", "*", "packets.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, f := range paths {
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
	return len(paths), total, hex.EncodeToString(h.Sum(nil))
}

// decodedPackets hashes every record x's level-2 store in dir decodes to,
// then conditions it, saves the level-3 file, reopens it and hashes every
// record it decodes to. It returns the count, the digest and the file.
func decodedPackets(t *testing.T, x *Experiment, dir string) (records int, sum string, level3 []byte) {
	t.Helper()
	h := sha256.New()
	rs := x.Store()
	runs, err := rs.Runs()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		nodes, err := rs.RunNodes(run)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range nodes {
			pkts, err := rs.ReadPackets(run, node)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "level2 run %d node %s %d\n", run, node, len(pkts))
			records += hashPackets(h, pkts)
		}
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "experiment.xcdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if db, err = store.OpenExperimentDB(path); err != nil {
		t.Fatal(err)
	}
	ids, err := db.RunIDs()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range ids {
		pkts, err := db.PacketsOfRun(run)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "level3 run %d %d\n", run, len(pkts))
		records += hashPackets(h, pkts)
	}
	if level3, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return records, hex.EncodeToString(h.Sum(nil)), level3
}

// hashPackets writes one canonical rendering of each record to h — the
// payload as its raw bytes, nil and empty told apart — and returns how
// many it wrote.
func hashPackets(h io.Writer, pkts []store.PacketRecord) int {
	for _, p := range pkts {
		fmt.Fprintf(h, "%s %s %q %d %d %q %q %q ", p.Time.Format(time.RFC3339Nano), p.Time.Location(),
			p.Node, p.ID, p.Tag, p.Src, p.Dst, p.Dir)
		if p.Data == nil {
			fmt.Fprint(h, "nil")
		} else {
			fmt.Fprintf(h, "%d:", len(p.Data))
			h.Write(p.Data)
		}
		fmt.Fprintf(h, " %q\n", p.Path)
	}
	return len(pkts)
}
