package core

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"

	"excovery/internal/desc"
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
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), obs.MStoreOpSeconds+`_count{op="save"} 1`) {
		t.Errorf("exposition lacks the save duration:\n%s", text.String())
	}
}
