package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/obs"
	"excovery/internal/store/reldb"
	"excovery/internal/timesync"
)

// conditioned builds the fixture level-3 database, saves it and returns it
// with the file's path.
func conditioned(t *testing.T, o Obs) (*ExperimentDB, string) {
	t.Helper()
	rs := fillStore(t, t.TempDir())
	rs.Obs = o
	e, err := Condition(rs, Meta{ExpXML: "<x/>", Name: "exp1"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "exp1.xcdb")
	if err := e.Save(path); err != nil {
		t.Fatal(err)
	}
	return e, path
}

// TestOpenedDBEqualsFreshDB: the file carries no indexes, so an opened
// database must declare the ones a fresh database has, and every per-run
// accessor must answer the same from both, order included.
func TestOpenedDBEqualsFreshDB(t *testing.T) {
	fresh, path := conditioned(t, Obs{})
	opened, err := OpenExperimentDB(path)
	if err != nil {
		t.Fatal(err)
	}
	indexed := 0
	for _, s := range tableI {
		want, err := fresh.DB.Indexes(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := opened.DB.Indexes(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("table %s: opened database has indexes %v, a fresh one %v", s.Name, got, want)
		}
		indexed += len(want)
	}
	if indexed != len(tableIIndexes) {
		t.Errorf("fresh database has %d indexes, the schema lists %d", indexed, len(tableIIndexes))
	}

	wantRuns, _ := fresh.RunIDs()
	gotRuns, err := opened.RunIDs()
	if err != nil || !reflect.DeepEqual(gotRuns, wantRuns) || len(gotRuns) != 2 {
		t.Fatalf("RunIDs = %v, %v; want %v", gotRuns, err, wantRuns)
	}
	for _, run := range append(gotRuns, 99) { // 99: a run neither has
		we, _ := fresh.EventsOfRun(run)
		ge, err := opened.EventsOfRun(run)
		if err != nil || !reflect.DeepEqual(ge, we) {
			t.Errorf("run %d: EventsOfRun = %v, %v; want %v", run, ge, err, we)
		}
		wp, _ := fresh.PacketsOfRun(run)
		gp, err := opened.PacketsOfRun(run)
		if err != nil || !reflect.DeepEqual(gp, wp) {
			t.Errorf("run %d: PacketsOfRun = %v, %v; want %v", run, gp, err, wp)
		}
		wx, _ := fresh.ExtrasOfRun(run)
		gx, err := opened.ExtrasOfRun(run)
		if err != nil || !reflect.DeepEqual(gx, wx) {
			t.Errorf("run %d: ExtrasOfRun = %v, %v; want %v", run, gx, err, wx)
		}
		if run != 99 && (len(ge) != 2 || len(gp) != 2 || len(gx) != 1) {
			t.Errorf("run %d: %d events, %d packets, %d extras", run, len(ge), len(gp), len(gx))
		}
	}
}

// TestOpenRefusesNonLevel3: a well-formed reldb file that is not a Table I
// database is refused on open with one error naming what is missing, not
// later inside an accessor.
func TestOpenRefusesNonLevel3(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, drop string, alter func(*reldb.Schema)) string {
		db := reldb.New()
		for _, s := range tableI {
			if s.Name == drop {
				continue
			}
			s.Columns = append([]reldb.Column(nil), s.Columns...)
			if alter != nil {
				alter(&s)
			}
			if err := db.CreateTable(s); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, name)
		if err := db.SaveFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	_, err := OpenExperimentDB(save("nopackets", "Packets", nil))
	if err == nil || err.Error() != `store: not a level-3 database: missing table "Packets"` {
		t.Errorf("missing table: err = %v", err)
	}
	_, err = OpenExperimentDB(save("retyped", "", func(s *reldb.Schema) {
		if s.Name == "Events" {
			s.Columns[2].Type = reldb.Text
		}
	}))
	if err == nil || !strings.Contains(err.Error(), `not a level-3 database: table "Events" lacks column 2 "CommonTime" (time)`) {
		t.Errorf("retyped column: err = %v", err)
	}
	_, err = OpenExperimentDB(save("short", "", func(s *reldb.Schema) {
		if s.Name == "Packets" {
			s.Columns = s.Columns[:4]
		}
	}))
	if err == nil || !strings.Contains(err.Error(), `table "Packets" lacks column 4 "Data"`) {
		t.Errorf("dropped column: err = %v", err)
	}
	// A column after the Table I ones does not make the file foreign.
	if _, err := OpenExperimentDB(save("extra", "", func(s *reldb.Schema) {
		if s.Name == "Logs" {
			s.Columns = append(s.Columns, reldb.Column{Name: "Level", Type: reldb.Int64})
		}
	})); err != nil {
		t.Errorf("additional trailing column refused: %v", err)
	}
}

// TestOpenRefusesDamagedLevel3: damage is found by the checksum before the
// schema is looked at or any index built.
func TestOpenRefusesDamagedLevel3(t *testing.T) {
	_, path := conditioned(t, Obs{})
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-40] ^= 1
	for name, data := range map[string][]byte{"truncated": good[:len(good)/2], "flipped": flipped} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := OpenExperimentDB(path)
		if err == nil || e != nil {
			t.Errorf("%s file opened: %v, %v", name, e, err)
		} else if strings.Contains(err.Error(), "level-3") {
			t.Errorf("%s file got as far as the schema check: %v", name, err)
		}
	}
}

// TestLevel3OperationsAreObserved: Condition, Save and Open each leave one
// span and one round of counter updates — rows by table, bytes, decoder
// fallbacks — a failed open says so in its span, and the condition span
// says how long its inserter waited for rows.
func TestLevel3OperationsAreObserved(t *testing.T) {
	o := Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(nil)}
	_, path := conditioned(t, o)
	if _, err := o.Open(path); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Open(path + ".nope"); err == nil {
		t.Fatal("missing file opened")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	spans := o.Tracer.Spans()
	var names []string
	for _, sp := range spans {
		names = append(names, sp.Name)
		if sp.Track != "store" || sp.End.IsZero() {
			t.Errorf("span %s: track %q, end %v", sp.Name, sp.Track, sp.End)
		}
	}
	if want := []string{"store.condition", "store.save", "store.open", "store.open"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
	for i, want := range []map[string]string{
		{"rows_Events": "4", "rows_Packets": "4", "rows_RunInfos": "4", "decoder_fallbacks": "0"},
		{"rows_Packets": "4", "bytes": strconv.FormatInt(fi.Size(), 10)},
		{"rows_Events": "4", "bytes": strconv.FormatInt(fi.Size(), 10)},
		{"bytes": "0"},
	} {
		for k, v := range want {
			if got := spans[i].Args[k]; got != v {
				t.Errorf("%s: arg %s = %q, want %q (%v)", spans[i].Name, k, got, v, spans[i].Args)
			}
		}
	}
	if spans[0].Args["bytes"] == "0" || spans[3].Args["err"] == "" || spans[2].Args["err"] != "" {
		t.Errorf("condition bytes %q, failed open err %q, good open err %q",
			spans[0].Args["bytes"], spans[3].Args["err"], spans[2].Args["err"])
	}
	// The inserter's wait for rows is part of the condition's wall time,
	// and only the condition has one.
	wait, werr := strconv.ParseFloat(spans[0].Args["wait_ms"], 64)
	wall, _ := strconv.ParseFloat(spans[0].Args["wall_ms"], 64)
	if werr != nil || wait < 0 || wait > wall {
		t.Errorf("condition wait_ms %q, wall_ms %q", spans[0].Args["wait_ms"], spans[0].Args["wall_ms"])
	}
	for _, sp := range spans[1:] {
		if w, ok := sp.Args["wait_ms"]; ok {
			t.Errorf("%s has wait_ms %q", sp.Name, w)
		}
	}

	reg := o.Metrics
	for _, c := range []struct {
		name   string
		labels []string
		want   int64
	}{
		{obs.MStoreRows, []string{"op", "condition", "table", "Packets"}, 4},
		{obs.MStoreRows, []string{"op", "save", "table", "Events"}, 4},
		{obs.MStoreRows, []string{"op", "open", "table", "ExtraRunMeasurements"}, 2},
		{obs.MStoreBytes, []string{"op", "save"}, fi.Size()},
		{obs.MStoreBytes, []string{"op", "open"}, fi.Size()},
		{obs.MStoreDecoderFallbacks, []string{"op", "condition", "record", "packet"}, 0},
		{obs.MStoreDecoderFallbacks, []string{"op", "condition", "record", "event"}, 0},
	} {
		if got := reg.CounterValue(c.name, c.labels...); got != c.want {
			t.Errorf("%s%v = %d, want %d", c.name, c.labels, got, c.want)
		}
	}
	if n := reg.HistogramTotal(obs.MStoreOpSeconds); n != 4 {
		t.Errorf("%s has %d observations, want 4", obs.MStoreOpSeconds, n)
	}
}

// TestConditionCountsDecoderFallbacks: a capture line that is valid JSON
// but not of the stored shape is conditioned all the same, through
// encoding/json, and shows up in the fallback count.
func TestConditionCountsDecoderFallbacks(t *testing.T) {
	rs := fillStore(t, t.TempDir())
	f, err := os.OpenFile(filepath.Join(rs.runDir(0, "A"), "packets.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reordered keys and white space, as a hand edit would leave them.
	if _, err := f.WriteString(`{"src": "AA", "time": "2014-05-19T12:00:02+02:00", "dir": "tx", "id": 2, "tag": 0, "dst": "B", "data": null}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rs.Obs = Obs{Metrics: obs.NewRegistry()}
	e, err := Condition(rs, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for record, want := range map[string]int64{"packet": 1, "event": 0} {
		if got := rs.Obs.Metrics.CounterValue(obs.MStoreDecoderFallbacks, "op", "condition", "record", record); got != want {
			t.Errorf("%s fallbacks = %d, want %d", record, got, want)
		}
	}
	pkts, err := e.PacketsOfRun(0)
	if err != nil || len(pkts) != 3 {
		t.Fatalf("packets = %v, %v", pkts, err)
	}
	if p := pkts[0]; p.Src != "AA" || p.ID != 2 || !p.Time.Equal(base.Add(-2*60*60*1e9+2e9)) {
		t.Errorf("hand-edited line decoded as %+v", p)
	}
}

// TestConditionRejectsUndecodablePayloads: conditioning fails on a capture
// line whose payload PacketsOfRun could not decode — bad base64 on the
// scanner's path, a zero "zeros" on encoding/json's — instead of storing it
// as a Packets row.
func TestConditionRejectsUndecodablePayloads(t *testing.T) {
	for _, line := range []string{
		`{"time":"2014-05-19T12:00:02Z","dir":"tx","id":2,"tag":0,"src":"A","dst":"B","data":"Q Q=="}`,
		`{"time":"2014-05-19T12:00:02Z","dir":"tx","id":2,"tag":0,"src":"A","dst":"B","zeros":0}`,
	} {
		rs := fillStore(t, t.TempDir())
		f, err := os.OpenFile(filepath.Join(rs.runDir(0, "A"), "packets.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line + "\n"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Condition(rs, Meta{}); err == nil {
			t.Errorf("Condition accepted %s", line)
		}
	}
}

// TestConditionCountsEventFallbacks: an events file with one hand-edited
// line goes through encoding/json as a whole, is counted once under
// record=event, and conditions to the same rows as the file it was.
func TestConditionCountsEventFallbacks(t *testing.T) {
	clean, err := Condition(fillStore(t, t.TempDir()), Meta{})
	if err != nil {
		t.Fatal(err)
	}
	rs := fillStore(t, t.TempDir())
	path := filepath.Join(rs.runDir(0, "A"), "events.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// White space after the key, as a hand edit would leave it.
	edited := strings.Replace(string(data), `"Node":"A"`, `"Node": "A"`, 1)
	if edited == string(data) {
		t.Fatalf("fixture line changed shape: %s", data)
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	rs.Obs = Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(nil)}
	e, err := Condition(rs, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for record, want := range map[string]int64{"packet": 0, "event": 1} {
		if got := rs.Obs.Metrics.CounterValue(obs.MStoreDecoderFallbacks, "op", "condition", "record", record); got != want {
			t.Errorf("%s fallbacks = %d, want %d", record, got, want)
		}
	}
	if got := rs.Obs.Tracer.Spans()[0].Args["decoder_fallbacks"]; got != "1" {
		t.Errorf("condition span decoder_fallbacks = %q, want 1", got)
	}
	for run := 0; run < 2; run++ {
		want, _ := clean.EventsOfRun(run)
		got, err := e.EventsOfRun(run)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: events %v, %v; want %v", run, got, err, want)
		}
	}
}

// TestRunWithoutOffsetsIsListed: a run whose time probes all failed has no
// RunInfos row, yet its events are in level 3, so it is one of the runs.
func TestRunWithoutOffsetsIsListed(t *testing.T) {
	rs := fillStore(t, t.TempDir())
	if err := rs.WriteRunInfo(RunInfo{Run: 0, Start: base, Offsets: []timesync.Measurement{}}); err != nil {
		t.Fatal(err)
	}
	e, err := Condition(rs, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.DB.Count("RunInfos"); n != 2 {
		t.Fatalf("RunInfos has %d rows, want run 1's two", n)
	}
	ids, err := e.RunIDs()
	if err != nil || !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("RunIDs = %v, %v; want [0 1]", ids, err)
	}
	if evs, err := e.EventsOfRun(0); err != nil || len(evs) != 2 {
		t.Fatalf("run 0 events = %v, %v", evs, err)
	}
}

// TestLogsIngestInNodeOrder pins the level-3 file of a stored campaign
// with logs on many nodes. Conditioning gathers each node's logs in a map,
// so only the sort before the Logs ingest makes the rows, and the file,
// repeatable. Twelve nodes, conditioned three times, make a map order that
// happens to come out sorted too rare to hide a missing sort.
func TestLogsIngestInNodeOrder(t *testing.T) {
	const (
		pinnedSize   = 1784
		pinnedSHA256 = "59989739259159146a205738eba49102030e13c15eca55c775ae98b1056a1911"
	)
	rs := fillStore(t, t.TempDir())
	for run := 0; run < 2; run++ {
		// A already has a log; B also records events, C to L only log.
		for node := 'B'; node <= 'L'; node++ {
			if err := rs.AppendLog(run, string(node), "run "+strconv.Itoa(run)+": up\n"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pass := 0; pass < 3; pass++ {
		e, err := Condition(rs, Meta{Name: "logs"})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := e.DB.Select(reldb.Query{Table: "Logs"})
		if err != nil {
			t.Fatal(err)
		}
		var nodes []string
		for _, r := range rows {
			nodes = append(nodes, r[0].(string))
		}
		if want := "A B C D E F G H I J K L"; strings.Join(nodes, " ") != want {
			t.Fatalf("pass %d: Logs rows in node order %v, want %s", pass, nodes, want)
		}
		path := filepath.Join(t.TempDir(), "logs.xcdb")
		if err := e.Save(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != pinnedSHA256 || len(raw) != pinnedSize {
			t.Fatalf("pass %d: level-3 file is %d bytes, sha256 %s; pinned %d bytes, %s",
				pass, len(raw), got, pinnedSize, pinnedSHA256)
		}
	}
}

// manyRunStore builds an n-run level-2 store on three skewed nodes: every
// run has events and packets on each node, logs on two, an extra on one;
// run 17 (when there is one) carries a capture line of a shape only
// encoding/json reads, and the store an experiment measurement.
func manyRunStore(t *testing.T, n int) *RunStore {
	t.Helper()
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nodes := []string{"A", "B", "C"}
	for run := 0; run < n; run++ {
		start := base.Add(time.Duration(run) * time.Minute)
		info := RunInfo{Run: run, Start: start}
		for i, node := range nodes {
			info.Offsets = append(info.Offsets, timesync.Measurement{Node: node, Offset: time.Duration(i*40-30) * time.Millisecond})
		}
		if err := rs.WriteRunInfo(info); err != nil {
			t.Fatal(err)
		}
		for i, node := range nodes {
			at := start.Add(time.Duration(i+1) * 100 * time.Millisecond)
			if err := rs.WriteEvents(run, node, []eventlog.Event{
				{Run: run, Node: node, Time: at, Type: "sd_init_done"},
				{Run: run, Node: node, Time: at.Add(time.Second), Type: "sd_service_add",
					Params: map[string]string{"service": "s", "run": strconv.Itoa(run)}},
			}); err != nil {
				t.Fatal(err)
			}
			var pkts []PacketRecord
			for id := 0; id < 30; id++ {
				pkts = append(pkts, PacketRecord{Time: at.Add(time.Duration(id) * time.Millisecond),
					Dir: "tx", Node: node, ID: uint64(run*1000 + id), Src: node, Dst: "mcast:mdns",
					Data: []byte("query " + strconv.Itoa(id))})
			}
			if err := rs.WritePackets(run, node, pkts); err != nil {
				t.Fatal(err)
			}
		}
		for _, node := range []string{"C", "A"} {
			if err := rs.AppendLog(run, node, "run "+strconv.Itoa(run)+" on "+node+"\n"); err != nil {
				t.Fatal(err)
			}
		}
		if err := rs.WriteExtra(run, "B", "cpu.txt", []byte(strconv.Itoa(run)+"%")); err != nil {
			t.Fatal(err)
		}
	}
	if n > 17 {
		f, err := os.OpenFile(filepath.Join(rs.runDir(17, "B"), "packets.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"src": "A", "time": "2014-05-19T12:17:02Z", "dir": "rx", "id": 17002, "tag": 0, "dst": "B", "data": null}` + "\n"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.WriteExperimentMeasurement("master", "topology.txt", []byte("A-B-C")); err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestConditionIdenticalAcrossGOMAXPROCS: conditioning loads runs on as
// many readers as there are Ps and inserts them in run order, so the
// level-3 file, and what the condition span counted, are the same on any
// number of Ps.
func TestConditionIdenticalAcrossGOMAXPROCS(t *testing.T) {
	rs := manyRunStore(t, 40)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	var wantArgs map[string]string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		rs.Obs = Obs{Tracer: obs.NewTracer(nil)}
		e, err := Condition(rs, Meta{ExpXML: "<x/>", Name: "many"})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "many.xcdb")
		if err := e.Save(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		args := map[string]string{}
		for k, v := range rs.Obs.Tracer.Spans()[0].Args {
			if k == "bytes" || k == "decoder_fallbacks" || strings.HasPrefix(k, "rows_") {
				args[k] = v
			}
		}
		if want == nil {
			want, wantArgs = raw, args
			if args["decoder_fallbacks"] != "1" || args["rows_Packets"] != "3601" || args["rows_Logs"] != "2" {
				t.Fatalf("GOMAXPROCS 1: condition counted %v", args)
			}
			continue
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("GOMAXPROCS %d: level-3 file differs from GOMAXPROCS 1's (%d vs %d bytes)", procs, len(raw), len(want))
		}
		if !reflect.DeepEqual(args, wantArgs) {
			t.Errorf("GOMAXPROCS %d: condition counted %v, GOMAXPROCS 1 %v", procs, args, wantArgs)
		}
	}
}

// holdOpen opens the FIFO at path for reading and writing, which does not
// wait for a reader, and closes it after d: a reader of the FIFO blocks
// until then and reads end-of-file after. The returned func ends the hold
// now if it still runs, and returns once the FIFO is closed.
func holdOpen(t *testing.T, path string, d time.Duration) (end func()) {
	t.Helper()
	w, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	hold := time.AfterFunc(d, func() { w.Close(); close(closed) })
	return func() {
		if hold.Stop() {
			w.Close()
			return
		}
		<-closed
	}
}

// TestConditionFailsAtFirstBrokenRun: run 3 lacks its runinfo and run 7
// has a capture line whose payload does not decode. Conditioning fails
// with run 3's error, the one the run-by-run pass gives, on any number of
// Ps, and no reader is left running when it returns. The logs of runs 2
// and 4 are FIFOs, held open for 50 and 200 ms: while run 2 loads, readers
// claim run 4 and block on it, so a Condition that returned without
// waiting for its readers leaves one behind for 150 ms.
func TestConditionFailsAtFirstBrokenRun(t *testing.T) {
	rs := manyRunStore(t, 10)
	if err := os.Remove(filepath.Join(rs.runRoot(3), "runinfo.json")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(rs.runDir(7, "A"), "packets.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"time":"2014-05-19T12:07:02Z","dir":"tx","id":2,"tag":0,"src":"A","dst":"B","data":"Q Q=="}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	holds := map[string]time.Duration{}
	for run, d := range map[int]time.Duration{2: 50 * time.Millisecond, 4: 200 * time.Millisecond} {
		fifo := filepath.Join(rs.runDir(run, "A"), "log.txt")
		if err := os.Remove(fifo); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Mkfifo(fifo, 0o644); err != nil {
			t.Fatal(err)
		}
		holds[fifo] = d
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var ends []func()
		for fifo, d := range holds {
			ends = append(ends, holdOpen(t, fifo, d))
		}
		before := runtime.NumGoroutine()
		_, err := Condition(rs, Meta{})
		// A reader that returned its run may still be on its way out:
		// allow it 50 ms, less than what is left of run 4's hold.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(50 * time.Millisecond); after > before && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
			after = runtime.NumGoroutine()
		}
		for _, end := range ends {
			end()
		}
		if err == nil {
			t.Fatalf("GOMAXPROCS %d: a store without run 3's runinfo conditioned", procs)
		}
		if procs == 1 {
			want = err.Error()
			if !strings.HasPrefix(want, "store: run 3 has no runinfo: ") {
				t.Fatalf("GOMAXPROCS 1: error %q is not run 3's", want)
			}
		} else if err.Error() != want {
			t.Errorf("GOMAXPROCS %d: error %q, GOMAXPROCS 1 gave %q", procs, err, want)
		}
		if after > before {
			t.Errorf("GOMAXPROCS %d: %d goroutines after Condition returned, %d before", procs, after, before)
		}
	}
}
