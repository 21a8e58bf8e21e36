package store

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/store/reldb"
	"excovery/internal/timesync"
)

// EEVersion is the ExCovery implementation version recorded in
// ExperimentInfo (Table I).
const EEVersion = "excovery-go/1.0"

// Meta is the experiment-level metadata of the ExperimentInfo table.
type Meta struct {
	// ExpXML is the complete level-1 description document.
	ExpXML string
	// Name and Comment describe the experiment.
	Name, Comment string
}

// ExperimentDB is the level-3 single-package representation of one
// complete experiment, using exactly the tables and attributes of Table I.
type ExperimentDB struct {
	DB *reldb.DB
	// Obs is where Save records itself; Condition and Obs.Open set it.
	Obs Obs
}

// tableI is the level-3 schema: the tables and attributes of Table I.
var tableI = []reldb.Schema{
	{Name: "ExperimentInfo", Columns: []reldb.Column{
		{Name: "ExpXML", Type: reldb.Text},
		{Name: "EEVersion", Type: reldb.Text},
		{Name: "Name", Type: reldb.Text},
		{Name: "Comment", Type: reldb.Text},
	}},
	{Name: "Logs", Columns: []reldb.Column{
		{Name: "NodeID", Type: reldb.Text},
		{Name: "Log", Type: reldb.Text},
	}},
	{Name: "EEFiles", Columns: []reldb.Column{
		{Name: "ID", Type: reldb.Text},
		{Name: "File", Type: reldb.Blob},
	}},
	{Name: "ExperimentMeasurements", Columns: []reldb.Column{
		{Name: "ID", Type: reldb.Int64},
		{Name: "NodeID", Type: reldb.Text},
		{Name: "Name", Type: reldb.Text},
		{Name: "Content", Type: reldb.Blob},
	}},
	{Name: "RunInfos", Columns: []reldb.Column{
		{Name: "RunID", Type: reldb.Int64},
		{Name: "NodeID", Type: reldb.Text},
		{Name: "StartTime", Type: reldb.Time},
		{Name: "TimeDiff", Type: reldb.Float64},
	}},
	{Name: "ExtraRunMeasurements", Columns: []reldb.Column{
		{Name: "RunID", Type: reldb.Int64},
		{Name: "NodeID", Type: reldb.Text},
		{Name: "Name", Type: reldb.Text},
		{Name: "Content", Type: reldb.Blob},
	}},
	{Name: "Events", Columns: []reldb.Column{
		{Name: "RunID", Type: reldb.Int64},
		{Name: "NodeID", Type: reldb.Text},
		{Name: "CommonTime", Type: reldb.Time},
		{Name: "EventType", Type: reldb.Text},
		{Name: "Parameter", Type: reldb.Text},
	}},
	{Name: "Packets", Columns: []reldb.Column{
		{Name: "RunID", Type: reldb.Int64},
		{Name: "NodeID", Type: reldb.Text},
		{Name: "CommonTime", Type: reldb.Time},
		{Name: "SrcNodeID", Type: reldb.Text},
		{Name: "Data", Type: reldb.Blob},
	}},
}

// tableIIndexes are the hash indexes that belong to the schema: every
// per-run accessor selects by RunID. The file format does not carry
// indexes, so a fresh and an opened database both declare this one list.
var tableIIndexes = [][2]string{
	{"Events", "RunID"}, {"Packets", "RunID"},
	{"RunInfos", "RunID"}, {"ExtraRunMeasurements", "RunID"},
}

func declareIndexes(db *reldb.DB) error {
	for _, idx := range tableIIndexes {
		if err := db.CreateIndex(idx[0], idx[1]); err != nil {
			return err
		}
	}
	return nil
}

// NewExperimentDB creates an empty level-3 database with the Table I
// schema.
func NewExperimentDB() (*ExperimentDB, error) {
	db := reldb.New()
	for _, s := range tableI {
		if err := db.CreateTable(s); err != nil {
			return nil, err
		}
	}
	if err := declareIndexes(db); err != nil {
		return nil, err
	}
	return &ExperimentDB{DB: db}, nil
}

// checkTableI verifies that db carries the Table I tables with their
// columns in place: the accessors address columns by position.
func checkTableI(db *reldb.DB) error {
	for _, want := range tableI {
		got, err := db.Schema(want.Name)
		if err != nil {
			return fmt.Errorf("store: not a level-3 database: missing table %q", want.Name)
		}
		for i, c := range want.Columns {
			if i >= len(got.Columns) || got.Columns[i] != c {
				return fmt.Errorf("store: not a level-3 database: table %q lacks column %d %q (%s)",
					want.Name, i, c.Name, c.Type)
			}
		}
	}
	return nil
}

// OpenExperimentDB loads a level-3 database file.
func OpenExperimentDB(path string) (*ExperimentDB, error) { return Obs{}.Open(path) }

// Open loads a level-3 database file, recording the operation in o. A
// file that fails its checksum or lacks part of the Table I schema is
// refused; the indexes are declared on what passed both.
func (o Obs) Open(path string) (*ExperimentDB, error) {
	op := o.begin("open")
	db, err := reldb.OpenFile(path)
	if err == nil {
		if err = checkTableI(db); err == nil {
			err = declareIndexes(db)
		}
	}
	op.end(db, readStats{bytes: op.fileSize(path)}, err)
	if err != nil {
		return nil, err
	}
	return &ExperimentDB{DB: db, Obs: o}, nil
}

// Save writes the database to a single file.
func (e *ExperimentDB) Save(path string) error {
	op := e.Obs.begin("save")
	err := e.DB.SaveFile(path)
	op.end(e.DB, readStats{bytes: op.fileSize(path)}, err)
	return err
}

// Condition turns the level-2 store into a level-3 database: all local
// timestamps are mapped onto the reference time base using the per-run
// time-sync measurements, then events, packets, logs, run infos and
// measurements are ingested (§IV-F).
func Condition(rs *RunStore, meta Meta) (*ExperimentDB, error) {
	e, err := NewExperimentDB()
	if err != nil {
		return nil, err
	}
	e.Obs = rs.Obs
	op := rs.Obs.begin("condition")
	var st readStats
	err = e.ingest(rs, meta, &op, &st)
	op.end(e.DB, st, err)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// ingest fills an empty database from the level-2 store: the runs are
// loaded by loadRuns and inserted here, table by table, in run order.
func (e *ExperimentDB) ingest(rs *RunStore, meta Meta, op *op, st *readStats) error {
	if err := e.DB.Insert("ExperimentInfo", reldb.Row{
		meta.ExpXML, EEVersion, meta.Name, meta.Comment,
	}); err != nil {
		return err
	}
	if meta.ExpXML != "" {
		if err := e.DB.Insert("EEFiles", reldb.Row{"description.xml", []byte(meta.ExpXML)}); err != nil {
			return err
		}
	}

	runs, err := rs.Runs()
	if err != nil {
		return err
	}
	logsByNode := map[string]string{}
	err = loadRuns(rs, runs, op, func(r *runRows) error {
		st.add(r.st)
		if r.err != nil {
			return r.err
		}
		for _, t := range [...]struct {
			name string
			rows []reldb.Row
		}{
			{"RunInfos", r.infos}, {"Events", r.events},
			{"Packets", r.packets}, {"ExtraRunMeasurements", r.extras},
		} {
			for _, row := range t.rows {
				if err := e.DB.Insert(t.name, row); err != nil {
					return err
				}
			}
		}
		for _, l := range r.logs {
			logsByNode[l.node] += l.text
		}
		return nil
	})
	if err != nil {
		return err
	}

	nodes := make([]string, 0, len(logsByNode))
	for n := range logsByNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if err := e.DB.Insert("Logs", reldb.Row{n, logsByNode[n]}); err != nil {
			return err
		}
	}

	ems, err := rs.ListExperimentMeasurements()
	if err != nil {
		return err
	}
	for i, m := range ems {
		if err := e.DB.Insert("ExperimentMeasurements", reldb.Row{
			int64(i), m.Node, m.Name, m.Content,
		}); err != nil {
			return err
		}
	}
	return nil
}

// runRows is one level-2 run loaded for the database: its rows table by
// table, its nodes' logs in node order, what reading it counted, and the
// error that ended the load early.
type runRows struct {
	infos, events, packets, extras []reldb.Row
	logs                           []nodeLog
	st                             readStats
	err                            error
}

type nodeLog struct{ node, text string }

// loadRun reads one run of level 2 and builds its rows on the common time
// base. It touches no shared state, so runs load concurrently.
func loadRun(rs *RunStore, run int) (r runRows) {
	r.err = r.load(rs, run)
	return r
}

func (r *runRows) load(rs *RunStore, run int) error {
	info, err := rs.ReadRunInfo(run)
	if err != nil {
		return fmt.Errorf("store: run %d has no runinfo: %w", run, err)
	}
	// Every row of the run shares one boxed run id.
	runID := any(int64(run))
	start := info.Start.UTC()
	offsets := map[string]timesync.Measurement{}
	for _, m := range info.Offsets {
		offsets[m.Node] = m
		r.infos = append(r.infos, reldb.Row{runID, m.Node, start, m.Offset.Seconds()})
	}
	correct := func(node string, local time.Time) time.Time {
		if m, ok := offsets[node]; ok {
			return timesync.Correct(local, m).UTC()
		}
		return local.UTC()
	}

	nodes, err := rs.RunNodes(run)
	if err != nil {
		return err
	}
	var slab rowSlab
	for _, node := range nodes {
		nodeID := any(node)
		err := rs.forEachEvent(run, node, &r.st, func(ev *eventlog.Event) error {
			r.events = append(r.events, reldb.Row{
				runID, ev.Node, correct(ev.Node, ev.Time), ev.Type, encodeParams(ev.Params),
			})
			return nil
		})
		if err != nil {
			return err
		}
		// The stored line is byte-identical to re-marshaling the decoded
		// record (json.Marshal of a PacketRecord is the line encoder;
		// TestPacketLineMatchesMarshal pins this), so the raw bytes feed
		// the Data column directly, all-zero payloads still as their
		// length, and the payload is never re-encoded — nor copied: the
		// rows keep the file's one buffer alive.
		err = rs.forEachPacketLine(run, node, &r.st, func(t time.Time, src string, line []byte) error {
			row := slab.row(5)
			row[0], row[1], row[2], row[3], row[4] = runID, nodeID, correct(node, t), src, line[:len(line):len(line)]
			r.packets = append(r.packets, row)
			return nil
		})
		if err != nil {
			return err
		}
		if log, err := rs.ReadLog(run, node); err != nil {
			return err
		} else if log != "" {
			r.logs = append(r.logs, nodeLog{node, log})
		}
	}
	extras, err := rs.ListExtras(run)
	if err != nil {
		return err
	}
	for _, x := range extras {
		r.extras = append(r.extras, reldb.Row{runID, x.Node, x.Name, x.Content})
	}
	return nil
}

// rowSlab hands out rows carved from shared arrays of values: one
// allocation per 128 packet rows instead of one per row. Each row is
// capped at its own length, so an append to one cannot reach the next.
type rowSlab []any

func (s *rowSlab) row(n int) reldb.Row {
	if len(*s)+n > cap(*s) {
		*s = make([]any, 0, 128*n)
	}
	i := len(*s)
	*s = (*s)[:i+n]
	return reldb.Row((*s)[i : i+n : i+n])
}

// loadRuns loads every run of runs and hands each to insert, in run order
// and on the caller's goroutine, until insert returns an error, which it
// returns. Up to GOMAXPROCS readers load ahead of insert: they claim runs
// in order through one counter, and at most 2×GOMAXPROCS claimed runs wait
// for insert, so a run that fails stops the pass with its own error
// whatever the later runs did. No reader outlives the call. With
// GOMAXPROCS 1 each run is loaded, then inserted, on the caller's
// goroutine alone. op accumulates the time insert waited for a run's rows,
// which on one P is the time the run took to load.
func loadRuns(rs *RunStore, runs []int, op *op, insert func(*runRows) error) error {
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 || len(runs) < 2 {
		for _, run := range runs {
			t := op.clock()
			r := loadRun(rs, run)
			op.waited(t)
			if err := insert(&r); err != nil {
				return err
			}
		}
		return nil
	}
	// A claim takes a token and the insert of the run returns it, so the
	// claimed run i and i+window never share a slot.
	window := 2 * procs
	slots := make([]chan runRows, window)
	tokens := make(chan struct{}, window)
	for i := range slots {
		slots[i] = make(chan runRows, 1)
		tokens <- struct{}{}
	}
	quit := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	// On return quit closes first, then every reader is waited for: one
	// loading a run past a failed one finishes it and leaves.
	defer wg.Wait()
	defer close(quit)
	for w := min(procs, len(runs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-quit:
					return
				case <-tokens:
				}
				i := next.Add(1) - 1
				if i >= int64(len(runs)) {
					return
				}
				slots[i%int64(window)] <- loadRun(rs, runs[i])
			}
		}()
	}
	for i := range runs {
		t := op.clock()
		r := <-slots[i%window]
		op.waited(t)
		if err := insert(&r); err != nil {
			return err
		}
		tokens <- struct{}{}
	}
	return nil
}

// DecodeParams parses a Parameter column value: nil for "" and for a value
// encoding/json does not take as an object of strings. A value of the
// stored shape is scanned (eventline.go), any other goes to encoding/json.
func DecodeParams(s string) map[string]string {
	if s == "" {
		return nil
	}
	b := []byte(s)
	sc := lineScanner{b: b}
	if m, ok := sc.params(); ok && sc.i == len(b) {
		return m
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil
	}
	return m
}

// Info returns the ExperimentInfo tuple.
func (e *ExperimentDB) Info() (Meta, error) {
	row, ok, err := e.DB.SelectOne(reldb.Query{Table: "ExperimentInfo"})
	if err != nil || !ok {
		return Meta{}, fmt.Errorf("store: no ExperimentInfo (%v)", err)
	}
	return Meta{ExpXML: row[0].(string), Name: row[2].(string), Comment: row[3].(string)}, nil
}

// RunIDs returns the distinct run ids of the RunInfos and Events tables,
// sorted. RunInfos has one row per clock-offset measurement, so a run
// whose time probes all failed is known by its events alone.
func (e *ExperimentDB) RunIDs() ([]int, error) {
	seen := map[int]bool{}
	var out []int
	for _, table := range []string{"RunInfos", "Events"} {
		rows, err := e.DB.Select(reldb.Query{Table: table})
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			id := int(r[0].(int64))
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out, nil
}

// EventsOfRun returns the conditioned events of one run ordered by common
// time.
func (e *ExperimentDB) EventsOfRun(run int) ([]eventlog.Event, error) {
	rows, err := e.DB.Select(reldb.Query{
		Table:   "Events",
		Where:   []reldb.Pred{reldb.Eq("RunID", int64(run))},
		OrderBy: "CommonTime",
	})
	if err != nil {
		return nil, err
	}
	out := make([]eventlog.Event, len(rows))
	for i, r := range rows {
		out[i] = eventlog.Event{
			Run:    int(r[0].(int64)),
			Node:   r[1].(string),
			Time:   r[2].(time.Time),
			Type:   r[3].(string),
			Params: DecodeParams(r[4].(string)),
		}
	}
	return out, nil
}

// ExtrasOfRun returns the plugin/extra measurements of one run (e.g. the
// master's trace.json execution trace).
func (e *ExperimentDB) ExtrasOfRun(run int) ([]ExtraMeasurement, error) {
	rows, err := e.DB.Select(reldb.Query{
		Table: "ExtraRunMeasurements",
		Where: []reldb.Pred{reldb.Eq("RunID", int64(run))},
	})
	if err != nil {
		return nil, err
	}
	out := make([]ExtraMeasurement, len(rows))
	for i, r := range rows {
		out[i] = ExtraMeasurement{
			Run:     int(r[0].(int64)),
			Node:    r[1].(string),
			Name:    r[2].(string),
			Content: r[3].([]byte),
		}
	}
	return out, nil
}

// PacketsOfRun returns the conditioned packet records of one run ordered
// by common time.
func (e *ExperimentDB) PacketsOfRun(run int) ([]PacketRecord, error) {
	rows, err := e.DB.Select(reldb.Query{
		Table:   "Packets",
		Where:   []reldb.Pred{reldb.Eq("RunID", int64(run))},
		OrderBy: "CommonTime",
	})
	if err != nil {
		return nil, err
	}
	out := make([]PacketRecord, len(rows))
	for i, r := range rows {
		var p PacketRecord
		if _, err := decodePacketLine(r[4].([]byte), &p); err != nil {
			return nil, err
		}
		p.Time = r[2].(time.Time) // conditioned common time
		p.Node = r[1].(string)    // capturing node
		out[i] = p
	}
	return out, nil
}
