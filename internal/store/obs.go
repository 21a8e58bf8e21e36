package store

import (
	"os"
	"strconv"
	"time"

	"excovery/internal/obs"
	"excovery/internal/store/reldb"
)

// Obs is where the level-3 operations — Condition, Save, Open — record
// themselves: one span and one set of counter updates per call, never per
// row. The committer's level-2 writes — each WritePackets, and each staged
// run from StageRun to its Commit — record duration and bytes only. The
// zero value records nothing and reads no clock, so an uninstrumented
// store behaves and allocates exactly as before. A RunStore hands its Obs
// to the database Condition builds from it.
type Obs struct {
	// Metrics receives duration, rows by table, bytes and decoder
	// fallbacks (by record: packet or event), labelled by operation.
	Metrics *obs.Registry
	// Tracer receives one span per operation on the "store" track,
	// carrying the same numbers as args.
	Tracer *obs.Tracer
}

const (
	helpStoreBytes     = "level-2 capture bytes written or conditioned, level-2 bytes of committed runs; level-3 file bytes saved or opened"
	helpStoreOpSeconds = "wall time of one storage operation"
	helpStoreFallbacks = "level-2 records decoded by encoding/json because they were not of the stored shape: " +
		"packet lines (record=packet), whole event files (record=event)"
)

// writeStart and wrote record one WritePackets call (op "write_packets") or
// one staged run (op "commit_run") in Metrics: duration and bytes. There is
// one per node per run or one per run, so unlike the level-3 operations
// they get no span of their own, and an uninstrumented store reads no
// clock.
func (o Obs) writeStart() (t time.Time) {
	if o.Metrics != nil {
		//lint:ignore walltime operation duration is an operator metric measuring real elapsed time
		t = time.Now()
	}
	return t
}

func (o Obs) wrote(op string, start time.Time, bytes int64) {
	if o.Metrics == nil {
		return
	}
	o.Metrics.Counter(obs.MStoreBytes, helpStoreBytes, "op", op).Add(bytes)
	o.Metrics.Histogram(obs.MStoreOpSeconds, helpStoreOpSeconds, nil, "op", op).
		ObserveDuration(time.Since(start))
}

// op is one level-3 operation in flight.
type op struct {
	o     Obs
	name  string
	span  uint64
	start time.Time
	// wait is the time conditioning's inserter waited for a run's rows.
	wait time.Duration
}

// begin opens the span of one operation ("condition", "save", "open").
func (o Obs) begin(name string) op {
	if o == (Obs{}) {
		return op{}
	}
	return op{
		o: o, name: name,
		span: o.Tracer.Begin(0, "store", "store", "store."+name, 0, 0, nil),
		//lint:ignore walltime operation duration is an operator metric measuring real elapsed time
		start: time.Now(),
	}
}

// clock reads the wall clock for an instrumented operation; an
// uninstrumented one gets the zero time and reads no clock.
func (p *op) clock() (t time.Time) {
	if p.o != (Obs{}) {
		//lint:ignore walltime operation duration is an operator metric measuring real elapsed time
		t = time.Now()
	}
	return t
}

// waited adds the time since t, a clock reading, to the operation's wait.
func (p *op) waited(t time.Time) {
	if p.o != (Obs{}) {
		p.wait += time.Since(t)
	}
}

// fileSize is the size of the level-3 file an instrumented operation wrote
// or read, 0 if there is none.
func (p op) fileSize(path string) int64 {
	if p.o == (Obs{}) {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// end closes the operation: db is the database it built, wrote or read
// (nil when it failed before there was one), st.bytes the level-2 capture
// bytes read (condition) or the level-3 file size (save, open), and the
// fallbacks what conditioning left to encoding/json.
func (p op) end(db *reldb.DB, st readStats, err error) {
	if p.o == (Obs{}) {
		return
	}
	wall := time.Since(p.start)
	args := map[string]string{
		"bytes":             strconv.FormatInt(st.bytes, 10),
		"decoder_fallbacks": strconv.FormatInt(st.packetFallbacks+st.eventFallbacks, 10),
		// The tracer may run on a virtual clock, on which the span
		// itself has no extent.
		"wall_ms": strconv.FormatFloat(float64(wall.Microseconds())/1e3, 'f', 3, 64),
	}
	if p.name == "condition" {
		args["wait_ms"] = strconv.FormatFloat(float64(p.wait.Microseconds())/1e3, 'f', 3, 64)
	}
	reg := p.o.Metrics
	if err != nil {
		args["err"] = err.Error()
	}
	if db != nil {
		for _, s := range tableI {
			n, _ := db.Count(s.Name) // a table the file lacks counts 0
			args["rows_"+s.Name] = strconv.Itoa(n)
			reg.Counter(obs.MStoreRows,
				"rows conditioned, saved or opened, by table", "op", p.name, "table", s.Name).Add(int64(n))
		}
	}
	reg.Counter(obs.MStoreBytes, helpStoreBytes, "op", p.name).Add(st.bytes)
	reg.Counter(obs.MStoreDecoderFallbacks, helpStoreFallbacks, "op", p.name, "record", "packet").Add(st.packetFallbacks)
	reg.Counter(obs.MStoreDecoderFallbacks, helpStoreFallbacks, "op", p.name, "record", "event").Add(st.eventFallbacks)
	reg.Histogram(obs.MStoreOpSeconds, helpStoreOpSeconds, nil, "op", p.name).ObserveDuration(wall)
	p.o.Tracer.EndWith(p.span, args)
}
