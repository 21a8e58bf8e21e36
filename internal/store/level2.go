// Package store implements ExCovery's four storage levels (§IV-F):
//
//	level 1 — the abstract experiment description (an XML document,
//	          provided by package desc);
//	level 2 — intermediate per-run storage of all raw measurements, a
//	          file-system hierarchy of per-node event logs, packet
//	          captures, log files and plugin measurements;
//	level 3 — one relational database per experiment with the schema of
//	          Table I, filled by the conditioning step that unifies all
//	          timestamps onto the master's reference time base;
//	level 4 — a repository integrating multiple experiments (the paper
//	          leaves this to future work): a directory of saved level-3
//	          files, summarized by excovery-report -repo.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/netem"
	"excovery/internal/store/fsio"
	"excovery/internal/timesync"
)

// Level-2 layout below the experiment directory:
//
//	runs/<run>/<node>/events.jsonl
//	runs/<run>/<node>/packets.jsonl
//	runs/<run>/<node>/log.txt
//	runs/<run>/<node>/extra/<name>
//	runs/<run>/sync.jsonl            (master's time-sync measurements)
//	runs/<run>/runinfo.json
//	experiment/<node>/<name>         (experiment-wide measurements)
//	description.xml                  (level 1, copied for transparency)

// RunStore is the level-2 intermediate storage for one experiment.
type RunStore struct {
	// Dir is the experiment directory.
	Dir string
	// Obs is where WritePackets, a staged run's commit and Condition record
	// themselves (zero: nowhere).
	Obs Obs
	// staged is what a staging store (StageRun) wrote; nil for a plain
	// store.
	staged *stagedTree
}

// NewRunStore creates (or reuses) the experiment directory.
func NewRunStore(dir string) (*RunStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &RunStore{Dir: dir}, nil
}

// runRoot is the directory of one run: runs/<run> below the experiment
// directory, or, on a staging store, its staging directory for its own run.
func (rs *RunStore) runRoot(run int) string {
	if rs.staged != nil && run == rs.staged.run {
		return rs.staged.root
	}
	return filepath.Join(rs.Dir, "runs", strconv.Itoa(run))
}

func (rs *RunStore) runDir(run int, node string) string {
	return filepath.Join(rs.runRoot(run), node)
}

// WriteDescription stores the level-1 document alongside the raw data.
func (rs *RunStore) WriteDescription(xml string) error {
	return os.WriteFile(filepath.Join(rs.Dir, "description.xml"), []byte(xml), 0o644)
}

// ReadDescription returns the stored level-1 document.
func (rs *RunStore) ReadDescription() (string, error) {
	b, err := os.ReadFile(filepath.Join(rs.Dir, "description.xml"))
	return string(b), err
}

// WriteEvents appends a node's recorded events of one run, one line per
// event (eventline.go).
func (rs *RunStore) WriteEvents(run int, node string, events []eventlog.Event) error {
	f, err := rs.openFile(rs.runDir(run, node), "events.jsonl", os.O_APPEND)
	if err != nil {
		return err
	}
	lb := lineBufs.Get().(*lineBuf)
	buf := lb.buf[:0]
	for i := range events {
		if buf, err = AppendEventLine(buf, &events[i]); err != nil {
			break
		}
	}
	if err == nil && len(buf) > 0 {
		_, err = f.Write(buf)
	}
	err = rs.closeFile(f, len(buf), err)
	lb.buf = buf[:0]
	lineBufs.Put(lb)
	return err
}

// ForEachEvent streams a node's events of one run in file order. The
// pointed-to Event may be reused between calls; callers that retain it
// must copy the value.
func (rs *RunStore) ForEachEvent(run int, node string, fn func(ev *eventlog.Event) error) error {
	return rs.forEachEvent(run, node, &readStats{}, fn)
}

// forEachEvent is ForEachEvent that counts in st a file that went through
// encoding/json (eventline.go).
func (rs *RunStore) forEachEvent(run int, node string, st *readStats, fn func(ev *eventlog.Event) error) error {
	path := filepath.Join(rs.runDir(run, node), "events.jsonl")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	evs, ok := scanEvents(data)
	if !ok {
		st.eventFallbacks++
		return decodeEvents(path, data, fn)
	}
	for i := range evs {
		if err := fn(&evs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// ReadEvents loads a node's events of one run.
func (rs *RunStore) ReadEvents(run int, node string) ([]eventlog.Event, error) {
	var out []eventlog.Event
	err := rs.ForEachEvent(run, node, func(ev *eventlog.Event) error {
		out = append(out, *ev)
		return nil
	})
	return out, err
}

// PacketRecord is the serialized form of one captured packet (§IV-B2): a
// local timestamp, a unique identifier, source and destination and the
// content. Its JSON form is the stored line (packetline.go): its
// MarshalJSON and UnmarshalJSON are the line encoder and decoder.
type PacketRecord struct {
	Time time.Time
	Dir  string
	// Node is the capturing node (where this tx/rx was observed).
	Node string
	ID   uint64
	Tag  uint16
	Src  string
	Dst  string
	Data []byte
	Path []netem.NodeID
}

// FromCaptures converts a node's captures of one run into records that own
// their memory: one record slice and one path slab for all of them, so the
// result stays what it is when the node's capture buffers are overwritten.
// Payloads are shared; they are immutable (netem.Packet).
func FromCaptures(caps []netem.Capture) []PacketRecord {
	hops := 0
	for i := range caps {
		hops += len(caps[i].Path)
	}
	out := make([]PacketRecord, len(caps))
	paths := make([]netem.NodeID, 0, hops)
	// A run's multicast traffic goes to a group or two: render each once.
	var group, groupDst string
	for i := range caps {
		c := &caps[i]
		var dst string
		if c.Dst.Broadcast || c.Dst.Group == "" {
			dst = c.Dst.String() // "*" or the node: nothing to build
		} else {
			if c.Dst.Group != group {
				group, groupDst = c.Dst.Group, c.Dst.String()
			}
			dst = groupDst
		}
		start := len(paths)
		paths = append(paths, c.Path...)
		out[i] = PacketRecord{
			Time: c.Time,
			Dir:  c.Dir.String(),
			Node: string(c.Node),
			ID:   c.ID,
			Tag:  c.Tag,
			Src:  string(c.Src),
			Dst:  dst,
			Data: c.Payload,
		}
		if len(c.Path) > 0 {
			out[i].Path = paths[start:len(paths):len(paths)]
		}
	}
	return out
}

// lineBuf is what WriteEvents and WritePackets encode a file through: the
// lines, and the last capture payload written as base64, with its base64.
type lineBuf struct {
	buf     []byte
	payload payloadMemo
}

// lineBufs recycles the lineBuf of each level-2 file write.
var lineBufs = sync.Pool{New: func() any { return new(lineBuf) }}

// lineBufFlush is the fill at which WritePackets hands its buffer to the
// file: above a typical node's captures of one run, so most files are one
// write.
const lineBufFlush = 64 << 10

// WritePackets appends a node's packet captures of one run, one line per
// record (packetline.go).
func (rs *RunStore) WritePackets(run int, node string, pkts []PacketRecord) error {
	start := rs.Obs.writeStart()
	f, err := rs.openFile(rs.runDir(run, node), "packets.jsonl", os.O_APPEND)
	if err != nil {
		return err
	}
	lb := lineBufs.Get().(*lineBuf)
	buf := lb.buf[:0]
	written := 0
	for i := range pkts {
		if buf, err = appendPacketLine(buf, &pkts[i], &lb.payload); err != nil {
			break
		}
		if len(buf) >= lineBufFlush || i == len(pkts)-1 {
			if _, err = f.Write(buf); err != nil {
				break
			}
			written += len(buf)
			buf = buf[:0]
		}
	}
	lb.buf = buf[:0]
	lineBufs.Put(lb)
	err = rs.closeFile(f, written, err)
	rs.Obs.wrote("write_packets", start, int64(written))
	return err
}

// readStats is what one pass over level 2 read: the bytes of the packet
// capture files, and what went through encoding/json because it was not of
// the stored shape — capture lines (packetline.go) and whole event files
// (eventline.go).
type readStats struct {
	bytes           int64
	packetFallbacks int64
	eventFallbacks  int64
}

func (st *readStats) add(o readStats) {
	st.bytes += o.bytes
	st.packetFallbacks += o.packetFallbacks
	st.eventFallbacks += o.eventFallbacks
}

// ForEachPacketLine streams a node's packet captures of one run, yielding
// each record's capture time, source node, and the raw stored line. The
// line is a view into a shared buffer, valid only during the call.
func (rs *RunStore) ForEachPacketLine(run int, node string, fn func(t time.Time, src string, line []byte) error) error {
	return rs.forEachPacketLine(run, node, &readStats{}, fn)
}

// forEachPacketLine is ForEachPacketLine that accounts what it read in st.
// It reads each file into a buffer of its own, so its caller may keep the
// lines.
func (rs *RunStore) forEachPacketLine(run int, node string, st *readStats, fn func(t time.Time, src string, line []byte) error) error {
	path := filepath.Join(rs.runDir(run, node), "packets.jsonl")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	st.bytes += int64(len(data))
	for start := 0; start < len(data); {
		var line []byte
		if end := bytes.IndexByte(data[start:], '\n'); end < 0 {
			line = data[start:]
			start = len(data)
		} else {
			line = data[start : start+end]
			start += end + 1
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		t, src, fallback, err := decodePacketMeta(line)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if fallback {
			st.packetFallbacks++
		}
		if err := fn(t, src, line); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// ReadPackets loads a node's packet captures of one run.
func (rs *RunStore) ReadPackets(run int, node string) ([]PacketRecord, error) {
	var out []PacketRecord
	err := rs.ForEachPacketLine(run, node, func(_ time.Time, _ string, line []byte) error {
		var p PacketRecord
		if _, err := decodePacketLine(line, &p); err != nil {
			return err
		}
		out = append(out, p)
		return nil
	})
	return out, err
}

// AppendLog appends to a node's free-form log file for a run.
func (rs *RunStore) AppendLog(run int, node, text string) error {
	return rs.writeFile(rs.runDir(run, node), "log.txt", os.O_APPEND, []byte(text))
}

// ReadLog returns a node's log file for a run ("" if none).
func (rs *RunStore) ReadLog(run int, node string) (string, error) {
	b, err := os.ReadFile(filepath.Join(rs.runDir(run, node), "log.txt"))
	if os.IsNotExist(err) {
		return "", nil
	}
	return string(b), err
}

// WriteExtra stores a plugin measurement for a run (§IV-B5: plugins have a
// separate storage location).
func (rs *RunStore) WriteExtra(run int, node, name string, content []byte) error {
	return rs.writeFile(filepath.Join(rs.runDir(run, node), "extra"), name, os.O_TRUNC, content)
}

// ExtraMeasurement is one plugin measurement.
type ExtraMeasurement struct {
	Run     int
	Node    string
	Name    string
	Content []byte
}

// ListExtras returns all plugin measurements of a run.
func (rs *RunStore) ListExtras(run int) ([]ExtraMeasurement, error) {
	runRoot := rs.runRoot(run)
	nodes, err := os.ReadDir(runRoot)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []ExtraMeasurement
	for _, nd := range nodes {
		if !nd.IsDir() {
			continue
		}
		extraDir := filepath.Join(runRoot, nd.Name(), "extra")
		files, err := os.ReadDir(extraDir)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			content, err := os.ReadFile(filepath.Join(extraDir, f.Name()))
			if err != nil {
				return nil, err
			}
			out = append(out, ExtraMeasurement{Run: run, Node: nd.Name(), Name: f.Name(), Content: content})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// WriteExperimentMeasurement stores an experiment-wide named measurement.
func (rs *RunStore) WriteExperimentMeasurement(node, name string, content []byte) error {
	dir := filepath.Join(rs.Dir, "experiment", node)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), content, 0o644)
}

// ListExperimentMeasurements returns all experiment-wide measurements.
func (rs *RunStore) ListExperimentMeasurements() ([]ExtraMeasurement, error) {
	root := filepath.Join(rs.Dir, "experiment")
	nodes, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []ExtraMeasurement
	for _, nd := range nodes {
		files, err := os.ReadDir(filepath.Join(root, nd.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			content, err := os.ReadFile(filepath.Join(root, nd.Name(), f.Name()))
			if err != nil {
				return nil, err
			}
			out = append(out, ExtraMeasurement{Run: -1, Node: nd.Name(), Name: f.Name(), Content: content})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// RunInfo records a run's start time and per-node clock offsets, feeding
// the RunInfos table (Table I: RunID, NodeID, StartTime, TimeDiff).
type RunInfo struct {
	Run     int                    `json:"run"`
	Start   time.Time              `json:"start"`
	Offsets []timesync.Measurement `json:"offsets"`
	// Attempts is the number of in-place attempts the run consumed.
	Attempts int `json:"attempts,omitempty"`
	// Partial marks measurements harvested from a run that failed or was
	// aborted: usable for post-mortems, but the run is not marked done,
	// so a resumed session re-executes it.
	Partial bool `json:"partial,omitempty"`
	// Aborted and Err describe why a partial run ended.
	Aborted bool   `json:"aborted,omitempty"`
	Err     string `json:"err,omitempty"`
}

// WriteRunInfo stores the run metadata and time-sync measurements.
func (rs *RunStore) WriteRunInfo(info RunInfo) error {
	b, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	return rs.writeFile(rs.runRoot(info.Run), "runinfo.json", os.O_TRUNC, b)
}

// ReadRunInfo loads a run's metadata.
func (rs *RunStore) ReadRunInfo(run int) (RunInfo, error) {
	var info RunInfo
	b, err := os.ReadFile(filepath.Join(rs.runRoot(run), "runinfo.json"))
	if err != nil {
		return info, err
	}
	err = json.Unmarshal(b, &info)
	return info, err
}

// Runs lists the run ids present in the store, sorted.
func (rs *RunStore) Runs() ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(rs.Dir, "runs"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n, err := strconv.Atoi(e.Name()); err == nil {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// RunNodes lists the node directories of a run, sorted.
func (rs *RunStore) RunNodes(run int) ([]string, error) {
	entries, err := os.ReadDir(rs.runRoot(run))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// openFile opens the file name in dir, a directory of a run, for writing
// (fsio.OpenFile): appending with flag os.O_APPEND, from empty with
// os.O_TRUNC. A staging store makes each missing directory with one
// os.Mkdir and records it for Commit to fsync (atomic.go). A plain store
// opens first and makes the directories only when that fails: the second
// and later files of a directory cost no stat.
func (rs *RunStore) openFile(dir, name string, flag int) (*os.File, error) {
	path := filepath.Join(dir, name)
	flag |= os.O_CREATE | os.O_WRONLY
	if rs.staged != nil {
		if err := rs.staged.mkdir(dir); err != nil {
			return nil, err
		}
		return fsio.OpenFile(path, flag, 0o644)
	}
	f, err := fsio.OpenFile(path, flag, 0o644)
	if err != nil && os.IsNotExist(err) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err = fsio.OpenFile(path, flag, 0o644)
	}
	return f, err
}

// closeFile closes a file openFile gave after n bytes were written to it,
// or after a write failed with err, which it returns first. A staging
// store fsyncs the file before closing it, so Commit has only directories
// left to sync.
func (rs *RunStore) closeFile(f *os.File, n int, err error) error {
	if err == nil && rs.staged != nil {
		err = f.Sync()
		rs.staged.bytes.Add(int64(n))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFile writes data to the file name in dir in one write (openFile).
func (rs *RunStore) writeFile(dir, name string, flag int, data []byte) error {
	f, err := rs.openFile(dir, name, flag)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		_, err = f.Write(data)
	}
	return rs.closeFile(f, len(data), err)
}

// MarkRunDone records that a run completed, enabling resume-after-abort:
// a restarted experiment skips runs marked done (§VII: ExCovery "recovers
// from failures by resuming aborted runs").
//
// The marker (and its directory entry) is fsync'd before return, making
// completion an at-least-once guarantee: once MarkRunDone returns, no
// crash can lose the marker, so a completed run is never re-executed; a
// crash *during* the call may lose it, in which case a resumed session
// re-executes the run — after the journal replay discards its partial
// state — rather than skipping work that may not be durable.
//
// On a staging store the marker is a plain fsynced file of the staged run:
// Commit's rename publishes it together with the data.
func (rs *RunStore) MarkRunDone(run int) error {
	dir := rs.runRoot(run)
	if rs.staged != nil {
		return rs.writeFile(dir, "done", os.O_TRUNC, []byte(doneMarker))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, "done"), []byte(doneMarker))
}

// doneMarker is the content of a run's done file.
const doneMarker = "done\n"

// RunDone reports whether a run was marked done.
func (rs *RunStore) RunDone(run int) bool {
	_, err := os.Stat(filepath.Join(rs.runRoot(run), "done"))
	return err == nil
}
