package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Journal record types. The master writes one record around every stage of
// a run's lifecycle; resume replays the file to reconstruct exactly which
// runs are durably finished and which died mid-attempt.
const (
	// RecAttemptBegin is written (and fsync'd) before an attempt starts.
	RecAttemptBegin = "run_attempt_begin"
	// RecAttemptEnd is written after an attempt returned, carrying its
	// outcome ("ok", "failed" or "aborted").
	RecAttemptEnd = "run_attempt_end"
	// RecRunDone is written after the run's measurements were atomically
	// committed to level 2 and the done marker was fsync'd.
	RecRunDone = "run_done"
)

// JournalRecord is one line of the write-ahead run journal.
type JournalRecord struct {
	// Seq is the record's position in the journal, starting at 1.
	Seq int64 `json:"seq"`
	// Type is one of the Rec* constants.
	Type string `json:"type"`
	// Run is the plan run id.
	Run int `json:"run"`
	// Attempt is the in-place attempt number (begin/end records).
	Attempt int `json:"attempt,omitempty"`
	// Seed is the derived run seed (begin records), so a journal alone
	// identifies what was about to execute.
	Seed int64 `json:"seed,omitempty"`
	// Treatment is the run's treatment index (begin records).
	Treatment int `json:"treatment,omitempty"`
	// Outcome is "ok", "failed" or "aborted" (end records).
	Outcome string `json:"outcome,omitempty"`
	// Err is the attempt's first error (end records).
	Err string `json:"err,omitempty"`
	// Time is the wall-clock write time (the journal is an OS-level
	// durability log, not an experiment measurement).
	Time time.Time `json:"time"`
}

// Replay is the state reconstructed from an existing journal: which runs
// finished durably and which have lifecycle records but no completion —
// those died mid-attempt (or after a failed final attempt) and must be
// re-executed after their partial level-2 state is discarded.
type Replay struct {
	// Records is the number of intact records replayed.
	Records int
	// Done marks runs with a run_done record.
	Done map[int]bool
	// Dangling marks runs whose last lifecycle record is a begin without
	// a matching end: the process died mid-attempt.
	Dangling map[int]bool
	// Ended marks runs that have attempt records but neither a dangling
	// attempt nor a run_done — e.g. a crash between the final attempt's
	// end record and the level-2 commit, or a run that failed all
	// attempts in the previous session.
	Ended map[int]bool
	// Attempts is the highest attempt number seen per run.
	Attempts map[int]int
	// Truncated reports that the journal's final line was cut off
	// mid-write (the crash interrupted an append); it was ignored, and
	// OpenJournal cut it off the file.
	Truncated bool
}

// InDoubt reports whether a run has lifecycle records but no durable
// completion: its on-disk state is untrustworthy and must be discarded
// before the run is re-executed.
func (rp Replay) InDoubt(run int) bool {
	if rp.Done[run] {
		return false
	}
	return rp.Dangling[run] || rp.Ended[run]
}

// Journal is the append-only, fsync'd write-ahead run journal of one
// experiment (journal.jsonl in the experiment directory). All methods are
// safe for concurrent use and nil-safe: calls on a nil *Journal are
// no-ops, so an unjournaled master carries no conditional wiring.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	seq    int64
	replay Replay
}

// JournalPath returns the journal location inside an experiment directory.
func JournalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// OpenJournal replays an existing journal (if any) and opens it for
// appending. A torn final line — the signature of a crash during an append
// — is tolerated and cut off, so the next record starts a line of its own;
// corruption anywhere else is an error.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := JournalPath(dir)
	data, err := os.ReadFile(path)
	fresh := os.IsNotExist(err)
	if err != nil && !fresh {
		return nil, err
	}
	rp, seq, end, err := replayJournal(path, data)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	switch {
	case fresh:
		// The new file's directory entry must be durable before the first
		// record's append returns.
		err = syncDir(dir)
	case rp.Truncated:
		if err = f.Truncate(end); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path, seq: seq, replay: rp}, nil
}

// replayJournal replays the journal's bytes. A record is its line and the
// newline ending it: a final line without one, or one that does not decode,
// is the torn tail of an append that never returned. end is the offset
// just past the last intact record.
func replayJournal(path string, data []byte) (rp Replay, seq, end int64, err error) {
	rp = Replay{
		Done:     map[int]bool{},
		Dangling: map[int]bool{},
		Ended:    map[int]bool{},
		Attempts: map[int]int{},
	}
	var pendingErr error
	for start := 0; start < len(data); {
		line, next := data[start:], len(data)
		nl := bytes.IndexByte(line, '\n')
		if nl >= 0 {
			line, next = line[:nl], start+nl+1
		}
		start = next
		if line = bytes.TrimSuffix(line, []byte{'\r'}); len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// A bad line followed by more data is real corruption, not a
			// torn tail.
			return rp, 0, 0, pendingErr
		}
		var rec JournalRecord
		err := json.Unmarshal(line, &rec)
		if err == nil && nl < 0 {
			err = errors.New("no end of line")
		}
		if err != nil {
			pendingErr = fmt.Errorf("store: journal %s: record %d: %w", path, rp.Records+1, err)
			continue
		}
		rp.Records++
		seq, end = rec.Seq, int64(next)
		switch rec.Type {
		case RecAttemptBegin:
			rp.Dangling[rec.Run] = true
			rp.Ended[rec.Run] = false
			if rec.Attempt > rp.Attempts[rec.Run] {
				rp.Attempts[rec.Run] = rec.Attempt
			}
		case RecAttemptEnd:
			rp.Dangling[rec.Run] = false
			rp.Ended[rec.Run] = true
			if rec.Attempt > rp.Attempts[rec.Run] {
				rp.Attempts[rec.Run] = rec.Attempt
			}
		case RecRunDone:
			rp.Done[rec.Run] = true
			rp.Dangling[rec.Run] = false
			rp.Ended[rec.Run] = false
		}
	}
	rp.Truncated = pendingErr != nil
	for run, d := range rp.Dangling {
		if !d {
			delete(rp.Dangling, run)
		}
	}
	for run, e := range rp.Ended {
		if !e {
			delete(rp.Ended, run)
		}
	}
	return rp, seq, end, nil
}

// Replay returns the state recovered when the journal was opened.
func (j *Journal) Replay() Replay {
	if j == nil {
		return Replay{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replay
}

// append writes one record and forces it to stable storage before
// returning: a crash after append returns can lose nothing.
func (j *Journal) append(rec JournalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec.Seq = j.seq
	//lint:ignore walltime journal wall metadata for operators; replay keys on Seq, never Time
	rec.Time = time.Now()
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	//lint:ignore mutexheldio the WAL serializes write+fsync under j.mu by design; record order is the contract
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	//lint:ignore mutexheldio fsync must complete before the next record is admitted
	return j.f.Sync()
}

// Begin journals the start of one run attempt.
func (j *Journal) Begin(run, attempt int, seed int64, treatment int) error {
	return j.append(JournalRecord{Type: RecAttemptBegin, Run: run,
		Attempt: attempt, Seed: seed, Treatment: treatment})
}

// End journals the outcome of one run attempt.
func (j *Journal) End(run, attempt int, outcome, errStr string) error {
	return j.append(JournalRecord{Type: RecAttemptEnd, Run: run,
		Attempt: attempt, Outcome: outcome, Err: errStr})
}

// Done journals that a run's measurements are durably committed.
func (j *Journal) Done(run int) error {
	return j.append(JournalRecord{Type: RecRunDone, Run: run})
}

// Records returns how many records this session appended plus those
// replayed at open.
func (j *Journal) Records() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return int(j.seq)
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
