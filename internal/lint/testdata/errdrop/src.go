// Fixture for the errdrop analyzer, loaded under the import path
// "excovery/internal/store" so the mini Journal carries the qualified
// name the analyzer keys on. Hits: discarded Sync, discarded and deferred
// Close on a write-opened file, discarded Journal appends and RunStore
// writes, blank-error assignments, and a discard followed by a return of
// a call that may succeed. Misses: checked errors, read-side closes, and
// cleanup discards on a path that already returns an error.
package store

import (
	"errors"
	"fmt"
	"os"
)

// Journal stands in for the store's write-ahead journal.
type Journal struct{}

func (j *Journal) Begin(run int) error { return nil }
func (j *Journal) Done(run int) error  { return nil }
func (j *Journal) Close() error        { return nil }

func dropSync(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	f.Sync()     // want errdrop
	_ = f.Sync() // want errdrop
	f.Close()    // want errdrop
}

func deferredClose(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // want errdrop
	_, err = f.WriteString("x")
	return err
}

func journalDrop(j *Journal) {
	j.Begin(1)    // want errdrop
	_ = j.Done(1) // want errdrop
	j.Close()     // want errdrop
}

// RunStore stands in for the level-2 store.
type RunStore struct{}

func (rs *RunStore) WritePackets(run int, node string) error { return nil }
func (rs *RunStore) WriteRunInfo(run int) error              { return nil }
func (rs *RunStore) MarkRunDone(run int) error               { return nil }
func (rs *RunStore) RunDone(run int) bool                    { return false }

func harvestDrop(rs *RunStore) {
	rs.WritePackets(1, "a") // want errdrop
	rs.WriteRunInfo(1)      // want errdrop
	_ = rs.MarkRunDone(1)   // want errdrop
	rs.RunDone(1)           // no finding: not a write
}

func harvestOK(rs *RunStore) error {
	if err := rs.WritePackets(1, "a"); err != nil {
		return err
	}
	return rs.MarkRunDone(1)
}

func checkedOK(path string, j *Journal) error {
	if err := j.Begin(1); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() // no finding: this path already returns an error
		return err
	}
	return f.Close()
}

// syncDir stands in for fsio.SyncDir: nil on success.
func syncDir(dir string) error { return nil }

// closeThenSync returns a call's result after the discard, but that call
// returns nil on success: the success path dropped the Close error.
func closeThenSync(path, dir string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	f.Close() // want errdrop
	return syncDir(dir)
}

// builtErrorsOK returns freshly built errors after each discard: those
// paths fail already.
func builtErrorsOK(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if len(path) > 3 {
		f.Close() // no finding: this path returns fmt.Errorf
		return fmt.Errorf("path %s too long", path)
	}
	if len(path) > 2 {
		f.Close() // no finding: this path returns errors.New
		return errors.New("path too long")
	}
	if len(path) > 1 {
		f.Close() // no finding: this path returns errors.Join
		return errors.Join(err, errors.New("path too long"))
	}
	return f.Close()
}

func readSideOK(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// Read-side close: the kernel cannot owe us a delayed write here.
	defer f.Close()
	buf := make([]byte, 8)
	_, err = f.Read(buf)
	return err
}

func suppressedDrop(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	//lint:ignore errdrop demo: scratch file, durability irrelevant
	f.Sync()
	//lint:ignore errdrop demo: scratch file, durability irrelevant
	f.Close()
}
