// Package fsio is the single implementation of the store's staged-write
// durability contract (DESIGN.md §8): data reaches its final name only via
// write-to-temp → fsync(file) → rename → fsync(directory). Both the
// level-2 RunStore and the level-3 reldb persistence route through this
// package, so the contract lives in one place and the durablerename
// analyzer (internal/lint) can hold every other os.Rename in the store to
// it.
package fsio

import (
	"io"
	"os"
	"path/filepath"
)

// WriteAtomic hands write a sibling temp file, fsyncs what it wrote,
// renames the file over path and fsyncs the containing directory: after it
// returns, a crash leaves either the previous file or the new one — never
// a torn or unnamed write. When write fails, the temp file is removed and
// path is left as it was. The containing directory must exist.
func WriteAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// WriteFileAtomic is WriteAtomic for data already in memory.
func WriteFileAtomic(path string, data []byte) error {
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SyncDir fsyncs a directory so a preceding rename/create in it is
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
