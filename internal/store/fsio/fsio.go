// Package fsio is the single implementation of the store's staged-write
// durability contract (DESIGN.md §8): data reaches its final name only via
// write-to-temp → fsync(file) → rename → fsync(directory). Both the
// level-2 RunStore and the level-3 reldb persistence route through this
// package, so the contract lives in one place and the durablerename
// analyzer (internal/lint) can hold every other os.Rename in the store to
// it.
package fsio

import (
	"cmp"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
)

// WriteAtomic hands write a sibling temp file, fsyncs what it wrote,
// renames the file over path and fsyncs the containing directory: after it
// returns, a crash leaves either the previous file or the new one — never
// a torn or unnamed write. When write fails, the temp file is removed and
// path is left as it was. The containing directory must exist.
func WriteAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
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

// OpenFile is os.OpenFile for a regular file or a directory, opened in
// blocking mode and never registered with the runtime's network poller.
// os.OpenFile tries to register every file it opens, which Linux refuses
// for regular files and directories: it switches the descriptor to
// non-blocking mode, fails to add it to epoll and switches it back, four
// system calls more than os.NewFile makes for a blocking descriptor. Reads
// and writes block the calling thread either way. A failure is an
// *fs.PathError with Op "open", as os.OpenFile's.
func OpenFile(name string, flag int, perm fs.FileMode) (*os.File, error) {
	for {
		fd, err := syscall.Open(name, flag|syscall.O_CLOEXEC, uint32(perm.Perm()))
		if err == nil {
			return os.NewFile(uintptr(fd), name), nil
		}
		if err != syscall.EINTR {
			return nil, &fs.PathError{Op: "open", Path: name, Err: err}
		}
	}
}

// SyncDir fsyncs a directory so a preceding rename/create in it is
// durable.
func SyncDir(dir string) error {
	d, err := OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SyncDirs fsyncs every directory of dirs, up to GOMAXPROCS at a time (in
// order with one), and returns once every fsync has returned: the error of
// the lowest index, or nil.
func SyncDirs(dirs []string) error {
	errs := make([]error, len(dirs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(dirs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(dirs)); i = next.Add(1) - 1 {
				errs[i] = SyncDir(dirs[i])
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}
