package fsio

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Overwrite must replace the content and leave no temp files behind.
	if err := WriteFileAtomic(path, []byte("v2-longer")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "v2-longer" {
		t.Fatalf("read back: %q, %v", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "f.bin" {
		t.Fatalf("leftover files in %s: %v", dir, entries)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	// The contract requires the containing directory to exist: callers
	// (store.atomicWriteFile) decide whether to create it.
	path := filepath.Join(t.TempDir(), "missing", "f.bin")
	if err := WriteFileAtomic(path, []byte("x")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

// TestWriteAtomicFailureLeavesNothing: when the writer function fails —
// with an error of its own, or having written only part of what it meant
// to — no temp file stays and the target keeps its previous content.
func TestWriteAtomicFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	if err := WriteFileAtomic(path, []byte("previous")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for name, write := range map[string]func(io.Writer) error{
		"error before any byte": func(io.Writer) error { return boom },
		"short write": func(w io.Writer) error {
			if _, err := w.Write([]byte("half of the new cont")); err != nil {
				return err
			}
			return io.ErrShortWrite
		},
	} {
		if err := WriteAtomic(path, write); err == nil {
			t.Fatalf("%s: no error", name)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != "previous" {
			t.Errorf("%s: target is %q, %v; want the previous content", name, b, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Errorf("%s: left behind %v", name, entries)
		}
	}
	// With no previous file, a failed write leaves no target at all.
	fresh := filepath.Join(dir, "fresh.bin")
	if err := WriteAtomic(fresh, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("partial target exists: %v", err)
	}
}

// TestOpenFileMatchesOS: OpenFile creates, appends and truncates as
// os.OpenFile does, with the same mode under the umask, and fails with the
// same kind of error; so does SyncDir on a missing directory.
func TestOpenFileMatchesOS(t *testing.T) {
	type opener func(string, int, fs.FileMode) (*os.File, error)
	write := func(open opener, path string, flag int, data string) {
		t.Helper()
		f, err := open(path, flag|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	for _, o := range []struct {
		name string
		open opener
	}{{"os", os.OpenFile}, {"fsio", OpenFile}} {
		appended := filepath.Join(dir, o.name+".append")
		write(o.open, appended, os.O_APPEND, "one\n")
		write(o.open, appended, os.O_APPEND, "two\n")
		truncated := filepath.Join(dir, o.name+".trunc")
		write(o.open, truncated, os.O_TRUNC, "a longer first content\n")
		write(o.open, truncated, os.O_TRUNC, "short\n")
		for path, want := range map[string]string{appended: "one\ntwo\n", truncated: "short\n"} {
			if b, err := os.ReadFile(path); err != nil || string(b) != want {
				t.Errorf("%s: %q, %v; want %q", path, b, err, want)
			}
		}
	}
	for _, name := range []string{".append", ".trunc"} {
		viaOS, err := os.Stat(filepath.Join(dir, "os"+name))
		if err != nil {
			t.Fatal(err)
		}
		viaFsio, err := os.Stat(filepath.Join(dir, "fsio"+name))
		if err != nil {
			t.Fatal(err)
		}
		if viaOS.Mode() != viaFsio.Mode() {
			t.Errorf("%s: mode %v through fsio, %v through os", name, viaFsio.Mode(), viaOS.Mode())
		}
	}

	missing := filepath.Join(dir, "missing", "f")
	_, osErr := os.OpenFile(missing, os.O_WRONLY, 0)
	_, err := OpenFile(missing, os.O_WRONLY, 0)
	var pe *fs.PathError
	if !errors.As(err, &pe) || pe.Op != "open" || pe.Path != missing || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("OpenFile of a missing file: %#v", err)
	}
	if err.Error() != osErr.Error() {
		t.Errorf("OpenFile error %q, os.OpenFile error %q", err, osErr)
	}
	err = SyncDir(filepath.Dir(missing))
	if !errors.As(err, &pe) || pe.Op != "open" || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("SyncDir of a missing directory: %#v", err)
	}
}

// TestSyncDirsReturnsLowestError: of two directories that cannot be
// synced, SyncDirs reports the one of the lower index.
func TestSyncDirsReturnsLowestError(t *testing.T) {
	root := t.TempDir()
	var dirs []string
	for i := 0; i < 9; i++ {
		dir := filepath.Join(root, string(rune('a'+i)))
		if i != 4 && i != 7 {
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		dirs = append(dirs, dir)
	}
	if err := SyncDirs(dirs[:4]); err != nil {
		t.Fatalf("SyncDirs: %v", err)
	}
	var pe *fs.PathError
	if err := SyncDirs(dirs); !errors.As(err, &pe) || pe.Path != dirs[4] {
		t.Fatalf("SyncDirs error %v, want the one of %s", err, dirs[4])
	}
	if err := SyncDirs(nil); err != nil {
		t.Fatalf("SyncDirs(nil): %v", err)
	}
}
