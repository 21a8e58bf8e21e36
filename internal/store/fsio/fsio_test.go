package fsio

import (
	"errors"
	"io"
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
