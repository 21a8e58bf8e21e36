package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// scratchPrefix names the per-process directory that holds level-2 stores
// and level-3 files while an invocation runs.
const scratchPrefix = "excovery-bench-"

// scratchNeed is the free space the scratch directory's file system must
// have: durable-campaign's level-2 store is the largest thing written, well
// under 1 GiB at the committed sizes.
const scratchNeed = 2 << 30

// scratchBase picks where the scratch directory lives: /dev/shm when it is
// a writable directory with room, else the output directory. On a disk every commit
// waits for its fsyncs, and that wait swings by tens of per cent from run
// to run (bench/README.md, sizing notes); on tmpfs the same path costs
// what the code costs.
func scratchBase(outDir string) string {
	const shm = "/dev/shm"
	var fs syscall.Statfs_t
	if err := syscall.Statfs(shm, &fs); err != nil || fs.Bavail*uint64(fs.Bsize) < scratchNeed {
		return outDir
	}
	probe, err := os.MkdirTemp(shm, scratchPrefix+"probe-")
	if err != nil {
		return outDir
	}
	os.Remove(probe)
	return shm
}

// newScratch creates this process's scratch directory. Directories a dead
// process left behind are removed first — leftover stores in tmpfs alone
// halve durable-campaign's rate — and one that belongs to a live process
// is reported: two benchmarks at once do not measure either.
func newScratch(base string, warn func(string)) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	ents, err := os.ReadDir(base)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		rest, ok := strings.CutPrefix(e.Name(), scratchPrefix)
		if !ok || !e.IsDir() {
			continue
		}
		pid, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		if alive(pid) {
			warn(fmt.Sprintf("scratch directory %s belongs to live process %d: another benchmark is running and will disturb this one",
				filepath.Join(base, e.Name()), pid))
			continue
		}
		if err := os.RemoveAll(filepath.Join(base, e.Name())); err != nil {
			return "", fmt.Errorf("remove stale scratch directory: %w", err)
		}
	}
	dir := filepath.Join(base, scratchPrefix+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// alive reports whether a process with this id exists.
func alive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}
