package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"excovery/internal/store/fsio"
)

// ErrResumeRefused marks a resume attempt against a store whose manifest
// records a different experiment plan.
var ErrResumeRefused = errors.New("store: resume refused")

// PlanManifest pins a level-2 store to one experiment plan. It is written
// at experiment init and verified on resume, so a resumed session with a
// different description, seed or plan length fails loudly instead of
// silently mixing measurements of two plans in one store.
type PlanManifest struct {
	// DescriptionHash is the hex SHA-256 of the level-1 XML document.
	DescriptionHash string `json:"description_hash"`
	// Seed is the experiment seed the plan derives from.
	Seed int64 `json:"seed"`
	// PlanLen is the number of runs in the generated plan.
	PlanLen int `json:"plan_len"`
	// PlatformSeed is the effective seed of the emulated platform
	// (network and clock randomness), when one exists: a resumed session
	// with a different platform seed would mix measurements taken under
	// different network conditions. Zero means "no platform" (e.g. a
	// distributed master, whose platform lives on the node host) and is
	// not verified.
	PlatformSeed int64 `json:"platform_seed,omitempty"`
	// Flags records informative execution settings (not verified).
	Flags map[string]string `json:"flags,omitempty"`
}

// HashDescription returns the manifest hash of a level-1 document.
func HashDescription(xml string) string {
	sum := sha256.Sum256([]byte(xml))
	return hex.EncodeToString(sum[:])
}

func (rs *RunStore) manifestPath() string {
	return filepath.Join(rs.Dir, "manifest.json")
}

// WriteManifest persists the plan manifest atomically (temp + rename +
// directory fsync).
func (rs *RunStore) WriteManifest(m PlanManifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(rs.manifestPath(), append(b, '\n'))
}

// ReadManifest loads the plan manifest; ok is false when none exists.
func (rs *RunStore) ReadManifest() (m PlanManifest, ok bool, err error) {
	b, err := os.ReadFile(rs.manifestPath())
	if os.IsNotExist(err) {
		return m, false, nil
	}
	if err != nil {
		return m, false, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, false, fmt.Errorf("store: manifest: %w", err)
	}
	return m, true, nil
}

// VerifyManifest checks a resumed store against the current plan. A store
// without a manifest (pre-journal sessions) verifies trivially.
func (rs *RunStore) VerifyManifest(want PlanManifest) error {
	have, ok, err := rs.ReadManifest()
	if err != nil || !ok {
		return err
	}
	if have.DescriptionHash != want.DescriptionHash {
		return fmt.Errorf("%w: description changed (manifest %.12s…, now %.12s…)",
			ErrResumeRefused, have.DescriptionHash, want.DescriptionHash)
	}
	if have.Seed != want.Seed {
		return fmt.Errorf("%w: seed changed (manifest %d, now %d)", ErrResumeRefused, have.Seed, want.Seed)
	}
	if have.PlanLen != want.PlanLen {
		return fmt.Errorf("%w: plan length changed (manifest %d, now %d)", ErrResumeRefused, have.PlanLen, want.PlanLen)
	}
	if have.PlatformSeed != 0 && want.PlatformSeed != 0 && have.PlatformSeed != want.PlatformSeed {
		return fmt.Errorf("%w: platform seed changed (manifest %d, now %d)",
			ErrResumeRefused, have.PlatformSeed, want.PlatformSeed)
	}
	return nil
}

// StagedRun collects one run's harvest in a staging directory and commits
// it into the level-2 hierarchy with a single rename, so a crash anywhere
// during harvest leaves either the previous state or nothing — never a
// half-written run directory that conditioning could ingest. A done
// marker written into the staged run rides in the same rename.
type StagedRun struct {
	rs    *RunStore
	run   int
	tmp   *RunStore
	start time.Time // for Obs: zero when uninstrumented
	done  bool
}

// stagedTree is what a staging store wrote below its run directory root,
// the staging directory runs/.staging-<run>: the directories it made, root
// first and every directory after its parent, and the bytes of its files,
// each fsynced as it was closed. Writers of distinct files of the run may
// use it concurrently.
type stagedTree struct {
	run   int
	root  string
	mu    sync.Mutex
	dirs  []string // guarded by mu
	bytes atomic.Int64
}

// mkdir makes dir and the missing directories above it, up to the run
// directory, with one os.Mkdir each, and records them.
func (t *stagedTree) mkdir(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slices.Contains(t.dirs, dir) {
		return nil
	}
	if !strings.HasPrefix(dir, t.root+string(filepath.Separator)) {
		return fmt.Errorf("store: %s is outside the staged run directory %s", dir, t.root)
	}
	var missing []string // deepest first
	for d := dir; !slices.Contains(t.dirs, d); d = filepath.Dir(d) {
		missing = append(missing, d)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		//lint:ignore mutexheldio the lock is the staged run's own: a writer that needs a directory another is making waits for it
		if err := os.Mkdir(missing[i], 0o755); err != nil {
			return err
		}
		t.dirs = append(t.dirs, missing[i])
	}
	return nil
}

// StageRun opens a staging area for one run's harvest: the directory
// runs/.staging-<run>, which Commit renames to runs/<run>. A leftover
// staging directory of an earlier crashed harvest for the same run is
// discarded. The staging store takes writes for this run only.
func (rs *RunStore) StageRun(run int) (*StagedRun, error) {
	start := rs.Obs.writeStart()
	dir := rs.stagingDir(run)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	err := os.Mkdir(dir, 0o755)
	if os.IsNotExist(err) { // the store's first run: no runs/ yet
		if err = os.MkdirAll(filepath.Dir(dir), 0o755); err == nil {
			err = os.Mkdir(dir, 0o755)
		}
	}
	if err != nil {
		return nil, err
	}
	tmp := &RunStore{Dir: rs.Dir, Obs: rs.Obs, staged: &stagedTree{run: run, root: dir, dirs: []string{dir}}}
	return &StagedRun{rs: rs, run: run, tmp: tmp, start: start}, nil
}

// stagingDir is where StageRun stages run; its name is no run id, so Runs
// does not list it.
func (rs *RunStore) stagingDir(run int) string {
	return filepath.Join(rs.Dir, "runs", ".staging-"+strconv.Itoa(run))
}

// Store returns the staging store; write the run's measurements through it
// with the normal RunStore API. Writes to distinct files may run
// concurrently.
func (sr *StagedRun) Store() *RunStore { return sr.tmp }

// Commit renames the staged run into place, superseding any partial
// directory a previous attempt (or crashed session) left behind. It must
// not run concurrently with a write to the staging store. Every file was
// fsynced when it was written; Commit fsyncs the directories, up to
// GOMAXPROCS at a time (deepest first with one), and every fsync has
// returned before the rename. After the rename it fsyncs the level-2 runs
// directory.
func (sr *StagedRun) Commit() error {
	if sr.done {
		return nil
	}
	t := sr.tmp.staged
	deepestFirst := slices.Clone(t.dirs)
	slices.Reverse(deepestFirst)
	if err := fsio.SyncDirs(deepestFirst); err != nil {
		return err
	}
	dst := filepath.Join(sr.rs.Dir, "runs", strconv.Itoa(sr.run))
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.Rename(t.root, dst); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(dst)); err != nil {
		return err
	}
	sr.done = true
	sr.rs.Obs.wrote("commit_run", sr.start, t.bytes.Load())
	return nil
}

// Abort discards the staged harvest. It must not run concurrently with a
// write to the staging store.
func (sr *StagedRun) Abort() {
	if !sr.done {
		os.RemoveAll(sr.tmp.staged.root)
		sr.done = true
	}
}

// DiscardRun removes a run's level-2 directory (and any staging leftovers)
// unless the run is marked done: resume calls it for runs the journal
// proves died mid-attempt, so conditioning can never ingest their partial
// state.
func (rs *RunStore) DiscardRun(run int) error {
	if rs.RunDone(run) {
		return fmt.Errorf("store: refusing to discard completed run %d", run)
	}
	// A leftover staging directory holds the run directory itself, or, as
	// stores of earlier versions staged it, runs/<run> below it.
	if err := os.RemoveAll(rs.stagingDir(run)); err != nil {
		return err
	}
	dir := filepath.Join(rs.Dir, "runs", strconv.Itoa(run))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return syncDir(filepath.Dir(dir))
}

// atomicWriteFile writes data to a sibling temp file, fsyncs it and
// renames it over path (fsio.WriteFileAtomic, the shared staged-write
// helper), creating the containing directory first.
func atomicWriteFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return fsio.WriteFileAtomic(path, data)
}

// syncDir fsyncs a directory so a preceding rename/create in it is
// durable.
func syncDir(dir string) error {
	return fsio.SyncDir(dir)
}
