// Package testcase is the mutexheldio analyzer fixture.
package testcase

import (
	"net/http"
	"os"
	"sync"
	"time"
)

type journal struct {
	mu sync.Mutex
	rw sync.RWMutex
	f  *os.File
}

// WriteHeld performs file I/O inside an explicit Lock/Unlock pair.
func (j *journal) WriteHeld() error {
	j.mu.Lock()
	_, err := j.f.Write(nil) // want mutexheldio
	j.mu.Unlock()
	return err
}

// SleepUnderDefer shows defer j.mu.Unlock() holds to the end of the
// function: the sleep is still inside the critical section.
func (j *journal) SleepUnderDefer() {
	j.mu.Lock()
	defer j.mu.Unlock()
	time.Sleep(time.Millisecond) // want mutexheldio
}

// ReadLocked fires for RLock-held regions too.
func (j *journal) ReadLocked() ([]byte, error) {
	j.rw.RLock()
	b, err := os.ReadFile("x") // want mutexheldio
	j.rw.RUnlock()
	return b, err
}

// AfterUnlock is the sanctioned shape: release, then block.
func (j *journal) AfterUnlock() error {
	j.mu.Lock()
	j.mu.Unlock()
	return j.f.Sync()
}

// SpawnedGoroutine bodies are separate functions with fresh lock state:
// the request runs on another goroutine, outside the critical section.
func (j *journal) SpawnedGoroutine() {
	j.mu.Lock()
	go func() {
		http.Get("http://localhost/probe")
	}()
	j.mu.Unlock()
}

// Suppressed documents a deliberate write-under-lock.
func (j *journal) Suppressed() error {
	j.mu.Lock()
	//lint:ignore mutexheldio fixture exercising the suppression path
	err := j.f.Sync()
	j.mu.Unlock()
	return err
}

// GoUnderLock spawns blocking calls while holding the mutex: a go
// statement does not block the lock holder, so neither call is a finding.
func (j *journal) GoUnderLock() {
	j.mu.Lock()
	go time.Sleep(time.Millisecond)
	go os.Remove("x")
	j.mu.Unlock()
}
