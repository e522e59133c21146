// Package durabletest provides a durable.FS that injects disk faults, for
// the failure-path tests of the packages that write through package
// durable.
package durabletest

import (
	"os"
	"sync"
	"syscall"

	"github.com/pacsim/pac/internal/durable"
)

// Fault is one kind of disk failure.
type Fault int

const (
	// ENOSPC: opening a file with O_CREATE fails with ENOSPC.
	ENOSPC Fault = iota
	// ShortWrite: a write stores the first half of its bytes and
	// reports no error, which breaks io.Writer's contract as a faulty
	// driver might.
	ShortWrite
	// SyncError: an fsync fails with EIO.
	SyncError
	// RenameError: a rename fails with EIO.
	RenameError
)

// Faults lists every Fault, for tests that cover each.
var Faults = []Fault{ENOSPC, ShortWrite, SyncError, RenameError}

func (f Fault) String() string {
	return [...]string{"ENOSPC", "ShortWrite", "SyncError", "RenameError"}[f]
}

// FS is durable.OS with armed faults: each armed fault makes the next
// operation of its kind fail, once. It is safe for concurrent use.
type FS struct {
	mu    sync.Mutex
	armed map[Fault]bool
	fired int
}

// New returns an FS with no fault armed.
func New() *FS { return &FS{armed: make(map[Fault]bool)} }

// Arm makes the next operation of f's kind fail.
func (fs *FS) Arm(f Fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.armed[f] = true
}

// Fired returns how many armed faults have fired.
func (fs *FS) Fired() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.fired
}

// take reports whether f is armed, disarming it.
func (fs *FS) take(f Fault) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.armed[f] {
		return false
	}
	delete(fs.armed, f)
	fs.fired++
	return true
}

func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	if flag&os.O_CREATE != 0 && fs.take(ENOSPC) {
		return nil, &os.PathError{Op: "open", Path: name, Err: syscall.ENOSPC}
	}
	f, err := durable.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: fs, name: name}, nil
}

func (fs *FS) Rename(oldpath, newpath string) error {
	if fs.take(RenameError) {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
	}
	return durable.OS.Rename(oldpath, newpath)
}

type file struct {
	durable.File
	fs   *FS
	name string
}

func (f *file) Write(p []byte) (int, error) {
	if len(p) > 1 && f.fs.take(ShortWrite) {
		return f.File.Write(p[:len(p)/2])
	}
	return f.File.Write(p)
}

func (f *file) Sync() error {
	if f.fs.take(SyncError) {
		return &os.PathError{Op: "sync", Path: f.name, Err: syscall.EIO}
	}
	return f.File.Sync()
}
