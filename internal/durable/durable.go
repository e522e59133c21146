// Package durable is the one write path of pacd's result store,
// simulation checkpoints and job journal. DESIGN.md §13 "Crash model"
// states what each of them promises. Every call takes an FS, the seam
// that tests replace with one that injects faults (package durabletest).
package durable

import (
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// FS is the file system a durable write goes through.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
}

// File is what a durable write needs of an open file.
type File interface {
	io.WriteCloser
	Sync() error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

// OpenFile's File is a nil *os.File on error; callers check err first.
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// WriteFile atomically replaces path with data: it stages
// .tmp-<name>-<n> beside path, writes, fsyncs and closes it, and renames
// it onto path, the commit point. On any error path is left as it was
// and the staged file is removed. It does not fsync the directory.
func WriteFile(fsys FS, path string, data []byte) error {
	dir, name := filepath.Split(path)
	tmp := filepath.Join(dir, ".tmp-"+name+"-"+strconv.FormatUint(rand.Uint64(), 36))
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = Append(f, data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Append writes data to f and fsyncs it. A short write is an error.
func Append(f File, data []byte) error {
	n, err := f.Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = f.Sync()
	}
	return err
}

// SyncDir fsyncs the directory dir, so the renames into it survive
// power loss.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// SweepTemps removes the files WriteFile staged in dir, for target only
// unless target is "", that a crash left behind. It is best-effort: a
// staged file it misses only takes disk space.
func SweepTemps(dir, target string) {
	prefix := ".tmp-"
	if target != "" {
		prefix += target + "-"
	}
	entries, _ := os.ReadDir(dir)
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), prefix) {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}
