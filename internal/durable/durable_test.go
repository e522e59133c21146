package durable_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/durable"
	"github.com/pacsim/pac/internal/durable/durabletest"
)

// temps lists the staged files left in dir.
func temps(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestWriteFileFaults: a write that fails at create, write, fsync or
// rename returns an error, leaves the target as it was and removes its
// staged file.
func TestWriteFileFaults(t *testing.T) {
	for _, fault := range durabletest.Faults {
		t.Run(fault.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			if err := durable.WriteFile(durable.OS, path, []byte("old")); err != nil {
				t.Fatal(err)
			}
			fsys := durabletest.New()
			fsys.Arm(fault)
			if err := durable.WriteFile(fsys, path, []byte("new contents")); err == nil {
				t.Fatal("WriteFile returned no error")
			}
			if fsys.Fired() != 1 {
				t.Fatalf("fault fired %d times, want 1", fsys.Fired())
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
				t.Errorf("target = %q, %v; want the old contents", got, err)
			}
			if left := temps(t, dir); len(left) != 0 {
				t.Errorf("staged files left: %v", left)
			}
			if err := durable.WriteFile(fsys, path, []byte("new")); err != nil {
				t.Fatalf("WriteFile after the fault: %v", err)
			}
			if got, _ := os.ReadFile(path); string(got) != "new" {
				t.Errorf("target = %q, want new", got)
			}
		})
	}
}

// TestSweepTemps: a sweep for one target removes only that target's
// staged files; a sweep for every target removes them all and nothing
// else.
func TestSweepTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".tmp-a-1", ".tmp-a-2", ".tmp-ab-3", ".tmp-b-4", "a", ".tmpx"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names := func() []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, de := range des {
			out = append(out, de.Name())
		}
		return out
	}
	durable.SweepTemps(dir, "a")
	if got := names(); len(got) != 4 || got[0] != ".tmp-ab-3" || got[1] != ".tmp-b-4" {
		t.Fatalf("after the sweep for a: %v", got)
	}
	durable.SweepTemps(dir, "")
	if got := names(); len(got) != 2 || got[0] != ".tmpx" || got[1] != "a" {
		t.Fatalf("after the sweep for all: %v", got)
	}
}

// TestSyncDirFault: a failed directory fsync is an error.
func TestSyncDirFault(t *testing.T) {
	fsys := durabletest.New()
	if err := durable.SyncDir(fsys, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	fsys.Arm(durabletest.SyncError)
	if err := durable.SyncDir(fsys, t.TempDir()); err == nil {
		t.Fatal("SyncDir returned no error")
	}
}

// timedFS is durable.OS with the time each operation takes summed by
// step: the staged file's create, write, fsync, close and rename.
type timedFS struct{ step map[string]time.Duration }

func (fs timedFS) time(step string, t0 time.Time) { fs.step[step] += time.Since(t0) }

func (fs timedFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	defer fs.time("create", time.Now())
	f, err := durable.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{f, fs}, nil
}

func (fs timedFS) Rename(oldpath, newpath string) error {
	defer fs.time("rename", time.Now())
	return durable.OS.Rename(oldpath, newpath)
}

type timedFile struct {
	durable.File
	fs timedFS
}

func (f timedFile) Write(p []byte) (int, error) {
	defer f.fs.time("write", time.Now())
	return f.File.Write(p)
}

func (f timedFile) Sync() error {
	defer f.fs.time("fsync", time.Now())
	return f.File.Sync()
}

func (f timedFile) Close() error {
	defer f.fs.time("close", time.Now())
	return f.File.Close()
}

// BenchmarkWriteFile sizes the crash model: one durable.WriteFile of a
// checkpoint-sized blob (21 KiB), then the unlink a checkpoint drop pays
// and the directory fsync the journal pays after a compaction. Each step
// is also reported alone, as <step>-us/op; the directory fsync's open
// and close count in its dirsync step. It measures the disk under
// os.TempDir; set TMPDIR to measure another.
func BenchmarkWriteFile(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "k.ck")
	blob := make([]byte, 21<<10)
	fs := timedFS{step: make(map[string]time.Duration)}
	var unlink, dirsync time.Duration
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := durable.WriteFile(fs, path, blob); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := durable.SyncDir(durable.OS, dir); err != nil {
			b.Fatal(err)
		}
		unlink += t1.Sub(t0)
		dirsync += time.Since(t1)
	}
	fs.step["unlink"] = unlink
	fs.step["dirsync"] = dirsync
	for step, d := range fs.step {
		b.ReportMetric(float64(d.Nanoseconds())/1e3/float64(b.N), step+"-us/op")
	}
}
