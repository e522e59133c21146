package server

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/durable/durabletest"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/telemetry"
)

// testCheckpoints returns n distinct checkpoints of one small machine,
// told apart by Now (1..n). The store never resumes them, so only the
// cycle stamp differs.
func testCheckpoints(t *testing.T, n int) []*sim.Checkpoint {
	t.Helper()
	cfg := sim.DefaultConfig("STREAM", coalesce.ModePAC)
	cfg.AccessesPerCore = 50
	cfg.Scale = 0.02
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := r.Checkpoint()
	out := make([]*sim.Checkpoint, n)
	for i := range out {
		ck := *base
		ck.Now = int64(i + 1)
		out[i] = &ck
	}
	return out
}

// nowOf describes a loaded checkpoint by its cycle.
func nowOf(ck *sim.Checkpoint) string {
	if ck == nil {
		return "none"
	}
	return fmt.Sprintf("cycle %d", ck.Now)
}

// holdWriter waits for the store's writer to go idle and keeps a new
// one from starting, so records pile up unstarted; the returned func
// starts the writer on them.
func holdWriter(cs *checkpointStore) (release func()) {
	cs.mu.Lock()
	for cs.writing {
		cs.idle.Wait()
	}
	cs.writing = true
	cs.mu.Unlock()
	return func() { go cs.write() }
}

// TestCheckpointWriterLatestWins: of three snapshots saved for one key
// before the writer starts, only the newest is encoded; the two it
// replaced count as superseded.
func TestCheckpointWriterLatestWins(t *testing.T) {
	reg := telemetry.NewRegistry()
	cs := newCheckpointStore(t.TempDir(), reg)
	cks := testCheckpoints(t, 3)
	release := holdWriter(cs)
	for _, ck := range cks {
		cs.save("k1", ck)
	}
	release()
	cs.wait()
	if n, _ := reg.Value("pac_checkpoint_writes_total"); n != 1 {
		t.Errorf("pac_checkpoint_writes_total = %v, want 1", n)
	}
	if n, _ := reg.Value("pac_checkpoint_superseded_total"); n != 2 {
		t.Errorf("pac_checkpoint_superseded_total = %v, want 2", n)
	}
	if ck := cs.load("k1"); ck == nil || ck.Now != 3 {
		t.Errorf("stored checkpoint = %v, want the newest (cycle 3)", nowOf(ck))
	}
}

// TestCheckpointDropSupersedesUnstartedSave: a cell that finishes before
// the writer reaches its checkpoint leaves no file, and the snapshot is
// never encoded.
func TestCheckpointDropSupersedesUnstartedSave(t *testing.T) {
	reg := telemetry.NewRegistry()
	cs := newCheckpointStore(t.TempDir(), reg)
	release := holdWriter(cs)
	cs.save("k1", testCheckpoints(t, 1)[0])
	cs.drop("k1")
	release()
	cs.wait()
	if _, err := os.Stat(cs.path("k1")); !os.IsNotExist(err) {
		t.Errorf("checkpoint file after drop: %v, want none", err)
	}
	if n, _ := reg.Value("pac_checkpoint_superseded_total"); n != 1 {
		t.Errorf("pac_checkpoint_superseded_total = %v, want 1", n)
	}
	if n, _ := reg.Value("pac_checkpoint_writes_total"); n != 0 {
		t.Errorf("pac_checkpoint_writes_total = %v, want 0", n)
	}
}

// TestCheckpointLoadSeesNewestSave: load waits for the key's pending or
// in-flight record, so it returns the newest snapshot saved before it,
// however far behind the writer is.
func TestCheckpointLoadSeesNewestSave(t *testing.T) {
	cs := newCheckpointStore(t.TempDir(), telemetry.NewRegistry())
	cks := testCheckpoints(t, 8)
	for i, ck := range cks {
		cs.save("k1", ck)
		cs.save("k2", ck)
		if got := cs.load("k1"); got == nil || got.Now != int64(i+1) {
			t.Fatalf("load after save %d = %v, want cycle %d", i+1, nowOf(got), i+1)
		}
	}
	if got := cs.load("k2"); got == nil || got.Now != int64(len(cks)) {
		t.Errorf("load(k2) = %v, want cycle %d", nowOf(got), len(cks))
	}
	cs.drop("k1")
	if got := cs.load("k1"); got != nil {
		t.Errorf("load after drop = %v, want none", nowOf(got))
	}
	cs.wait()
}

// TestCheckpointDrainKeepsCancelledJobSnapshot: a job cancelled mid-run
// keeps its latest checkpoint, and Drain returns only once that
// snapshot is on disk. The writer is held while the job runs, so the
// last snapshot the simulation emitted is still unwritten when the job
// ends; Drain must wait for it.
func TestCheckpointDrainKeepsCancelledJobSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.CheckpointDir = t.TempDir()
		c.CheckpointEvery = 3000
	})
	cs := srv.ckpts
	release := holdWriter(cs)
	code, _, job := do(t, srv.Handler(), "POST", "/v1/simulate",
		SimulateRequest{Benchmark: "STREAM", Mode: "pac", AccessesPerCore: 60000})
	if code != http.StatusAccepted {
		t.Fatalf("async simulate = %d %v", code, job)
	}
	id := job["id"].(string)
	pendingKey := func() string {
		cs.mu.Lock()
		defer cs.mu.Unlock()
		for k := range cs.pending {
			return k
		}
		return ""
	}
	deadline := time.Now().Add(30 * time.Second)
	for pendingKey() == "" {
		if j, ok := srv.jobs.get(id); ok && j.Status().terminal() {
			t.Fatal("job finished before its first checkpoint")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint emitted within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	do(t, srv.Handler(), "DELETE", "/v1/jobs/"+id, nil)
	j, _ := srv.jobs.get(id)
	<-j.Done()
	if st := j.Status(); st != StatusCancelled {
		t.Fatalf("job ended %s, want cancelled", st)
	}
	// The simulation notices the cancellation at its next context poll
	// and emits nothing after it reports the abort.
	for {
		if n, _ := reg.Value(telemetry.MetricSimsCancelled); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("simulation not cancelled within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	key := pendingKey()
	cs.mu.Lock()
	last := cs.pending[key]
	cs.mu.Unlock()
	if last == nil {
		t.Fatalf("no snapshot pending for %s after cancellation", key)
	}

	release()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cs.mu.Lock()
	idle := !cs.writing && len(cs.pending) == 0
	cs.mu.Unlock()
	if !idle {
		t.Error("Drain returned with checkpoint records unwritten")
	}
	// A fresh store over the same directory, as the next boot opens it.
	ck := newCheckpointStore(cs.dir, telemetry.NewRegistry()).load(key)
	if ck == nil {
		t.Fatal("no checkpoint on disk after Drain")
	}
	if ck.Now != last.Now {
		t.Errorf("checkpoint on disk after Drain is from cycle %d, want the last snapshot's %d", ck.Now, last.Now)
	}
}

// TestDrainLeavesCheckpointDirQuiet: once Drain returns, the checkpoint
// directory no longer changes, not even while a cancelled job's detached
// simulation runs on to its next context poll. The directory is compared
// before and after that simulation reports its cancellation, and again
// after a save and a drop reach the store past Drain, as such a
// simulation's sink would send them.
func TestDrainLeavesCheckpointDirQuiet(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	srv := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.CheckpointDir = dir
		c.CheckpointEvery = 500
	})
	code, _, job := do(t, srv.Handler(), "POST", "/v1/simulate",
		SimulateRequest{Benchmark: "STREAM", Mode: "pac", AccessesPerCore: 200000})
	if code != http.StatusAccepted {
		t.Fatalf("async simulate = %d %v", code, job)
	}
	id := job["id"].(string)
	j, _ := srv.jobs.get(id)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if n, _ := reg.Value("pac_checkpoint_writes_total"); n >= 1 {
			break
		}
		if j.Status().terminal() {
			t.Fatal("job finished before its first checkpoint was written")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	do(t, srv.Handler(), "DELETE", "/v1/jobs/"+id, nil)
	<-j.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)
	if len(before) != 1 {
		t.Fatalf("checkpoint directory after Drain holds %v, want one checkpoint", before)
	}
	for {
		if n, _ := reg.Value(telemetry.MetricSimsCancelled); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("simulation not cancelled within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.ckpts.wait()
	if after := dirState(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("checkpoint directory changed after Drain while the simulation stopped:\nbefore %v\nafter  %v", before, after)
	}

	var key string
	for name := range before {
		key = name[:len(name)-len(".ck")]
	}
	srv.ckpts.save(key, testCheckpoints(t, 1)[0])
	srv.ckpts.drop(key)
	srv.ckpts.wait()
	if after := dirState(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("checkpoint directory changed by a save and a drop after Drain:\nbefore %v\nafter  %v", before, after)
	}
}

// dirState describes every file in dir by name, size, modification time
// and content digest.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%d bytes %s sha256:%x", info.Size(), info.ModTime().Format(time.RFC3339Nano), sha256.Sum256(blob))
	}
	return out
}

// TestCheckpointWriterConcurrentKeys drives one store from several
// simulation goroutines at once, each saving a run of snapshots for its
// own key and then either dropping it (a finished cell) or keeping it
// (a cancelled one). Once the writer is idle, every kept key holds its
// newest snapshot and every dropped key has no file.
func TestCheckpointWriterConcurrentKeys(t *testing.T) {
	reg := telemetry.NewRegistry()
	cs := newCheckpointStore(t.TempDir(), reg)
	cks := testCheckpoints(t, 16)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", w)
			for _, ck := range cks {
				cs.save(key, ck)
			}
			if w%2 == 0 {
				cs.drop(key)
			}
		}(w)
	}
	wg.Wait()
	cs.wait()
	for w := 0; w < workers; w++ {
		key := fmt.Sprintf("k%d", w)
		got := cs.load(key)
		switch {
		case w%2 == 0 && got != nil:
			t.Errorf("%s: dropped key loads %v", key, nowOf(got))
		case w%2 == 1 && (got == nil || got.Now != int64(len(cks))):
			t.Errorf("%s: kept key loads %v, want cycle %d", key, nowOf(got), len(cks))
		}
	}
	writes, _ := reg.Value("pac_checkpoint_writes_total")
	superseded, _ := reg.Value("pac_checkpoint_superseded_total")
	if n := writes + superseded; n != workers*float64(len(cks)) {
		t.Errorf("writes %v + superseded %v = %v, want one per save (%d)",
			writes, superseded, n, workers*len(cks))
	}
}

// TestCheckpointCommitFaults: a checkpoint write that fails at create
// (ENOSPC), with a short write, at fsync or at rename is counted in
// pac_checkpoint_write_failures_total, leaves no staged file, and the
// key's previous checkpoint still loads. The writer keeps going.
func TestCheckpointCommitFaults(t *testing.T) {
	for _, fault := range durabletest.Faults {
		t.Run(fault.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			cs := newCheckpointStore(dir, reg)
			cks := testCheckpoints(t, 3)
			cs.save("k1", cks[0])
			cs.wait()
			fsys := durabletest.New()
			cs.fs = fsys
			fsys.Arm(fault)
			cs.save("k1", cks[1])
			cs.wait()
			if n, _ := reg.Value("pac_checkpoint_write_failures_total"); n != 1 {
				t.Errorf("pac_checkpoint_write_failures_total = %v, want 1", n)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
				t.Errorf("staged files left: %v", left)
			}
			if ck := newCheckpointStore(dir, telemetry.NewRegistry()).load("k1"); ck == nil || ck.Now != 1 {
				t.Errorf("after the failed write k1 loads %v, want the previous checkpoint (cycle 1)", nowOf(ck))
			}
			cs.save("k1", cks[2])
			if ck := cs.load("k1"); ck == nil || ck.Now != 3 {
				t.Errorf("write after the fault: k1 loads %v, want cycle 3", nowOf(ck))
			}
			cs.close()
		})
	}
}

// TestCheckpointStoreSweepsTemps: a write a crash cut short leaves a
// staged file; the next checkpoint store on the directory removes it and
// keeps the committed checkpoints.
func TestCheckpointStoreSweepsTemps(t *testing.T) {
	dir := t.TempDir()
	cs := newCheckpointStore(dir, telemetry.NewRegistry())
	cs.save("k1", testCheckpoints(t, 1)[0])
	cs.close()
	staged := filepath.Join(dir, ".tmp-k2.ck-1")
	if err := os.WriteFile(staged, []byte("PACCKPT1 partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	cs = newCheckpointStore(dir, telemetry.NewRegistry())
	if _, err := os.Stat(staged); !os.IsNotExist(err) {
		t.Errorf("staged file not swept: %v", err)
	}
	if ck := cs.load("k1"); ck == nil {
		t.Error("committed checkpoint lost by the sweep")
	}
}
