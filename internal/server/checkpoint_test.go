package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
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
