package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
)

// openTestWAL opens a journal under dir, closing it with the test.
func openTestWAL(t *testing.T, dir string, reg *telemetry.Registry) (*wal.Log, []wal.Job) {
	t.Helper()
	w, recovered, err := wal.Open(wal.Config{Path: filepath.Join(dir, "jobs.wal"), Registry: reg})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recovered
}

// TestWALCompletedJobNotReplayed: a job that reaches a terminal state
// leaves nothing to recover — reopening the journal yields no jobs.
func TestWALCompletedJobNotReplayed(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	w, recovered := openTestWAL(t, dir, reg)
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(recovered))
	}
	srv := newTestServer(t, func(c *Config) { c.Registry = reg; c.WAL = w })
	simulateOK(t, srv, SimulateRequest{Benchmark: "STREAM", Mode: "pac"})
	if w.Live() != 0 {
		t.Errorf("journal reports %d live jobs after completion", w.Live())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered2 := openTestWAL(t, dir, telemetry.NewRegistry())
	if len(recovered2) != 0 {
		t.Errorf("reopen recovered %d jobs, want 0", len(recovered2))
	}
}

// TestWALReplayReenqueuesUnfinished: a journaled job with no terminal
// record (the crash shape) is re-enqueued at boot under its original ID,
// flagged recovered, and runs to completion.
func TestWALReplayReenqueuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"benchmark":"STREAM","mode":"pac"}`)
	const id = "n1-j000007"

	w1, _ := openTestWAL(t, dir, telemetry.NewRegistry())
	if err := w1.Submit(id, "simulate", payload); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	w2, recovered := openTestWAL(t, dir, reg)
	if len(recovered) != 1 || recovered[0].ID != id {
		t.Fatalf("recovered = %+v, want one job %s", recovered, id)
	}
	srv := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.NodeID = "n1"
		c.WAL = w2
		c.Recovered = recovered
	})
	<-srv.Ready()
	job := waitForStatus(t, srv.Handler(), id, "")
	if job["status"] != string(StatusDone) {
		t.Fatalf("recovered job ended %v, error %v", job["status"], job["error"])
	}
	if job["recovered"] != true {
		t.Error("recovered job view missing recovered=true")
	}
	if n, _ := reg.Value("pac_jobs_recovered_total", "kind", "simulate"); n < 1 {
		t.Errorf("pac_jobs_recovered_total = %v, want >= 1", n)
	}
	if w2.Live() != 0 {
		t.Errorf("journal reports %d live jobs after replayed job finished", w2.Live())
	}
	// A post-recovery submission must not collide with the replayed ID.
	code, _, next := do(t, srv.Handler(), "POST", "/v1/simulate?wait=30s",
		SimulateRequest{Benchmark: "GS", Mode: "dmc"})
	if code != http.StatusOK {
		t.Fatalf("post-recovery simulate = %d %v", code, next)
	}
	if next["id"] == id {
		t.Errorf("post-recovery job reused recovered ID %s", id)
	}
}

// TestWALReplayStalePayload: a journaled payload that no longer resolves
// is marked failed in the journal at boot — never a crash, never a wedge.
func TestWALReplayStalePayload(t *testing.T) {
	dir := t.TempDir()
	w1, _ := openTestWAL(t, dir, telemetry.NewRegistry())
	for _, rec := range []struct{ id, kind, payload string }{
		{"j000001", "simulate", `{"benchmark":"NOPE"}`},
		{"j000002", "experiment", `{"id":"vanished"}`},
		{"j000003", "bogus-kind", `{}`},
	} {
		if err := w1.Submit(rec.id, rec.kind, []byte(rec.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	w2, recovered := openTestWAL(t, dir, reg)
	if len(recovered) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(recovered))
	}
	srv := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.WAL = w2
		c.Recovered = recovered
	})
	<-srv.Ready()
	total := 0.0
	for _, kind := range []string{"simulate", "experiment", "bogus-kind"} {
		n, _ := reg.Value("pac_jobs_recovery_failed_total", "kind", kind)
		total += n
	}
	if total != 3 {
		t.Errorf("pac_jobs_recovery_failed_total = %v, want 3", total)
	}
	if w2.Live() != 0 {
		t.Errorf("journal still reports %d live jobs", w2.Live())
	}
}

// TestReadyzLifecycle: /readyz is 503 while booting, 200 once boot
// completes, and 503 again once Drain begins — while /healthz (liveness)
// stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	// Booting: a hand-built server whose ready channel never closed.
	booting := &Server{ready: make(chan struct{})}
	rec := httptest.NewRecorder()
	booting.handleReadyz(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("booting readyz = %d (Retry-After %q), want 503 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}

	srv := newTestServer(t, nil)
	<-srv.Ready()
	code, _, body := do(t, srv.Handler(), "GET", "/readyz", nil)
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("ready readyz = %d %v", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, hdr, body := do(t, srv.Handler(), "GET", "/readyz", nil)
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("draining readyz = %d %v", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
	if code, _, _ := do(t, srv.Handler(), "GET", "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d during drain, want 200 (liveness is not readiness)", code)
	}
}

// TestSubscribeResume: event IDs are absolute and survive the retention
// trim, so Last-Event-ID resume replays exactly the missed lines.
func TestSubscribeResume(t *testing.T) {
	j := &Job{status: StatusRunning, done: make(chan struct{})}
	for i := 0; i < 5; i++ {
		j.addProgress(strings.Repeat("x", i+1))
	}
	ch, cancel := j.subscribe(3)
	defer cancel()
	var got []int
	for len(got) < 2 {
		ev := <-ch
		got = append(got, ev.ID)
	}
	if !reflect.DeepEqual(got, []int{4, 5}) {
		t.Errorf("resume after 3 replayed IDs %v, want [4 5]", got)
	}

	// Push past the retention cap: IDs keep counting, the oldest
	// retained line's ID is dropped+1.
	for i := 5; i < maxProgressLines+50; i++ {
		j.addProgress("line")
	}
	ch2, cancel2 := j.subscribe(0)
	defer cancel2()
	first := <-ch2
	j.mu.Lock()
	wantFirst := j.dropped + 1
	j.mu.Unlock()
	if first.ID != wantFirst {
		t.Errorf("first retained ID = %d, want %d", first.ID, wantFirst)
	}
}

// TestSSEResumeOverHTTP: the events endpoint honours Last-Event-ID and
// replays only the missed progress before the terminal done event.
func TestSSEResumeOverHTTP(t *testing.T) {
	srv := newTestServer(t, nil)
	block := make(chan struct{})
	j, err := srv.jobs.submit("chaos", nil, jobMeta{}, func(ctx context.Context) (any, error) {
		<-block
		return map[string]string{"ok": "yes"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"alpha", "beta", "gamma"} {
		j.addProgress(line)
	}
	close(block)
	<-j.Done()

	req := httptest.NewRequest("GET", "/v1/jobs/"+j.ID()+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	// The done event legitimately embeds the full retained progress; only
	// progress events must skip already-delivered lines.
	if strings.Contains(body, "event: progress\ndata: alpha") ||
		strings.Contains(body, "event: progress\ndata: beta") {
		t.Errorf("resumed stream replayed already-delivered lines:\n%s", body)
	}
	if !strings.Contains(body, "id: 3\nevent: progress\ndata: gamma") {
		t.Errorf("resumed stream missing line 3:\n%s", body)
	}
	if !strings.Contains(body, "event: done") {
		t.Errorf("stream missing terminal done event:\n%s", body)
	}
}

// TestCheckpointEnvelopeRoundtrip: the PACCKPT1 envelope round-trips a
// real checkpoint, and any mutation of the payload is detected.
func TestCheckpointEnvelopeRoundtrip(t *testing.T) {
	cfg := sim.DefaultConfig("STREAM", coalesce.ModePAC)
	cfg.AccessesPerCore = 50
	cfg.Scale = 0.02
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := r.Checkpoint()
	blob, err := encodeCheckpointFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeCheckpointFile(blob)
	if err != nil {
		t.Fatalf("roundtrip decode: %v", err)
	}
	if back.Signature != ck.Signature || back.Now != ck.Now {
		t.Errorf("roundtrip changed identity: %q/%d vs %q/%d",
			back.Signature, back.Now, ck.Signature, ck.Now)
	}
	// Flip one payload byte: the digest catches it.
	head := len(ckptMagic) + 8 + 32
	blob[head+len(blob[head:])/2] ^= 0x40
	if _, err := decodeCheckpointFile(blob); err == nil {
		t.Error("decode accepted a corrupted payload")
	}
	// Truncations anywhere never decode.
	for _, n := range []int{0, 4, head - 1, head + 1} {
		if n > len(blob) {
			continue
		}
		if _, err := decodeCheckpointFile(blob[:n]); err == nil {
			t.Errorf("decode accepted a %d-byte truncation", n)
		}
	}
}

// TestCheckpointEnvelopeLayout pins the on-disk bytes of one encoded
// checkpoint: PACCKPT1 ‖ big-endian payload length ‖ SHA-256 of the
// payload ‖ the gob payload exactly as sim.EncodeCheckpoint writes it.
func TestCheckpointEnvelopeLayout(t *testing.T) {
	cfg := sim.DefaultConfig("GS", coalesce.ModePAC)
	cfg.AccessesPerCore = 50
	cfg.Scale = 0.02
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := r.Checkpoint()
	var payload bytes.Buffer
	if err := sim.EncodeCheckpoint(&payload, ck); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("PACCKPT1"), make([]byte, 8)...)
	binary.BigEndian.PutUint64(want[8:], uint64(payload.Len()))
	sum := sha256.Sum256(payload.Bytes())
	want = append(want, sum[:]...)
	want = append(want, payload.Bytes()...)

	got, err := encodeCheckpointFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope bytes differ from magic‖len‖sha256‖gob: got %d bytes, want %d", len(got), len(want))
	}
}

// TestCheckpointStoreCorruptQuarantine: a garbled checkpoint file is
// counted, removed and reported absent — never fatal.
func TestCheckpointStoreCorruptQuarantine(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	cs := newCheckpointStore(dir, reg)
	if err := os.WriteFile(cs.path("deadbeef"), []byte("PACCKPT1 this is not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ck := cs.load("deadbeef"); ck != nil {
		t.Fatal("load returned a checkpoint from a garbled file")
	}
	if _, err := os.Stat(cs.path("deadbeef")); !os.IsNotExist(err) {
		t.Errorf("corrupt file not removed: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Errorf("files left in the checkpoint dir: %v", left)
	}
	if n, _ := reg.Value("pac_checkpoint_corrupt_total"); n != 1 {
		t.Errorf("pac_checkpoint_corrupt_total = %v, want 1", n)
	}
	if ck := cs.load("missing"); ck != nil {
		t.Error("load invented a checkpoint for a missing key")
	}
}

// TestCrashRecoveryResumesFromCheckpoint is the tentpole acceptance at
// the server level: a daemon dies mid-simulation (journal torn open, no
// terminal record), the restarted daemon replays the job from the WAL,
// resumes the simulation from its last on-disk checkpoint, and produces
// a result identical to an uninterrupted run (modulo the SkippedCycles
// driver accounting).
func TestCrashRecoveryResumesFromCheckpoint(t *testing.T) {
	// The run must comfortably outlive its first checkpoint, or the
	// "crash" below can race a legitimate completion (which would drop
	// the checkpoint): many cycles of runway after a very early cadence.
	req := SimulateRequest{Benchmark: "STREAM", Mode: "pac", AccessesPerCore: 60000}

	// Reference: the same request on a plain daemon.
	ref := newTestServer(t, nil)
	refRes, _ := simulateOK(t, ref, req)

	walDir, ckptDir := t.TempDir(), t.TempDir()
	reg1 := telemetry.NewRegistry()
	w1, _ := openTestWAL(t, walDir, reg1)
	srv1 := newTestServer(t, func(c *Config) {
		c.Registry = reg1
		c.NodeID = "w1"
		c.WAL = w1
		c.CheckpointDir = ckptDir
		c.CheckpointEvery = 3000
	})
	code, _, job := do(t, srv1.Handler(), "POST", "/v1/simulate", req)
	if code != http.StatusAccepted {
		t.Fatalf("async simulate = %d %v", code, job)
	}
	id := job["id"].(string)

	// Wait for at least one durable checkpoint while the job is still
	// in flight, then "crash": tear the journal shut and abort the run
	// so no terminal record is ever written.
	deadline := time.Now().Add(30 * time.Second)
	for {
		writes, _ := reg1.Value("pac_checkpoint_writes_total")
		if writes >= 1 {
			break
		}
		if j, ok := srv1.jobs.get(id); ok && j.Status().terminal() {
			t.Fatalf("job finished before the first checkpoint; raise AccessesPerCore or lower CheckpointEvery")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	do(t, srv1.Handler(), "DELETE", "/v1/jobs/"+id, nil)
	if j, ok := srv1.jobs.get(id); ok {
		<-j.Done()
	}
	// A crashed process writes nothing more. This one lives on, so let
	// its checkpoint writer settle before the reboot opens the same
	// directory.
	srv1.ckpts.wait()

	// Reboot: the journal recovers the job, the checkpoint store has its
	// progress, and the replayed run resumes rather than restarting.
	reg2 := telemetry.NewRegistry()
	w2, recovered := openTestWAL(t, walDir, reg2)
	if len(recovered) != 1 || recovered[0].ID != id {
		t.Fatalf("recovered = %+v, want the crashed job %s", recovered, id)
	}
	srv2 := newTestServer(t, func(c *Config) {
		c.Registry = reg2
		c.NodeID = "w1"
		c.WAL = w2
		c.Recovered = recovered
		c.CheckpointDir = ckptDir
		c.CheckpointEvery = 3000
	})
	<-srv2.Ready()
	final := waitForStatus(t, srv2.Handler(), id, "")
	if final["status"] != string(StatusDone) {
		t.Fatalf("recovered job ended %v, error %v", final["status"], final["error"])
	}
	if loads, _ := reg2.Value("pac_checkpoint_loads_total"); loads < 1 {
		t.Errorf("pac_checkpoint_loads_total = %v, want >= 1 (run restarted instead of resuming)", loads)
	}
	resumed := false
	for _, line := range final["progress"].([]any) {
		if strings.Contains(line.(string), "resumed STREAM") {
			resumed = true
		}
	}
	if !resumed {
		t.Error("recovered job progress has no resume line")
	}

	// Determinism: the resumed result matches the uninterrupted
	// reference, modulo SkippedCycles (pure event-driver accounting).
	got := final["result"].(map[string]any)["result"].(map[string]any)
	want := refRes["result"].(map[string]any)
	delete(got, "SkippedCycles")
	delete(want, "SkippedCycles")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result differs from uninterrupted run\n got: %v\nwant: %v", got, want)
	}
	// The completed run drops its checkpoint (once the writer gets to
	// the removal).
	srv2.ckpts.wait()
	if drops, _ := reg2.Value("pac_checkpoint_drops_total"); drops < 1 {
		t.Errorf("pac_checkpoint_drops_total = %v, want >= 1", drops)
	}
}
