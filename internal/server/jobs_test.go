package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
)

// TestRetentionEvictsOldestFinishedFirst: with the table at its cap,
// each accepted job evicts the job that finished longest ago — in
// finishing order, not submission order — while a running job at the
// head of the order is never evicted, and an evicted ID answers 404.
func TestRetentionEvictsOldestFinishedFirst(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Concurrency = 2
		c.RetainJobs = 3
	})
	m, h := srv.jobs, srv.Handler()
	blocked := func(release chan struct{}) func(ctx context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			select {
			case <-release:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	submit := func(release chan struct{}) *Job {
		t.Helper()
		j, err := m.submit("test", nil, jobMeta{}, blocked(release))
		if err != nil {
			t.Fatal(err)
		}
		waitForStatus(t, h, j.ID(), StatusRunning)
		return j
	}
	hit := func() *Job {
		t.Helper()
		j, err := m.completed("simulate", newSimulateAnswer("GS", coalesce.ModePAC, "00", CacheMemo, []byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	retained := func(want ...*Job) {
		t.Helper()
		jobs := m.list()
		if len(jobs) != len(want) {
			t.Fatalf("retained %d jobs, want %d", len(jobs), len(want))
		}
		for i, j := range want {
			if jobs[i] != j {
				t.Fatalf("retained[%d] = %s, want %s", i, jobs[i].ID(), j.ID())
			}
		}
	}
	gone := func(j *Job) {
		t.Helper()
		if code, _, _ := do(t, h, "GET", "/v1/jobs/"+j.ID(), nil); code != http.StatusNotFound {
			t.Errorf("evicted job %s: GET = %d, want 404", j.ID(), code)
		}
	}

	longRunning, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(longRunning) })
	head := submit(longRunning)
	second := submit(release)
	c1 := hit()
	c2 := hit()
	retained(head, second, c2)
	gone(c1)

	// second finishes after c2 although it was submitted before it.
	close(release)
	<-second.Done()
	for deadline := time.Now().Add(10 * time.Second); ; {
		m.mu.Lock()
		queued := len(m.finishedJobs) - m.finishedHead
		m.mu.Unlock()
		if queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("finished job never queued for eviction (%d queued)", queued)
		}
		time.Sleep(time.Millisecond)
	}
	c3 := hit()
	retained(head, second, c3)
	gone(c2)
	c4 := hit()
	retained(head, c3, c4)
	gone(second)
	if code, _, v := do(t, h, "GET", "/v1/jobs/"+head.ID(), nil); code != http.StatusOK || v["status"] != string(StatusRunning) {
		t.Errorf("running head job: GET = %d %v", code, v["status"])
	}
}

// TestQueueDepthIsExact pins -queue as an exact bound on waiting jobs:
// with the only worker busy, QueueDepth jobs queue and the next one is
// refused with 429; once the worker finishes a job and picks up the
// next, exactly one more job is accepted before the next 429.
func TestQueueDepthIsExact(t *testing.T) {
	const depth = 3
	srv := newTestServer(t, func(c *Config) {
		c.Concurrency = 1
		c.QueueDepth = depth
	})
	m, h := srv.jobs, srv.Handler()
	var releases []chan struct{}
	t.Cleanup(func() {
		for _, r := range releases {
			close(r)
		}
	})
	submit := func() (*Job, int) {
		t.Helper()
		release := make(chan struct{})
		j, err := m.submit("test", nil, jobMeta{}, func(ctx context.Context) (any, error) {
			select {
			case <-release:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		if err != nil {
			rec := httptest.NewRecorder()
			srv.submitted(rec, j, err)
			return nil, rec.Code
		}
		releases = append(releases, release)
		return j, http.StatusAccepted
	}
	mustAccept := func() *Job {
		t.Helper()
		j, code := submit()
		if j == nil {
			t.Fatalf("submit refused with %d, want accepted", code)
		}
		return j
	}
	mustRefuse := func() {
		t.Helper()
		if _, code := submit(); code != http.StatusTooManyRequests {
			t.Fatalf("submit answered %d, want 429", code)
		}
	}

	running := mustAccept()
	waitForStatus(t, h, running.ID(), StatusRunning)
	queued := make([]*Job, depth)
	for i := range queued {
		queued[i] = mustAccept()
	}
	mustRefuse()

	// Finish the running job; the worker picks up the oldest queued one,
	// which frees exactly one queue slot.
	close(releases[0])
	releases = releases[1:]
	<-running.Done()
	waitForStatus(t, h, queued[0].ID(), StatusRunning)
	mustAccept()
	mustRefuse()
}

// committedAnswer is a job body whose answer's store write runs commit.
func committedAnswer(commit func()) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		a := newSimulateAnswer("GS", coalesce.ModePAC, "00", CacheMiss, []byte(`{}`))
		a.persist = commit
		return a, nil
	}
}

// TestCommitOverlapsNextJob: once a job's body returns, the worker hands
// the job to its committer and starts the next job at once. While the
// first job's store write is blocked, its successor runs, and the first
// job still reads as running: it is done only once it is committed.
func TestCommitOverlapsNextJob(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.Concurrency = 1 })
	m := srv.jobs
	committing, release := make(chan struct{}), make(chan struct{})
	first, err := m.submit("test", nil, jobMeta{}, committedAnswer(func() {
		close(committing)
		<-release
	}))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	second, err := m.submit("test", nil, jobMeta{}, func(ctx context.Context) (any, error) {
		close(started)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-committing
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the next job did not start while the first job's commit was blocked")
	}
	if s := first.Status(); s != StatusRunning {
		t.Errorf("first job reads %q during its commit, want %q", s, StatusRunning)
	}
	select {
	case <-second.Done():
		t.Error("the second job finished before the first job's commit: commits left worker order")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-first.Done()
	<-second.Done()
	if s := first.Status(); s != StatusDone {
		t.Errorf("first job = %q after its commit, want %q", s, StatusDone)
	}
}

// TestCommitWaitReplyFindsStoreAndJournal: a ?wait= reply that reports a
// fresh simulation done finds the result in the store and the job's
// terminal record in the journal, with the worker already on the next
// request's simulation.
func TestCommitWaitReplyFindsStoreAndJournal(t *testing.T) {
	storeDir, walDir := t.TempDir(), t.TempDir()
	reg := telemetry.NewRegistry()
	st := openTestStore(t, storeDir, reg)
	w, _ := openTestWAL(t, walDir, reg)
	srv := newTestServer(t, func(c *Config) {
		c.Registry, c.Store, c.WAL = reg, st, w
		c.Concurrency = 1
	})
	journal := filepath.Join(walDir, "jobs.wal")

	const clients = 4
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			body, _ := json.Marshal(SimulateRequest{Benchmark: "STREAM", Mode: "pac", Seed: seed})
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate?wait=30s", bytes.NewReader(body)))
			var job struct {
				ID     string
				Status Status
				Result SimulateResult
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &job); rec.Code != http.StatusOK || err != nil {
				t.Errorf("seed %d: %d %s", seed, rec.Code, rec.Body)
				return
			}
			if job.Status != StatusDone || job.Result.Cache != CacheMiss {
				t.Errorf("seed %d: status %q cache %q, want done miss", seed, job.Status, job.Result.Cache)
			}
			if !st.Has(job.Result.ConfigHash) {
				t.Errorf("seed %d: reply came before the store entry %s", seed, job.Result.ConfigHash)
			}
			if liveInJournal(t, journal)[job.ID] {
				t.Errorf("seed %d: reply came before job %s's terminal record", seed, job.ID)
			}
		}(uint64(100 + i))
	}
	wg.Wait()
}

// liveInJournal reads a journal file and returns the IDs it still holds
// live: submitted, with no terminal record. A torn last line, an append
// in progress, is skipped as boot replay skips it.
func liveInJournal(t *testing.T, path string) map[string]bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return nil
	}
	live := map[string]bool{}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		rec, ok := wal.ParseRecord(line)
		switch {
		case !ok:
		case rec.Op == wal.OpSubmit:
			live[rec.ID] = true
		case rec.Op == wal.OpDone || rec.Op == wal.OpFail || rec.Op == wal.OpCancel:
			delete(live, rec.ID)
		}
	}
	return live
}

// TestDrainWaitsForCommits: Drain returns only once every job a worker
// handed to its committer is stored, journaled and finished, even while
// a commit is blocked when the drain begins.
func TestDrainWaitsForCommits(t *testing.T) {
	reg := telemetry.NewRegistry()
	w, _ := openTestWAL(t, t.TempDir(), reg)
	srv := newTestServer(t, func(c *Config) {
		c.Registry, c.WAL = reg, w
		c.Concurrency = 1
	})
	entered, release := make(chan struct{}, 3), make(chan struct{})
	var persisted atomic.Int32
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := srv.jobs.submit("test", nil, jobMeta{}, committedAnswer(func() {
			entered <- struct{}{}
			<-release
			persisted.Add(1)
		}))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	<-entered // the first commit is blocked; the worker has moved on

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	select {
	case err := <-drained:
		close(release)
		t.Fatalf("Drain returned (%v) while a commit was blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return once the commits were released")
	}
	if n := persisted.Load(); n != 3 {
		t.Errorf("%d of 3 store writes ran before Drain returned", n)
	}
	for _, j := range jobs {
		if s := j.Status(); s != StatusDone {
			t.Errorf("job %s = %q after Drain, want %q", j.ID(), s, StatusDone)
		}
	}
	if n := w.Live(); n != 0 {
		t.Errorf("journal holds %d live jobs after Drain, want 0", n)
	}
}

// TestFinishedJobReleasesInflightSession: a retained terminal simulate
// job keeps only its answer. The session its run went through, and with
// it that session's memoised result, must be unreachable once the job is
// done and still listed: the committer leaves the in-flight run after
// the store write and clears the answer's persist closure, and finish
// drops the job's run closure.
func TestFinishedJobReleasesInflightSession(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.Concurrency = 1 })
	h := srv.Handler()
	req := SimulateRequest{Benchmark: "STREAM", Mode: "pac", AccessesPerCore: 1_000_000, Seed: 101}
	opts, bench, mode, err := srv.validate(req)
	if err != nil {
		t.Fatal(err)
	}
	hash := SimKey(OptionsHash(opts), bench, mode)
	code, _, v := do(t, h, "POST", "/v1/simulate", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %v", code, v)
	}
	id := v["id"].(string)

	collected := make(chan struct{})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.flightMu.Lock()
		f, ok := srv.flights[hash]
		if ok {
			runtime.SetFinalizer(f.sess, func(*experiments.Session) { close(collected) })
		}
		srv.flightMu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job's run never showed in the in-flight table")
		}
	}
	waitForStatus(t, h, id, StatusDone)
	if code, _, v := do(t, h, "GET", "/v1/jobs/"+id, nil); code != http.StatusOK || v["status"] != string(StatusDone) {
		t.Fatalf("GET = %d %v, want the job retained and done", code, v["status"])
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the in-flight session is still reachable 10s after its job finished — a retained job pins it")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
