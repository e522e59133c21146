package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
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
		j, err := m.completed("simulate", nil, newSimulateAnswer("GS", coalesce.ModePAC, "00", CacheMemo, []byte(`{}`)))
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
