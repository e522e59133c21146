package server

// Chaos suite for the daemon resilience layer: watchdog kills, panic
// recovery, client cancellation, request-body caps, and SSE keep-alives.
// The white-box tests drive s.jobs.submit directly so a job's behaviour
// is scripted exactly; the end-to-end tests go through the
// HTTP handler and the metrics endpoint like a real client.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// metricsBody fetches /metrics as text.
func metricsBody(t *testing.T, h http.Handler) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

// metricLine finds the first exposition line for the named metric that
// is not a comment, returning "" when the series is absent.
func metricLine(body, name string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name) {
			return line
		}
	}
	return ""
}

// TestWatchdogKillFailsJobOnce: a job that wedges until the watchdog
// deadline cancels it runs exactly once, fails with the watchdog named
// in its error, and the kill is counted.
func TestWatchdogKillFailsJobOnce(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.JobTimeout = 50 * time.Millisecond })
	var runs atomic.Int32
	job, err := srv.jobs.submit("chaos", nil, jobMeta{}, func(ctx context.Context) (any, error) {
		runs.Add(1)
		<-ctx.Done() // wedge until the watchdog fires
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job never finished")
	}
	if got := job.Status(); got != StatusFailed {
		t.Fatalf("status = %q, want %q", got, StatusFailed)
	}
	if msg := job.view(false).Error; !strings.Contains(msg, "watchdog") {
		t.Errorf("error %q does not name the watchdog", msg)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("wedged job ran %d times, want 1", n)
	}
	if n, _ := srv.Registry().Value("pac_job_watchdog_kills_total", "kind", "chaos"); n != 1 {
		t.Errorf("pac_job_watchdog_kills_total = %v, want 1", n)
	}
}

// TestPanicFailsJobPoolSurvives: a panicking job is recovered, counted
// and failed with the panic in its error, and the worker pool still runs
// the next job.
func TestPanicFailsJobPoolSurvives(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.Concurrency = 1 })
	job, err := srv.jobs.submit("chaos", nil, jobMeta{}, func(ctx context.Context) (any, error) {
		panic("injected panic")
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if got := job.Status(); got != StatusFailed {
		t.Fatalf("status = %q, want %q", got, StatusFailed)
	}
	if msg := job.view(false).Error; !strings.Contains(msg, "injected panic") {
		t.Errorf("error %q does not carry the panic", msg)
	}
	if n, _ := srv.Registry().Value("pac_job_panics_total", "kind", "chaos"); n != 1 {
		t.Errorf("pac_job_panics_total = %v, want 1", n)
	}
	next, err := srv.jobs.submit("chaos", nil, jobMeta{}, func(ctx context.Context) (any, error) { return "fine", nil })
	if err != nil {
		t.Fatal(err)
	}
	<-next.Done()
	if next.Status() != StatusDone {
		t.Errorf("post-panic job status = %q", next.Status())
	}
}

// TestClientCancelNeverRetried checks DELETE is terminal: the run is
// aborted, never run again, and the job lands StatusCancelled without a
// watchdog kill.
func TestClientCancelNeverRetried(t *testing.T) {
	srv := newTestServer(t, nil)
	started := make(chan struct{})
	var runs atomic.Int32
	job, err := srv.jobs.submit("chaos", nil, jobMeta{}, func(ctx context.Context) (any, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	code, _, _ := do(t, srv.Handler(), "DELETE", "/v1/jobs/"+job.ID(), nil)
	if code != http.StatusOK {
		t.Fatalf("DELETE: %d", code)
	}
	<-job.Done()
	if got := job.Status(); got != StatusCancelled {
		t.Fatalf("status = %q, want %q", got, StatusCancelled)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("cancelled job ran %d times, want 1", n)
	}
	if n, _ := srv.Registry().Value("pac_job_watchdog_kills_total", "kind", "chaos"); n != 0 {
		t.Errorf("client cancel counted as %v watchdog kills", n)
	}
}

// TestWatchdogEndToEnd wedges a real simulation through the public API:
// an oversized request under a tiny deadline must come back failed with
// the watchdog named in the error.
func TestWatchdogEndToEnd(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.JobTimeout = 30 * time.Millisecond })
	h := srv.Handler()
	code, _, body := do(t, h, "POST", "/v1/simulate",
		SimulateRequest{Benchmark: "GS", AccessesPerCore: 5_000_000})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	job := waitForStatus(t, h, body["id"].(string), "")
	if got := Status(job["status"].(string)); got != StatusFailed {
		t.Fatalf("status = %q, want %q (%v)", got, StatusFailed, job["error"])
	}
	if msg, _ := job["error"].(string); !strings.Contains(msg, "watchdog") {
		t.Errorf("error %q does not name the watchdog", msg)
	}
	if metricLine(metricsBody(t, h), "pac_job_watchdog_kills_total") == "" {
		t.Error("watchdog kill not counted")
	}
}

// TestOversizedBodyRejected checks the MaxBytesReader cap answers 413.
func TestOversizedBodyRejected(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 128 })
	padding := strings.Repeat("x", 512)
	req := httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(fmt.Sprintf(`{"benchmark": %q}`, padding)))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", rec.Code)
	}
	// A request within the cap still works.
	req = httptest.NewRequest("POST", "/v1/simulate?wait=30s",
		strings.NewReader(`{"benchmark": "GS"}`))
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("small body after cap: %d", rec.Code)
	}
}

// TestSSEKeepAlive checks an idle event stream carries periodic comment
// lines so intermediaries keep the connection open.
func TestSSEKeepAlive(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.SSEKeepAlive = 20 * time.Millisecond })
	release := make(chan struct{})
	job, err := srv.jobs.submit("chaos", nil, jobMeta{}, func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(150*time.Millisecond, func() { close(release) })
	req := httptest.NewRequest("GET", "/v1/jobs/"+job.ID()+"/events", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req) // returns once the job finishes
	body := rec.Body.String()
	if n := strings.Count(body, ": keep-alive"); n < 2 {
		t.Errorf("want >= 2 keep-alive comments over 150ms at 20ms interval, got %d:\n%s", n, body)
	}
	if !strings.Contains(body, "event: done") {
		t.Errorf("stream missing terminal event:\n%s", body)
	}
}

// TestSimulateWithFaultPlan runs a fault-enabled simulation through the
// public API and checks the injected faults surface in the result JSON,
// while a malformed plan is rejected at submit time.
func TestSimulateWithFaultPlan(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.RequestTimeout = 60 * time.Second })
	h := srv.Handler()
	code, _, body := do(t, h, "POST", "/v1/simulate?wait=60s", SimulateRequest{
		Benchmark:               "GS",
		AccessesPerCore:         2_000,
		FaultLinkCRCRate:        0.2,
		FaultPoisonRate:         0.05,
		FaultVaultStallInterval: 1_000,
		FaultSeed:               7,
	})
	if code != http.StatusOK {
		t.Fatalf("fault-enabled simulate: %d %v", code, body)
	}
	result := body["result"].(map[string]any)["result"].(map[string]any)
	faults, ok := result["Faults"].(map[string]any)
	if !ok {
		t.Fatalf("result has no Faults block: %v", result)
	}
	if crc, _ := faults["LinkCRCErrors"].(float64); crc == 0 {
		t.Errorf("20%% CRC plan injected no link errors: %v", faults)
	}
	// Fault knobs must key the store, so the clean run is a different
	// cache entry than the faulty one.
	code, _, clean := do(t, h, "POST", "/v1/simulate?wait=60s",
		SimulateRequest{Benchmark: "GS", AccessesPerCore: 2_000})
	if code != http.StatusOK {
		t.Fatalf("clean simulate: %d", code)
	}
	if cached, _ := clean["result"].(map[string]any)["cached"].(bool); cached {
		t.Error("clean run answered from the fault-enabled run's store entry")
	}
	// Malformed plan: rejected before any job is queued.
	code, _, errBody := do(t, h, "POST", "/v1/simulate",
		SimulateRequest{Benchmark: "GS", FaultLinkCRCRate: 1.5})
	if code != http.StatusBadRequest {
		t.Fatalf("bad fault plan: %d %v", code, errBody)
	}
}
