package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/telemetry"
)

// quickOptions is a sub-second simulation configuration, the server-test
// analogue of pacsim -quick shrunk further.
func quickOptions() experiments.Options {
	return experiments.Options{
		Cores:           2,
		AccessesPerCore: 300,
		Scale:           0.02,
		Seed:            1,
		L1Bytes:         2 << 10,
		LLCBytes:        32 << 10,
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Options:        quickOptions(),
		Parallel:       2,
		Concurrency:    2,
		QueueDepth:     4,
		RequestTimeout: 30 * time.Second,
		JobTimeout:     time.Minute,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv
}

// do runs one request through the handler and decodes the JSON body.
func do(t *testing.T, h http.Handler, method, path string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]any{}
	if rec.Body.Len() > 0 && strings.Contains(rec.Header().Get("Content-Type"), "json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code, rec.Header(), out
}

// waitForStatus polls a job until it reaches want (or any terminal state
// when want is empty), failing the test on timeout.
func waitForStatus(t *testing.T, h http.Handler, id string, want Status) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, job := do(t, h, "GET", "/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
		}
		status := Status(job["status"].(string))
		if status == want || (want == "" && status.terminal()) {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, nil)
	code, _, body := do(t, srv.Handler(), "GET", "/healthz", nil)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
}

func TestListExperiments(t *testing.T) {
	srv := newTestServer(t, nil)
	code, _, body := do(t, srv.Handler(), "GET", "/v1/experiments", nil)
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	exps := body["experiments"].([]any)
	if len(exps) != len(experiments.All()) {
		t.Errorf("listed %d experiments, want %d", len(exps), len(experiments.All()))
	}
}

// TestSimulateHappyPathAndCacheHit is the service's core acceptance: a
// synchronous simulate succeeds, and an identical repeat is answered from
// the session memo — cached=true, the memo-hit counter moves, and no new
// simulation starts.
func TestSimulateHappyPathAndCacheHit(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	req := SimulateRequest{Benchmark: "STREAM", Mode: "pac"}

	code, _, job := do(t, h, "POST", "/v1/simulate?wait=30s", req)
	if code != http.StatusOK {
		t.Fatalf("first simulate = %d %v", code, job)
	}
	if job["status"] != string(StatusDone) {
		t.Fatalf("status = %v, error = %v", job["status"], job["error"])
	}
	result := job["result"].(map[string]any)
	if result["cached"] != false {
		t.Error("first run reported cached=true")
	}
	if result["configHash"] == "" || result["result"] == nil {
		t.Errorf("incomplete result payload: %v", result)
	}

	hits0, _ := srv.Registry().Value(telemetry.MetricMemoHits)
	started0, _ := srv.Registry().Value(telemetry.MetricSimsStarted)

	code, _, job = do(t, h, "POST", "/v1/simulate?wait=30s", req)
	if code != http.StatusOK || job["status"] != string(StatusDone) {
		t.Fatalf("repeat simulate = %d %v", code, job)
	}
	repeat := job["result"].(map[string]any)
	if repeat["cached"] != true {
		t.Error("repeat run not served from the memo")
	}
	if repeat["configHash"] != result["configHash"] {
		t.Errorf("config hash changed across identical requests: %v vs %v",
			repeat["configHash"], result["configHash"])
	}

	if hits, _ := srv.Registry().Value(telemetry.MetricMemoHits); hits != hits0+1 {
		t.Errorf("memo hits = %v, want %v", hits, hits0+1)
	}
	if started, _ := srv.Registry().Value(telemetry.MetricSimsStarted); started != started0 {
		t.Errorf("repeat request started %v new simulations", started-started0)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	cases := []struct {
		name string
		body any
	}{
		{"empty body", map[string]any{}},
		{"unknown benchmark", SimulateRequest{Benchmark: "NOPE"}},
		{"unknown mode", SimulateRequest{Benchmark: "STREAM", Mode: "warp"}},
		{"unknown field", map[string]any{"benchmark": "STREAM", "wat": 1}},
		{"cores out of range", SimulateRequest{Benchmark: "STREAM", Cores: 1024}},
		{"accesses out of range", SimulateRequest{Benchmark: "STREAM", AccessesPerCore: 100_000_000}},
		{"scale out of range", SimulateRequest{Benchmark: "STREAM", Scale: 1e6}},
	}
	for _, c := range cases {
		if code, _, body := do(t, h, "POST", "/v1/simulate", c.body); code != http.StatusBadRequest {
			t.Errorf("%s: code = %d (%v), want 400", c.name, code, body)
		} else if body["error"] == "" {
			t.Errorf("%s: missing error message", c.name)
		}
	}
	// Malformed JSON and a malformed wait window are 400s too.
	req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: code = %d, want 400", rec.Code)
	}
	if code, _, _ := do(t, h, "POST", "/v1/simulate?wait=nope",
		SimulateRequest{Benchmark: "STREAM"}); code != http.StatusBadRequest {
		t.Errorf("bad wait: code = %d, want 400", code)
	}
}

func TestRunExperimentViaAPI(t *testing.T) {
	srv := newTestServer(t, nil)
	code, _, job := do(t, srv.Handler(), "POST", "/v1/experiments/tab1/run?wait=30s", nil)
	if code != http.StatusOK || job["status"] != string(StatusDone) {
		t.Fatalf("tab1 run = %d %v", code, job)
	}
	result := job["result"].(map[string]any)
	if result["id"] != "tab1" {
		t.Errorf("result id = %v", result["id"])
	}
	if text, _ := result["text"].(string); !strings.Contains(text, "Table") && text == "" {
		t.Errorf("empty rendered text")
	}
	if tables := result["tables"].([]any); len(tables) == 0 {
		t.Error("no tables in result")
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	srv := newTestServer(t, nil)
	if code, _, _ := do(t, srv.Handler(), "POST", "/v1/experiments/nope/run", nil); code != http.StatusNotFound {
		t.Errorf("code = %d, want 404", code)
	}
}

func TestJobNotFound(t *testing.T) {
	srv := newTestServer(t, nil)
	for _, c := range []struct{ method, path string }{
		{"GET", "/v1/jobs/j999999"},
		{"DELETE", "/v1/jobs/j999999"},
		{"GET", "/v1/jobs/j999999/events"},
	} {
		if code, _, _ := do(t, srv.Handler(), c.method, c.path, nil); code != http.StatusNotFound {
			t.Errorf("%s %s: code = %d, want 404", c.method, c.path, code)
		}
	}
}

// slowRequest is a simulation big enough to occupy a worker for a while
// yet cancel promptly (the runner polls its context every 4096 cycles).
func slowRequest(seed uint64) SimulateRequest {
	return SimulateRequest{Benchmark: "STREAM", Mode: "pac", AccessesPerCore: 2_000_000, Seed: seed}
}

// TestOverloadAnswers429 fills a one-worker, one-slot queue and checks
// the next submission bounces with 429 + Retry-After.
func TestOverloadAnswers429(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Concurrency = 1
		c.QueueDepth = 1
	})
	h := srv.Handler()

	code, _, running := do(t, h, "POST", "/v1/simulate", slowRequest(101))
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	runningID := running["id"].(string)
	waitForStatus(t, h, runningID, StatusRunning)

	code, _, queued := do(t, h, "POST", "/v1/simulate", slowRequest(102))
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	queuedID := queued["id"].(string)

	code, hdr, _ := do(t, h, "POST", "/v1/simulate", slowRequest(103))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if v, _ := srv.Registry().Value("pac_jobs_rejected_total"); v < 1 {
		t.Errorf("pac_jobs_rejected_total = %v, want >= 1", v)
	}

	// Unwind: cancel both jobs so Drain in cleanup is quick.
	do(t, h, "DELETE", "/v1/jobs/"+queuedID, nil)
	do(t, h, "DELETE", "/v1/jobs/"+runningID, nil)
	waitForStatus(t, h, runningID, "")
	waitForStatus(t, h, queuedID, "")
}

// TestCancelRunningJob cancels a job mid-simulation and checks it lands
// in "cancelled" promptly, with the cancellation visible in telemetry.
func TestCancelRunningJob(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()

	code, _, job := do(t, h, "POST", "/v1/simulate", slowRequest(201))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	id := job["id"].(string)
	waitForStatus(t, h, id, StatusRunning)

	if code, _, _ := do(t, h, "DELETE", "/v1/jobs/"+id, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	final := waitForStatus(t, h, id, "")
	if final["status"] != string(StatusCancelled) {
		t.Fatalf("final status = %v, want cancelled", final["status"])
	}
	// The job turns cancelled as soon as its waiter leaves; the detached
	// simulation reports the cancellation at its next context poll, so
	// wait for the counter rather than read it once.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := srv.Registry().Value(telemetry.MetricSimsCancelled)
		if v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want >= 1", telemetry.MetricSimsCancelled, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelQueuedJob cancels a job that never started.
func TestCancelQueuedJob(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Concurrency = 1
		c.QueueDepth = 2
	})
	h := srv.Handler()
	_, _, first := do(t, h, "POST", "/v1/simulate", slowRequest(301))
	firstID := first["id"].(string)
	waitForStatus(t, h, firstID, StatusRunning)
	_, _, second := do(t, h, "POST", "/v1/simulate", slowRequest(302))
	secondID := second["id"].(string)

	do(t, h, "DELETE", "/v1/jobs/"+secondID, nil)
	if got := waitForStatus(t, h, secondID, "")["status"]; got != string(StatusCancelled) {
		t.Errorf("queued job final status = %v, want cancelled", got)
	}
	do(t, h, "DELETE", "/v1/jobs/"+firstID, nil)
	waitForStatus(t, h, firstID, "")
}

func TestListJobs(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	code, _, job := do(t, h, "POST", "/v1/simulate?wait=30s", SimulateRequest{Benchmark: "STREAM"})
	if code != http.StatusOK {
		t.Fatalf("simulate = %d", code)
	}
	_, _, list := do(t, h, "GET", "/v1/jobs", nil)
	jobs := list["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("listed %d jobs, want 1", len(jobs))
	}
	if jobs[0].(map[string]any)["id"] != job["id"] {
		t.Errorf("listed job %v, want %v", jobs[0], job["id"])
	}
}

// TestAsyncSubmitReturns202 checks the non-waiting path: 202 with a
// Location header pointing at the job resource.
func TestAsyncSubmitReturns202(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	code, hdr, job := do(t, h, "POST", "/v1/simulate", SimulateRequest{Benchmark: "STREAM"})
	if code != http.StatusAccepted {
		t.Fatalf("code = %d, want 202", code)
	}
	id := job["id"].(string)
	if hdr.Get("Location") != "/v1/jobs/"+id {
		t.Errorf("Location = %q", hdr.Get("Location"))
	}
	// Long-poll for the terminal state via GET ?wait.
	final := do2(t, h, "GET", "/v1/jobs/"+id+"?wait=30s")
	if final["status"] != string(StatusDone) {
		t.Errorf("status = %v, error = %v", final["status"], final["error"])
	}
	if final["result"] == nil {
		t.Error("terminal GET ?wait missing the result payload")
	}
}

func do2(t *testing.T, h http.Handler, method, path string) map[string]any {
	t.Helper()
	_, _, body := do(t, h, method, path, nil)
	return body
}

// TestJobEventsSSE streams a finished job's event feed and checks the
// terminal "done" event arrives with the job view.
func TestJobEventsSSE(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	code, _, job := do(t, srv.Handler(), "POST", "/v1/simulate?wait=30s", SimulateRequest{Benchmark: "STREAM"})
	if code != http.StatusOK {
		t.Fatalf("simulate = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job["id"].(string) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "event: done") {
		t.Errorf("stream missing done event:\n%s", body)
	}
	if !strings.Contains(string(body), `"status": "done"`) &&
		!strings.Contains(string(body), `"status":"done"`) {
		t.Errorf("done event missing terminal view:\n%s", body)
	}
}

// TestMetricsExposition checks /metrics serves the canonical pac_* series
// after traffic.
func TestMetricsExposition(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	if code, _, _ := do(t, h, "POST", "/v1/simulate?wait=30s", SimulateRequest{Benchmark: "STREAM"}); code != http.StatusOK {
		t.Fatal("simulate failed")
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := rec.Body.String()
	for _, name := range []string{
		telemetry.MetricSimsStarted,
		telemetry.MetricSimsCompleted,
		telemetry.MetricMemoMisses,
		"pac_jobs_submitted_total",
		"pac_jobs_finished_total",
		"pac_http_requests_total",
		telemetry.MetricGCPauseSeconds,
		telemetry.MetricHeapAllocBytes,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	// The runtime gauges are sampled per scrape; a live process always
	// has a non-zero heap.
	if v, ok := srv.Registry().Value(telemetry.MetricHeapAllocBytes); !ok || v <= 0 {
		t.Errorf("heap gauge not sampled on scrape: %v %v", v, ok)
	}
}

// TestDrainRejectsNewJobs checks a draining server answers 503 and Drain
// returns once the backlog unwinds.
func TestDrainRejectsNewJobs(t *testing.T) {
	srv := New(Config{
		Options:     quickOptions(),
		Parallel:    1,
		Concurrency: 1,
		QueueDepth:  2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, _, _ := do(t, srv.Handler(), "POST", "/v1/simulate", SimulateRequest{Benchmark: "STREAM"})
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit = %d, want 503", code)
	}
}

// TestSessionPoolSharing checks two requests with identical normalized
// options share one session while different options get their own, and
// the LRU cap bounds the pool.
func TestSessionPoolSharing(t *testing.T) {
	pool := newSessionPool(2, nil, nil, nil, nil)
	base := experiments.NewSession(quickOptions()).Options()
	s1, k1 := pool.session(base)
	s2, k2 := pool.session(base)
	if s1 != s2 || k1 != k2 {
		t.Error("identical options did not share a session")
	}
	other := base
	other.Seed = 99
	if s3, k3 := pool.session(experiments.NewSession(other).Options()); s3 == s1 || k3 == k1 {
		t.Error("distinct options shared a session or key")
	}
	third := base
	third.Seed = 100
	pool.session(experiments.NewSession(third).Options())
	if n := len(pool.entries); n != 2 {
		t.Errorf("pool holds %d sessions, want LRU cap 2", n)
	}
	// base is now the least recently used entry, so the third session
	// evicted it; re-requesting base must build a fresh session.
	if s4, _ := pool.session(base); s4 == s1 {
		t.Error("evicted session returned from the pool")
	}
}

func TestOptionsHashIgnoresParallel(t *testing.T) {
	a := experiments.NewSession(quickOptions()).Options()
	b := a
	b.Parallel = 7
	if optionsHash(a) != optionsHash(b) {
		t.Error("worker count changed the options hash (it never changes results)")
	}
	c := a
	c.Seed = 1234
	if optionsHash(a) == optionsHash(c) {
		t.Error("distinct seeds share an options hash")
	}
}

func TestWaitWindow(t *testing.T) {
	mk := func(q string) *http.Request {
		return httptest.NewRequest("GET", "/v1/jobs/j000001"+q, nil)
	}
	if d, err := waitWindow(mk(""), time.Minute); err != nil || d != 0 {
		t.Errorf("no wait: %v %v", d, err)
	}
	if d, err := waitWindow(mk("?wait=5s"), time.Minute); err != nil || d != 5*time.Second {
		t.Errorf("5s: %v %v", d, err)
	}
	if d, err := waitWindow(mk("?wait=2.5"), time.Minute); err != nil || d != 2500*time.Millisecond {
		t.Errorf("plain seconds: %v %v", d, err)
	}
	if d, err := waitWindow(mk("?wait=10m"), time.Minute); err != nil || d != time.Minute {
		t.Errorf("cap: %v %v", d, err)
	}
	if _, err := waitWindow(mk("?wait=-1s"), time.Minute); err == nil {
		t.Error("negative wait accepted")
	}
	if _, err := waitWindow(mk("?wait=zzz"), time.Minute); err == nil {
		t.Error("garbage wait accepted")
	}
}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/v1/jobs":                 "/v1/jobs",
		"/v1/jobs/j000001":         "/v1/jobs/{id}",
		"/v1/jobs/j1/events":       "/v1/jobs/{id}/events",
		"/v1/experiments":          "/v1/experiments",
		"/v1/experiments/tab1/run": "/v1/experiments/{id}/run",
		"/v1/simulate":             "/v1/simulate",
		"/healthz":                 "/healthz",
		"/metrics":                 "/metrics",
		"/debug/pprof/heap":        "/debug/pprof",
		"/favicon.ico":             "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestConfigHashStable(t *testing.T) {
	h1 := configHash("abc", "STREAM", 2)
	h2 := configHash("abc", "STREAM", 2)
	h3 := configHash("abc", "STREAM", 3)
	if h1 != h2 {
		t.Error("identical inputs hash differently")
	}
	if h1 == h3 {
		t.Error("distinct modes share a hash")
	}
	if len(h1) != 16 {
		t.Errorf("hash length = %d, want 16 hex chars", len(h1))
	}
}

func TestJobProgressRetention(t *testing.T) {
	j := &Job{id: "j1", status: StatusRunning, done: make(chan struct{})}
	for i := 0; i < maxProgressLines+10; i++ {
		j.addProgress(fmt.Sprintf("line %d", i))
	}
	v := j.view(false)
	if len(v.Progress) != maxProgressLines {
		t.Errorf("retained %d lines, want %d", len(v.Progress), maxProgressLines)
	}
	if v.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", v.Dropped)
	}
	if v.Progress[0] != "line 10" {
		t.Errorf("oldest retained = %q, want line 10", v.Progress[0])
	}
}
