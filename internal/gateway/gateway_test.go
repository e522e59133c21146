package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/server"
)

// quickOpts is the shared tiny configuration: identical on the backends
// and the gateway, as a real fleet deployment requires.
func quickOpts() experiments.Options {
	return experiments.Options{
		Cores:           2,
		AccessesPerCore: 2_000,
		Scale:           0.02,
		Seed:            42,
		L1Bytes:         2 << 10,
		LLCBytes:        128 << 10,
	}
}

// startBackends launches n real pacd servers (httptest) named b0..bN.
func startBackends(t *testing.T, n int) []string {
	t.Helper()
	return startBackendsWith(t, n, nil)
}

// startBackendsWith is startBackends with each server's Config passed
// through mutate (when non-nil) before it starts.
func startBackendsWith(t *testing.T, n int, mutate func(*server.Config)) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := server.Config{
			Options:     quickOpts(),
			Parallel:    2,
			Concurrency: 2,
			QueueDepth:  64,
			NodeID:      fmt.Sprintf("b%d", i),
		}
		if mutate != nil {
			mutate(&cfg)
		}
		srv := server.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// testGateway builds a gateway over the given backends with a fast
// health loop, plus an httptest front server.
func testGateway(t *testing.T, backends []string, mutate func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Backends:       backends,
		Base:           quickOpts(),
		HealthInterval: 20 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)
	return gw, front
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp, readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return string(b)
}

// metric reads one series from the gateway registry (0 when the series
// does not exist yet).
func metric(t *testing.T, g *Gateway, name string, labels ...string) float64 {
	t.Helper()
	v, _ := g.Registry().Value(name, labels...)
	return v
}

// waitFor polls until cond holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newStubBackend builds a minimal fake pacd whose /healthz and /readyz
// follow healthy() and whose /v1/simulate is the given handler (404
// when nil).
func newStubBackend(t *testing.T, healthy func() bool, simulate http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	probe := func(w http.ResponseWriter, r *http.Request) {
		if healthy() {
			w.Write([]byte(`{"status": "ok"}`))
			return
		}
		http.Error(w, "down", http.StatusInternalServerError)
	}
	mux.HandleFunc("GET /healthz", probe)
	mux.HandleFunc("GET /readyz", probe)
	if simulate != nil {
		mux.HandleFunc("POST /v1/simulate", simulate)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// benchOwnedBy finds a benchmark whose simulate key routes to the given
// backend (white-box: walks the gateway ring).
func benchOwnedBy(t *testing.T, g *Gateway, backend string) string {
	t.Helper()
	for _, bench := range []string{"GS", "STREAM", "BFS", "FFT", "SORT", "HPCG", "EP", "CG", "LU", "SP", "IS", "MG", "SSCA2", "SPARSELU"} {
		key, err := g.simKeyFor([]byte(fmt.Sprintf(`{"benchmark": %q}`, bench)))
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := g.ring.Owner(key); owner == backend {
			return bench
		}
	}
	t.Fatalf("no benchmark routes to %s", backend)
	return ""
}

// TestGatewayAffinity pins the affinity contract: repeated identical
// simulate requests route to the same backend, the repeat is that
// backend's store hit, and the affinity ratio stays 1.0.
func TestGatewayAffinity(t *testing.T) {
	backends := startBackends(t, 3)
	gw, front := testGateway(t, backends, nil)

	body := `{"benchmark": "GS", "mode": "pac"}`
	resp1, payload1 := postJSON(t, front.URL+"/v1/simulate?wait=60s", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first simulate: status %d: %s", resp1.StatusCode, payload1)
	}
	first := resp1.Header.Get("X-Pac-Backend")
	if first == "" {
		t.Fatal("missing X-Pac-Backend header")
	}
	if resp1.Header.Get("X-Pac-Key") == "" {
		t.Fatal("missing X-Pac-Key header")
	}
	if !strings.Contains(payload1, `"cached": false`) {
		t.Fatalf("first simulate should be a store miss: %s", payload1)
	}

	resp2, payload2 := postJSON(t, front.URL+"/v1/simulate?wait=60s", body)
	if got := resp2.Header.Get("X-Pac-Backend"); got != first {
		t.Fatalf("affinity broken: first on %s, repeat on %s", first, got)
	}
	if !strings.Contains(payload2, `"cached": true`) {
		t.Fatalf("repeat should be a store hit: %s", payload2)
	}

	if m := metric(t, gw, "pac_gw_affinity_misses_total"); m != 0 {
		t.Fatalf("affinity misses = %v, want 0", m)
	}
	if r := metric(t, gw, "pac_gw_affinity_hit_ratio"); r != 1 {
		t.Fatalf("affinity hit ratio = %v, want 1", r)
	}
}

// TestGatewaySpread checks that distinct simulate keys actually fan out:
// with 3 backends and 8 distinct benchmarks, more than one backend must
// serve traffic (the ring would be useless otherwise).
func TestGatewaySpread(t *testing.T) {
	backends := startBackends(t, 3)
	gw, front := testGateway(t, backends, nil)

	served := map[string]bool{}
	for _, bench := range []string{"GS", "STREAM", "BFS", "FFT", "SORT", "HPCG", "EP", "CG"} {
		body := fmt.Sprintf(`{"benchmark": %q, "mode": "pac"}`, bench)
		resp, payload := postJSON(t, front.URL+"/v1/simulate?wait=60s", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", bench, resp.StatusCode, payload)
		}
		served[resp.Header.Get("X-Pac-Backend")] = true
	}
	if len(served) < 2 {
		t.Fatalf("8 distinct keys all routed to one backend: %v", served)
	}
	if m := metric(t, gw, "pac_gw_affinity_misses_total"); m != 0 {
		t.Fatalf("healthy fleet recorded %v affinity misses", m)
	}
}

// TestGatewayEjectionAndRecovery drives the health state machine: a
// backend failing /healthz is ejected after FailThreshold consecutive
// probes, traffic routes around it, and it is reinstated after
// RecoverThreshold successes — restoring primary ownership.
func TestGatewayEjectionAndRecovery(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	stub := newStubBackend(t, healthy.Load, nil)
	real := startBackends(t, 1)

	gw, front := testGateway(t, []string{stub.URL, real[0]}, nil)

	waitFor(t, 2*time.Second, "stub to be probed up", func() bool {
		return metric(t, gw, "pac_gw_backend_up", "backend", stub.URL) == 1
	})

	healthy.Store(false)
	waitFor(t, 2*time.Second, "stub ejection", func() bool {
		return metric(t, gw, "pac_gw_ejections_total", "backend", stub.URL) >= 1 &&
			metric(t, gw, "pac_gw_backend_up", "backend", stub.URL) == 0
	})

	// Gateway healthz reports the degraded fleet.
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, `"status": "degraded"`) {
		t.Fatalf("healthz should be degraded: %s", body)
	}

	// All traffic lands on the survivor regardless of key.
	for _, bench := range []string{"GS", "STREAM", "BFS"} {
		r, payload := postJSON(t, front.URL+"/v1/simulate?wait=60s",
			fmt.Sprintf(`{"benchmark": %q}`, bench))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s during ejection: %d %s", bench, r.StatusCode, payload)
		}
		if got := r.Header.Get("X-Pac-Backend"); got != real[0] {
			t.Fatalf("%s served by %s, want survivor %s", bench, got, real[0])
		}
	}

	healthy.Store(true)
	waitFor(t, 2*time.Second, "stub recovery", func() bool {
		return metric(t, gw, "pac_gw_recoveries_total", "backend", stub.URL) >= 1 &&
			metric(t, gw, "pac_gw_backend_up", "backend", stub.URL) == 1
	})
}

// TestSlowReadyzStaysInRotation: a healthy backend whose /readyz answers
// only after three probe intervals is not ejected — the probe deadline
// does not shrink with HealthInterval.
func TestSlowReadyzStaysInRotation(t *testing.T) {
	const interval = 20 * time.Millisecond
	stub := newStubBackend(t, func() bool {
		time.Sleep(3 * interval)
		return true
	}, nil)
	gw, _ := testGateway(t, []string{stub.URL}, func(c *Config) { c.HealthInterval = interval })

	okProbes := func() float64 {
		return metric(t, gw, "pac_gw_health_probes_total", "backend", stub.URL, "ok", "true")
	}
	waitFor(t, 5*time.Second, "three slow probes answered", func() bool { return okProbes() >= 3 })
	if n := metric(t, gw, "pac_gw_ejections_total", "backend", stub.URL); n != 0 {
		t.Fatalf("slow but healthy backend ejected %v times", n)
	}
	if up := metric(t, gw, "pac_gw_backend_up", "backend", stub.URL); up != 1 {
		t.Fatalf("pac_gw_backend_up = %v, want 1", up)
	}
}

// TestGatewayRetryAfterPropagation pins the backpressure contract: a
// backend 429 is not retried on another node (that would reheat an
// overloaded fleet); the Retry-After reaches the client untouched.
func TestGatewayRetryAfterPropagation(t *testing.T) {
	stub := newStubBackend(t, func() bool { return true },
		func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error": "job queue full, retry later"}`))
		})
	real := startBackends(t, 1)
	gw, front := testGateway(t, []string{stub.URL, real[0]}, nil)

	// Use a benchmark whose key the stub owns, so the 429 comes from the
	// primary path.
	bench := benchOwnedBy(t, gw, stub.URL)
	resp, payload := postJSON(t, front.URL+"/v1/simulate?wait=60s",
		fmt.Sprintf(`{"benchmark": %q}`, bench))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, payload)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want propagated \"7\"", got)
	}
	if m := metric(t, gw, "pac_gw_retries_total"); m != 0 {
		t.Fatalf("a 429 was retried hot (%v retries)", m)
	}
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	backends := startBackends(t, 1)
	_, front := testGateway(t, backends, nil)

	for _, tc := range []struct{ name, body string }{
		{"unknown benchmark", `{"benchmark": "NOPE"}`},
		{"unknown field", `{"benchmark": "GS", "bogus": 1}`},
		{"malformed", `{`},
	} {
		resp, payload := postJSON(t, front.URL+"/v1/simulate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, payload)
		}
	}
}

// TestGatewayJobsMergeAndLookup exercises the fleet job surface: jobs
// submitted through the gateway land on their nodes with fleet-unique
// IDs, the merged listing attributes each to its node, and a direct ID
// lookup locates the owning backend.
func TestGatewayJobsMergeAndLookup(t *testing.T) {
	backends := startBackends(t, 3)
	_, front := testGateway(t, backends, nil)

	ids := map[string]bool{}
	for _, bench := range []string{"GS", "STREAM", "BFS", "FFT"} {
		resp, payload := postJSON(t, front.URL+"/v1/simulate?wait=60s",
			fmt.Sprintf(`{"benchmark": %q}`, bench))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", bench, resp.StatusCode, payload)
		}
		var view struct {
			ID   string `json:"id"`
			Node string `json:"node"`
		}
		if err := json.Unmarshal([]byte(payload), &view); err != nil {
			t.Fatal(err)
		}
		if view.ID == "" || view.Node == "" {
			t.Fatalf("job view missing id/node: %s", payload)
		}
		if !strings.HasPrefix(view.ID, view.Node+"-") {
			t.Fatalf("fleet job ID %q not prefixed by node %q", view.ID, view.Node)
		}
		ids[view.ID] = true
	}

	resp, err := http.Get(front.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	listing := readAll(t, resp)
	var merged struct {
		Jobs []struct {
			ID   string `json:"id"`
			Node string `json:"node"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(listing), &merged); err != nil {
		t.Fatalf("decoding merged listing: %v: %s", err, listing)
	}
	found := 0
	for _, j := range merged.Jobs {
		if ids[j.ID] {
			found++
			if j.Node == "" {
				t.Fatalf("merged listing lost node attribution: %+v", j)
			}
		}
	}
	if found != len(ids) {
		t.Fatalf("merged listing found %d of %d submitted jobs: %s", found, len(ids), listing)
	}

	for id := range ids {
		resp, err := http.Get(front.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %s: %d %s", id, resp.StatusCode, body)
		}
		if !strings.Contains(body, `"id": "`+id+`"`) {
			t.Fatalf("lookup %s returned wrong job: %s", id, body)
		}
	}

	resp, err = http.Get(front.URL + "/v1/jobs/b9-j999999")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job lookup: %d %s, want 404", resp.StatusCode, body)
	}
}

// TestGatewayJobsStateFilter: the merged job listing honours ?state=
// like a single backend does, and a state no backend knows answers 400
// rather than an empty list.
func TestGatewayJobsStateFilter(t *testing.T) {
	backends := startBackends(t, 2)
	_, front := testGateway(t, backends, nil)
	resp, payload := postJSON(t, front.URL+"/v1/simulate?wait=60s", `{"benchmark": "GS"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, payload)
	}
	var done struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(payload), &done); err != nil {
		t.Fatal(err)
	}
	list := func(state string) (int, []string) {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/jobs?state=" + state)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		var listing struct {
			Jobs []struct {
				ID string `json:"id"`
			} `json:"jobs"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &listing); err != nil {
				t.Fatalf("state=%s: decoding %v: %s", state, err, body)
			}
		}
		var ids []string
		for _, j := range listing.Jobs {
			ids = append(ids, j.ID)
		}
		return resp.StatusCode, ids
	}
	if code, ids := list("running"); code != http.StatusOK || len(ids) != 0 {
		t.Errorf("running jobs: %d %v, want 200 and none", code, ids)
	}
	if code, ids := list("done"); code != http.StatusOK || len(ids) != 1 || ids[0] != done.ID {
		t.Errorf("done jobs: %d %v, want 200 and only %s", code, ids, done.ID)
	}
	if code, ids := list("orphaned"); code != http.StatusBadRequest {
		t.Errorf("unknown state: %d %v, want 400", code, ids)
	}
}
