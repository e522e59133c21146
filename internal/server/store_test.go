package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/store"
	"github.com/pacsim/pac/internal/telemetry"
)

// openTestStore opens a store sharing the registry the test server will
// use, closing it with the test.
func openTestStore(t *testing.T, dir string, reg *telemetry.Registry) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// simulateOK posts one synchronous simulate and returns the terminal
// result payload plus the X-Pac-Cache header.
func simulateOK(t *testing.T, srv *Server, req SimulateRequest) (map[string]any, string) {
	t.Helper()
	job, src := simulateJobOK(t, srv, req)
	return job["result"].(map[string]any), src
}

// simulateJobOK posts one synchronous simulate and returns the terminal
// job view and the X-Pac-Cache header, checking the header matches the
// body's result.cache.
func simulateJobOK(t *testing.T, srv *Server, req SimulateRequest) (map[string]any, string) {
	t.Helper()
	code, hdr, job := do(t, srv.Handler(), "POST", "/v1/simulate?wait=30s", req)
	if code != http.StatusOK {
		t.Fatalf("simulate %+v = %d %v", req, code, job)
	}
	if job["status"] != string(StatusDone) {
		t.Fatalf("status = %v, error = %v", job["status"], job["error"])
	}
	src := hdr.Get(CacheHeader)
	if got := job["result"].(map[string]any)["cache"]; got != src {
		t.Fatalf("%s header %q, body result.cache %v", CacheHeader, src, got)
	}
	return job, src
}

// TestStoreDiskHitAcrossRestart is the tentpole acceptance at the server
// level: a simulate answered by daemon 1 is served from disk by daemon 2
// sharing the store directory — correct X-Pac-Cache, zero new simulation
// runs, byte-identical result payload.
func TestStoreDiskHitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := SimulateRequest{Benchmark: "STREAM", Mode: "pac"}

	reg1 := telemetry.NewRegistry()
	st1 := openTestStore(t, dir, reg1)
	srv1 := newTestServer(t, func(c *Config) { c.Registry = reg1; c.Store = st1 })
	res1, src1 := simulateOK(t, srv1, req)
	if src1 != CacheMiss || res1["cache"] != CacheMiss || res1["cached"] != false {
		t.Fatalf("first run: header %q result cache %v cached %v", src1, res1["cache"], res1["cached"])
	}
	if !st1.Has(res1["configHash"].(string)) {
		t.Fatal("completed result not written through to the store")
	}
	if err := st1.Close(); err != nil { // simulated restart: release the dir
		t.Fatal(err)
	}

	// "Restarted" daemon: same store directory, nothing else carried
	// over, so the repeat request exercises the disk path.
	reg2 := telemetry.NewRegistry()
	st2 := openTestStore(t, dir, reg2)
	srv2 := newTestServer(t, func(c *Config) { c.Registry = reg2; c.Store = st2 })
	started0, _ := reg2.Value(telemetry.MetricSimsStarted)
	res2, src2 := simulateOK(t, srv2, req)
	if src2 != CacheDisk || res2["cache"] != CacheDisk || res2["cached"] != true {
		t.Fatalf("restart run: header %q result cache %v cached %v", src2, res2["cache"], res2["cached"])
	}
	if started, _ := reg2.Value(telemetry.MetricSimsStarted); started != started0 {
		t.Errorf("disk hit started %v new simulations", started-started0)
	}
	if hits, _ := reg2.Value("pac_store_hits_total"); hits < 1 {
		t.Errorf("pac_store_hits_total = %v, want >= 1", hits)
	}
	if !reflect.DeepEqual(res1["result"], res2["result"]) {
		t.Error("disk-served result differs from the fresh simulation")
	}
	if res1["configHash"] != res2["configHash"] {
		t.Errorf("config hash changed across restart: %v vs %v", res1["configHash"], res2["configHash"])
	}

	// Third request on the same daemon: a disk hit again, still without
	// simulating.
	res3, src3 := simulateOK(t, srv2, req)
	if src3 != CacheDisk {
		t.Errorf("repeat after disk hit = %q, want %q", src3, CacheDisk)
	}
	if started, _ := reg2.Value(telemetry.MetricSimsStarted); started != started0 {
		t.Errorf("repeat disk hit started %v new simulations", started-started0)
	}
	if !reflect.DeepEqual(res1["result"], res3["result"]) {
		t.Error("repeat disk-served result differs from the fresh simulation")
	}
}

// TestReplayedJobAnswersFromOrphanEntry is crash recovery across the
// store and the job journal: the simulation's result reached the store,
// but the crash came before the job's terminal WAL record and before any
// clean store shutdown. On reboot the store's directory scan finds the
// entry file, and the replayed job completes as a disk hit — the entry
// verified on that first read — without simulating again.
func TestReplayedJobAnswersFromOrphanEntry(t *testing.T) {
	storeDir, walDir := t.TempDir(), t.TempDir()
	req := SimulateRequest{Benchmark: "STREAM", Mode: "pac"}

	reg1 := telemetry.NewRegistry()
	st1 := openTestStore(t, storeDir, reg1)
	srv1 := newTestServer(t, func(c *Config) { c.Registry = reg1; c.Store = st1 })
	res1, _ := simulateOK(t, srv1, req)
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const id = "n1-j000003"
	w1, _ := openTestWAL(t, walDir, telemetry.NewRegistry())
	if err := w1.Submit(id, "simulate", payload); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	st := openTestStore(t, storeDir, reg)
	if !st.Has(res1["configHash"].(string)) {
		t.Fatal("entry file not indexed at Open")
	}
	w2, recovered := openTestWAL(t, walDir, reg)
	started0, _ := reg.Value(telemetry.MetricSimsStarted)
	srv := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.NodeID = "n1"
		c.Store = st
		c.WAL = w2
		c.Recovered = recovered
	})
	<-srv.Ready()
	job := waitForStatus(t, srv.Handler(), id, "")
	if job["status"] != string(StatusDone) {
		t.Fatalf("replayed job ended %v, error %v", job["status"], job["error"])
	}
	res := job["result"].(map[string]any)
	if res["cache"] != CacheDisk {
		t.Errorf("replayed job answered from %v, want %s", res["cache"], CacheDisk)
	}
	if started, _ := reg.Value(telemetry.MetricSimsStarted); started != started0 {
		t.Errorf("replay started %v new simulations", started-started0)
	}
	if !reflect.DeepEqual(res["result"], res1["result"]) {
		t.Error("replayed result differs from the original simulation")
	}
}

// TestAsyncSimulateOmitsCacheHeader: a 202 does not know the source yet,
// so it must not claim one.
func TestAsyncSimulateOmitsCacheHeader(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := openTestStore(t, t.TempDir(), reg)
	srv := newTestServer(t, func(c *Config) { c.Registry = reg; c.Store = st })
	code, hdr, job := do(t, srv.Handler(), "POST", "/v1/simulate", SimulateRequest{Benchmark: "STREAM", Mode: "pac"})
	if code != http.StatusAccepted {
		t.Fatalf("async simulate = %d", code)
	}
	if h := hdr.Get(CacheHeader); h != "" {
		t.Errorf("202 carried %s: %q", CacheHeader, h)
	}
	waitForStatus(t, srv.Handler(), job["id"].(string), StatusDone)
}

// TestSimulateReplySplicesResult: a synchronous simulate reply keeps the
// two-space indent on every field the job and the simulate result own
// (the smoke scripts grep for `"status": "done"` and `"cached": true`),
// carries the *sim.Result as its compact stored bytes, and decodes equal
// to the same job's GET view for every cache source.
func TestSimulateReplySplicesResult(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) { testSimulateReplySplicesResult(t, kind.disk, kind.hit) })
	}
}

func testSimulateReplySplicesResult(t *testing.T, disk bool, hit string) {
	d := newInlineDaemon(t, disk, nil)
	h := d.srv.Handler()
	for _, step := range []struct {
		req  SimulateRequest
		want string
	}{
		{hitReqA, CacheMiss},
		{hitReqA, hit},
		{hitReqB, CacheMiss},
		{hitReqA, hit},
	} {
		body, _ := json.Marshal(step.req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate?wait=30s", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get(CacheHeader) != step.want {
			t.Fatalf("simulate = %d from %q, want 200 from %q", rec.Code, rec.Header().Get(CacheHeader), step.want)
		}
		raw := rec.Body.Bytes()
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(raw)) {
			t.Errorf("%s reply Content-Length %s for a %d-byte body", step.want, cl, len(raw))
		}
		for _, field := range []string{`"status": "done"`, `"cache": "` + step.want + `"`,
			fmt.Sprintf(`"cached": %v`, step.want != CacheMiss)} {
			if !bytes.Contains(raw, []byte(field)) {
				t.Errorf("%s reply lacks %s:\n%s", step.want, field, raw)
			}
		}
		var reply struct {
			ID     string `json:"id"`
			Result struct {
				Result json.RawMessage `json:"result"`
			} `json:"result"`
		}
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatalf("%s reply is not JSON: %v", step.want, err)
		}
		var compact bytes.Buffer
		json.Compact(&compact, reply.Result.Result)
		if !bytes.Equal(compact.Bytes(), reply.Result.Result) {
			t.Errorf("%s reply result is not the compact stored bytes", step.want)
		}
		var got, view map[string]any
		json.Unmarshal(raw, &got)
		_, _, view = do(t, h, "GET", "/v1/jobs/"+reply.ID, nil)
		if !reflect.DeepEqual(got, view) {
			t.Errorf("%s reply decodes to %v, GET view to %v", step.want, got, view)
		}
	}
}

// TestSimulateAnswerBytes: the SimulateResult JSON assembled around a
// result's stored rendering is byte-identical to marshalling the
// SimulateResult with the *sim.Result in it.
func TestSimulateAnswerBytes(t *testing.T) {
	sess := experiments.NewSession(quickOptions())
	res, err := sess.Result(context.Background(), "GS", coalesce.ModeDMC)
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, source := range []string{CacheMiss, CacheMemo, CacheDisk} {
		ans := newSimulateAnswer("GS", coalesce.ModeDMC, "0123456789abcdef", source, rendered)
		want, err := json.Marshal(SimulateResult{Benchmark: "GS", Mode: coalesce.ModeDMC.String(),
			ConfigHash: "0123456789abcdef", Cached: source != CacheMiss, Cache: source, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		if got := ans.compact(); !bytes.Equal(got, want) {
			t.Errorf("%s: assembled\n%s\nmarshalled\n%s", source, got, want)
		}
	}
}

// TestSimulateClosedStoreCountsWriteFailure: a store write that fails
// does not fail the job: the simulate still finishes done with its
// answer, and the failure is counted in pac_store_write_failures_total.
func TestSimulateClosedStoreCountsWriteFailure(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := openTestStore(t, t.TempDir(), reg)
	srv := newTestServer(t, func(c *Config) { c.Registry = reg; c.Store = st })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	res, src := simulateOK(t, srv, SimulateRequest{Benchmark: "STREAM", Mode: "pac"})
	if src != CacheMiss || res["result"] == nil {
		t.Fatalf("simulate: cache %q, result %v; want a fresh answer", src, res["result"])
	}
	if st.Has(res["configHash"].(string)) {
		t.Error("closed store took the write")
	}
	if got, _ := reg.Value("pac_store_write_failures_total"); got != 1 {
		t.Errorf("pac_store_write_failures_total = %v, want 1", got)
	}
}
