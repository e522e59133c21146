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
	"time"

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

	// "Restarted" daemon: same store directory, warm-up disabled so the
	// repeat request exercises the disk path rather than the memo.
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

	// Third request on the same daemon: a disk hit again (a disk hit does
	// not seed the session), still without simulating.
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

// TestStoreWarmBoot verifies -store-warm: a daemon booted over a
// populated store answers the very first request from the memo, with the
// byte-identical result and zero simulation runs.
func TestStoreWarmBoot(t *testing.T) {
	dir := t.TempDir()
	req := SimulateRequest{Benchmark: "GS", Mode: "dmc"}

	reg1 := telemetry.NewRegistry()
	st1 := openTestStore(t, dir, reg1)
	srv1 := newTestServer(t, func(c *Config) { c.Registry = reg1; c.Store = st1 })
	res1, _ := simulateOK(t, srv1, req)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := telemetry.NewRegistry()
	st2 := openTestStore(t, dir, reg2)
	srv2 := newTestServer(t, func(c *Config) {
		c.Registry = reg2
		c.Store = st2
		c.StoreWarm = 16
	})
	<-srv2.Ready() // warm-up runs during async boot
	if warmed, _ := reg2.Value("pac_store_warmed_total"); warmed < 1 {
		t.Fatalf("pac_store_warmed_total = %v, want >= 1", warmed)
	}
	started0, _ := reg2.Value(telemetry.MetricSimsStarted)
	res2, src := simulateOK(t, srv2, req)
	if src != CacheMemo {
		t.Errorf("first request after warm boot = %q, want %q", src, CacheMemo)
	}
	if started, _ := reg2.Value(telemetry.MetricSimsStarted); started != started0 {
		t.Errorf("warm-booted request started %v new simulations", started-started0)
	}
	if !reflect.DeepEqual(res1["result"], res2["result"]) {
		t.Error("warm-booted result differs from the fresh simulation")
	}
}

// TestPeerCacheExchange: node B misses locally but is configured with
// node A as a peer; A has the entry, so B answers with cache=peer,
// persists the entry in its own store, and never simulates.
func TestPeerCacheExchange(t *testing.T) {
	req := SimulateRequest{Benchmark: "FFT", Mode: "pac"}

	regA := telemetry.NewRegistry()
	stA := openTestStore(t, t.TempDir(), regA)
	srvA := newTestServer(t, func(c *Config) { c.Registry = regA; c.Store = stA })
	resA, _ := simulateOK(t, srvA, req)
	key := resA["configHash"].(string)

	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	regB := telemetry.NewRegistry()
	stB := openTestStore(t, t.TempDir(), regB)
	srvB := newTestServer(t, func(c *Config) {
		c.Registry = regB
		c.Store = stB
		c.Peers = []string{tsA.URL}
		c.PeerTimeout = 5 * time.Second
	})
	startedB0, _ := regB.Value(telemetry.MetricSimsStarted)
	resB, src := simulateOK(t, srvB, req)
	if src != CachePeer || resB["cache"] != CachePeer || resB["cached"] != true {
		t.Fatalf("peer run: header %q result cache %v cached %v", src, resB["cache"], resB["cached"])
	}
	if started, _ := regB.Value(telemetry.MetricSimsStarted); started != startedB0 {
		t.Errorf("peer hit started %v new simulations on B", started-startedB0)
	}
	if hits, _ := regB.Value("pac_store_peer_hits_total"); hits != 1 {
		t.Errorf("pac_store_peer_hits_total = %v, want 1", hits)
	}
	if !stB.Has(key) {
		t.Error("peer-fetched entry not persisted in B's local store")
	}
	if !reflect.DeepEqual(resA["result"], resB["result"]) {
		t.Error("peer-served result differs from A's simulation")
	}

	// B's copy is byte-identical to A's on the wire.
	blobA, okA := stA.GetRaw(key)
	blobB, okB := stB.GetRaw(key)
	if !okA || !okB || string(blobA) != string(blobB) {
		t.Error("peer exchange did not replicate identical envelope bytes")
	}
}

// TestPeerLookupFailureFallsBack: dead or entry-less peers must degrade
// to a fresh simulation, not an error.
func TestPeerLookupFailureFallsBack(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := openTestStore(t, t.TempDir(), reg)
	srv := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.Store = st
		c.Peers = []string{"http://127.0.0.1:1"} // nothing listens here
		c.PeerTimeout = 200 * time.Millisecond
	})
	res, src := simulateOK(t, srv, SimulateRequest{Benchmark: "STREAM", Mode: "pac"})
	if src != CacheMiss || res["cached"] != false {
		t.Fatalf("dead-peer run: header %q cached %v", src, res["cached"])
	}
	if misses, _ := reg.Value("pac_store_peer_misses_total"); misses != 1 {
		t.Errorf("pac_store_peer_misses_total = %v, want 1", misses)
	}
}

// TestStoreEndpoint covers GET /v1/store/{key} itself: the raw envelope
// round-trips, and bad keys / absent entries / storeless daemons answer
// 400/404.
func TestStoreEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := openTestStore(t, t.TempDir(), reg)
	srv := newTestServer(t, func(c *Config) { c.Registry = reg; c.Store = st })
	res, _ := simulateOK(t, srv, SimulateRequest{Benchmark: "STREAM", Mode: "pac"})
	key := res["configHash"].(string)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/store/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET store entry = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	blob := make([]byte, 0, 1<<20)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		blob = append(blob, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	e, err := store.DecodeEntry(key, blob)
	if err != nil {
		t.Fatalf("served envelope invalid: %v", err)
	}
	if e.Benchmark != "STREAM" || e.Mode != "PAC" {
		t.Errorf("entry identity = %s/%s", e.Benchmark, e.Mode)
	}

	if code, _, _ := do(t, srv.Handler(), "GET", "/v1/store/ffffffffffffffff", nil); code != http.StatusNotFound {
		t.Errorf("absent key = %d, want 404", code)
	}
	if code, _, _ := do(t, srv.Handler(), "GET", "/v1/store/NOT-HEX", nil); code != http.StatusBadRequest {
		t.Errorf("malformed key = %d, want 400", code)
	}

	bare := newTestServer(t, nil) // no store configured
	if code, _, _ := do(t, bare.Handler(), "GET", "/v1/store/"+key, nil); code != http.StatusNotFound {
		t.Errorf("storeless daemon = %d, want 404", code)
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

// TestPeerAnswerVerified: a peer whose envelope carries a valid checksum
// and identity but an answer section that disagrees with its own gob
// result — a checksum is not a signature — never gets those bytes served
// or stored verbatim. The fetching node answers with its own rendering
// of the decoded result and stores a rebuilt envelope.
func TestPeerAnswerVerified(t *testing.T) {
	req := SimulateRequest{Benchmark: "FFT", Mode: "pac"}
	regA := telemetry.NewRegistry()
	stA := openTestStore(t, t.TempDir(), regA)
	srvA := newTestServer(t, func(c *Config) { c.Registry = regA; c.Store = stA })
	resA, _ := simulateOK(t, srvA, req)
	key := resA["configHash"].(string)

	// Replace A's entry with one whose answer section lies.
	e, ok := stA.Get(key)
	if !ok {
		t.Fatal("A did not store its result")
	}
	if err := stA.PutAnswer(e, []byte(`{"Cycles":1}`)); err != nil {
		t.Fatal(err)
	}
	forged, _ := stA.GetRaw(key)
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	regB := telemetry.NewRegistry()
	stB := openTestStore(t, t.TempDir(), regB)
	srvB := newTestServer(t, func(c *Config) {
		c.Registry = regB
		c.Store = stB
		c.Peers = []string{tsA.URL}
		c.PeerTimeout = 5 * time.Second
	})
	for _, want := range []string{CachePeer, CacheMemo} {
		resB, src := simulateOK(t, srvB, req)
		if src != want {
			t.Fatalf("served from %q, want %q", src, want)
		}
		if !reflect.DeepEqual(resA["result"], resB["result"]) {
			t.Fatalf("%s answer differs from A's simulation: %v", want, resB["result"])
		}
	}
	blobB, ok := stB.GetRaw(key)
	if !ok || bytes.Equal(blobB, forged) {
		t.Fatal("B stored the peer's envelope verbatim")
	}
	want, _ := json.Marshal(e.Result)
	if a, ok := stB.Answer(key); !ok || !bytes.Equal(a.JSON, want) {
		t.Errorf("B's stored answer %s, want its rendering of the result", a.JSON)
	}
}

// TestSimulateReplySplicesResult: a synchronous simulate reply keeps the
// two-space indent on every field the job and the simulate result own
// (the smoke scripts grep for `"status": "done"` and `"cached": true`),
// carries the *sim.Result as its compact stored bytes, and decodes equal
// to the same job's GET view for every cache source.
func TestSimulateReplySplicesResult(t *testing.T) {
	d := newInlineDaemon(t, nil)
	h := d.srv.Handler()
	for _, step := range []struct {
		req  SimulateRequest
		want string
	}{
		{hitReqA, CacheMiss},
		{hitReqA, CacheMemo},
		{hitReqB, CacheMiss},
		{hitReqA, CacheDisk},
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
	res, rendered, err := sess.ResultJSON(context.Background(), "GS", coalesce.ModeDMC)
	if err != nil {
		t.Fatal(err)
	}
	for _, source := range []string{CacheMiss, CacheDisk} {
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
