package server

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/store"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
)

// Two option sets that differ only in seed.
var (
	hitReqA = SimulateRequest{Benchmark: "STREAM", Mode: "pac"}
	hitReqB = SimulateRequest{Benchmark: "STREAM", Mode: "pac", Seed: 2}
)

// storeKinds are the two stores a daemon can run on, each with the cache
// source its hits answer: the memory-only store New opens when
// Config.Store is nil, and a store kept in a directory.
var storeKinds = []struct {
	name string
	disk bool
	hit  string
}{
	{"memory", false, CacheMemo},
	{"disk", true, CacheDisk},
}

// inlineDaemon is a daemon with a store and a journal, both sharing one
// registry.
type inlineDaemon struct {
	srv     *Server
	reg     *telemetry.Registry
	wal     *wal.Log
	walPath string
}

// newInlineDaemon builds an inlineDaemon on a directory store when disk
// is set, else on the memory-only store New opens.
func newInlineDaemon(t *testing.T, disk bool, mutate func(*Config)) inlineDaemon {
	t.Helper()
	dir := t.TempDir()
	d := inlineDaemon{reg: telemetry.NewRegistry(), walPath: filepath.Join(dir, "jobs.wal")}
	var st *store.Store
	if disk {
		st = openTestStore(t, filepath.Join(dir, "store"), d.reg)
	}
	d.wal, _ = openTestWAL(t, dir, d.reg)
	d.srv = newTestServer(t, func(c *Config) {
		c.Registry = d.reg
		c.Store = st
		c.WAL = d.wal
		if mutate != nil {
			mutate(c)
		}
	})
	return d
}

// records returns pac_wal_records_total once every journaled job has its
// terminal record: a job's done record is appended just after the job
// finishes, so a synchronous reply can arrive before it.
func (d inlineDaemon) records(t *testing.T) float64 {
	t.Helper()
	waitFor := time.Now().Add(10 * time.Second)
	for d.wal.Live() != 0 {
		if time.Now().After(waitFor) {
			t.Fatalf("journal still has %d live jobs", d.wal.Live())
		}
		time.Sleep(time.Millisecond)
	}
	v, _ := d.reg.Value("pac_wal_records_total")
	return v
}

// counterDeltas snapshots the named series and returns a func reporting
// how far each has moved since.
func counterDeltas(reg *telemetry.Registry, series map[string][]string) func() map[string]float64 {
	base := map[string]float64{}
	for name, labels := range series {
		base[name], _ = reg.Value(name, labels...)
	}
	return func() map[string]float64 {
		out := map[string]float64{}
		for name, labels := range series {
			v, _ := reg.Value(name, labels...)
			out[name] = v - base[name]
		}
		return out
	}
}

// TestInlineHitsAnswerLikeQueuedJobs: hits of a memory or a disk store
// are answered with the same configHash, cached flag, source and result a
// queued job produced, write no journal record, and leave a job that
// resolves by ID and whose event stream ends with done. Misses still
// journal submit and done.
func TestInlineHitsAnswerLikeQueuedJobs(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) { testInlineHitsAnswerLikeQueuedJobs(t, kind.disk, kind.hit) })
	}
}

func testInlineHitsAnswerLikeQueuedJobs(t *testing.T, disk bool, hit string) {
	d := newInlineDaemon(t, disk, nil)
	srv := d.srv
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	records := func() float64 { return d.records(t) }

	r0 := records()
	miss, src := simulateJobOK(t, srv, hitReqA)
	if src != CacheMiss {
		t.Fatalf("first request served from %q, want %q", src, CacheMiss)
	}
	if n := records() - r0; n != 2 {
		t.Errorf("miss appended %v journal records, want 2 (submit, done)", n)
	}
	missRes := miss["result"].(map[string]any)

	check := func(want string) {
		t.Helper()
		r0 := records()
		job, src := simulateJobOK(t, srv, hitReqA)
		if src != want {
			t.Fatalf("served from %q, want %q", src, want)
		}
		if n := records() - r0; n != 0 {
			t.Errorf("%s hit appended %v journal records, want 0", want, n)
		}
		res := job["result"].(map[string]any)
		if res["configHash"] != missRes["configHash"] || res["cached"] != true ||
			res["benchmark"] != missRes["benchmark"] || res["mode"] != missRes["mode"] {
			t.Errorf("%s hit result header fields %v, miss had %v", want, res, missRes)
		}
		if !reflect.DeepEqual(res["result"], missRes["result"]) {
			t.Errorf("%s hit result differs from the simulated one", want)
		}

		id := job["id"].(string)
		code, _, view := do(t, srv.Handler(), "GET", "/v1/jobs/"+id, nil)
		if code != http.StatusOK || view["status"] != string(StatusDone) ||
			!reflect.DeepEqual(view["result"], job["result"]) {
			t.Errorf("GET %s = %d %v", id, code, view["status"])
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		var last string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: ") {
				last = sc.Text()
			}
		}
		resp.Body.Close()
		if last != "event: done" {
			t.Errorf("%s hit event stream ended with %q, want event: done", want, last)
		}
	}
	check(hit)
	check(hit)
}

// TestInlineHitsBypassFullQueue: with the only worker busy and the queue
// full, a miss bounces with 429 but a store hit still answers 200.
func TestInlineHitsBypassFullQueue(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			srv := newInlineDaemon(t, kind.disk, func(c *Config) {
				c.Concurrency = 1
				c.QueueDepth = 1
			}).srv
			h := srv.Handler()
			simulateJobOK(t, srv, hitReqA)

			code, _, running := do(t, h, "POST", "/v1/simulate", slowRequest(201))
			if code != http.StatusAccepted {
				t.Fatalf("slow submit = %d", code)
			}
			waitForStatus(t, h, running["id"].(string), StatusRunning)
			code, _, queued := do(t, h, "POST", "/v1/simulate", slowRequest(202))
			if code != http.StatusAccepted {
				t.Fatalf("queued submit = %d", code)
			}
			t.Cleanup(func() {
				do(t, h, "DELETE", "/v1/jobs/"+queued["id"].(string), nil)
				do(t, h, "DELETE", "/v1/jobs/"+running["id"].(string), nil)
			})
			if code, _, _ := do(t, h, "POST", "/v1/simulate", slowRequest(203)); code != http.StatusTooManyRequests {
				t.Fatalf("miss on a full queue = %d, want 429", code)
			}
			if _, src := simulateJobOK(t, srv, hitReqA); src != kind.hit {
				t.Errorf("hit on a full queue served from %q, want %q", src, kind.hit)
			}
		})
	}
}

// TestInlineHitsRejectedWhileDraining: a draining daemon answers 503 to
// store hits, as it does to every other submission.
func TestInlineHitsRejectedWhileDraining(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			srv := newInlineDaemon(t, kind.disk, nil).srv
			simulateJobOK(t, srv, hitReqA)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err := srv.jobs.drain(ctx); err != nil {
				t.Fatal(err)
			}
			if code, _, _ := do(t, srv.Handler(), "POST", "/v1/simulate?wait=30s", hitReqA); code != http.StatusServiceUnavailable {
				t.Errorf("hit while draining = %d, want 503", code)
			}
		})
	}
}

// TestInlineHitCounters pins how a miss and a hit move the store and
// job counters; the inline path must move them exactly as the queued
// path does. The session memo counters do not move on the simulate path:
// the store is its only cache.
func TestInlineHitCounters(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) { testInlineHitCounters(t, kind.disk, kind.hit) })
	}
}

func testInlineHitCounters(t *testing.T, disk bool, hit string) {
	d := newInlineDaemon(t, disk, nil)
	srv, reg := d.srv, d.reg
	series := map[string][]string{
		telemetry.MetricMemoHits:    nil,
		telemetry.MetricMemoMisses:  nil,
		telemetry.MetricSimsStarted: nil,
		"pac_store_hits_total":      nil,
		"pac_store_misses_total":    nil,
		"pac_store_writes_total":    nil,
		"pac_jobs_submitted_total":  {"kind", "simulate"},
		"pac_jobs_finished_total":   {"kind", "simulate", "status", "done"},
	}
	want := func(storeHits, storeMisses float64) map[string]float64 {
		return map[string]float64{
			telemetry.MetricMemoHits:    0,
			telemetry.MetricMemoMisses:  0,
			telemetry.MetricSimsStarted: storeMisses,
			"pac_store_hits_total":      storeHits,
			"pac_store_misses_total":    storeMisses,
			"pac_store_writes_total":    storeMisses,
			"pac_jobs_submitted_total":  1,
			"pac_jobs_finished_total":   1,
		}
	}
	step := func(name string, req SimulateRequest, wantSrc string, want map[string]float64) {
		t.Helper()
		delta := counterDeltas(reg, series)
		if _, src := simulateJobOK(t, srv, req); src != wantSrc {
			t.Fatalf("%s: served from %q, want %q", name, src, wantSrc)
		}
		// A queued job's finished counter moves just after its reply can
		// go out, so give it a moment to land.
		got := delta()
		for deadline := time.Now().Add(5 * time.Second); !reflect.DeepEqual(got, want) && time.Now().Before(deadline); got = delta() {
			time.Sleep(time.Millisecond)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counter deltas %v, want %v", name, got, want)
		}
	}
	step("miss", hitReqA, CacheMiss, want(0, 1))
	step("hit", hitReqA, hit, want(1, 0))
	step("miss B", hitReqB, CacheMiss, want(0, 1))
	step("hit B", hitReqB, hit, want(1, 0))
	step("hit A again", hitReqA, hit, want(1, 0))
}

// TestInlineHitsLeaveNothingToReplay: after several hits and one miss
// still queued behind a busy worker, a journal read in its crashed state
// (reopened without being closed) replays only the miss.
func TestInlineHitsLeaveNothingToReplay(t *testing.T) {
	d := newInlineDaemon(t, true, func(c *Config) { c.Concurrency = 1 })
	srv, h := d.srv, d.srv.Handler()
	simulateJobOK(t, srv, hitReqA)
	simulateJobOK(t, srv, hitReqB)
	for i := 0; i < 3; i++ {
		simulateJobOK(t, srv, hitReqA) // disk hits
		simulateJobOK(t, srv, hitReqB)
	}
	d.records(t) // every miss so far has its done record
	code, _, slow := do(t, h, "POST", "/v1/simulate", slowRequest(301))
	if code != http.StatusAccepted {
		t.Fatalf("slow submit = %d", code)
	}
	missID := slow["id"].(string)
	t.Cleanup(func() { do(t, h, "DELETE", "/v1/jobs/"+missID, nil) })

	// Copy the live journal, as a crash would leave it, and replay the copy.
	raw, err := os.ReadFile(d.walPath)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(crashed, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recovered, err := wal.Open(wal.Config{Path: crashed, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recovered) != 1 || recovered[0].ID != missID {
		ids := make([]string, len(recovered))
		for i, j := range recovered {
			ids[i] = j.ID
		}
		t.Fatalf("replay recovered %v, want only the queued miss %s", ids, missID)
	}
}
