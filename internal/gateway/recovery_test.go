package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
)

// getJSON fetches one URL and decodes the JSON body.
func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestChaosWorkerRestartRecoversOrphans is the fleet-level crash-safety
// acceptance: a WAL-backed worker dies mid-job (listener gone, journal
// torn open with no terminal record), reboots on the same address, and
// replays the job from its journal. The gateway must
//
//  1. eject the corpse via the /readyz probe loop;
//  2. reinstate the rebooted worker once it reports ready, creating no
//     job anywhere in the fleet: the worker's own replay is the only
//     recovery path;
//  3. end with the recovered job finished, the only job in the fleet,
//     and its result identical to an uninterrupted run of the same
//     request elsewhere in the fleet.
func TestChaosWorkerRestartRecoversOrphans(t *testing.T) {
	walDir := t.TempDir()
	walPath := filepath.Join(walDir, "jobs.wal")

	// Victim worker on a manual listener so the reboot can reuse the
	// exact address the gateway knows it by.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	victimURL := "http://" + addr

	regA := telemetry.NewRegistry()
	walA, recoveredA, err := wal.Open(wal.Config{Path: walPath, Registry: regA})
	if err != nil {
		t.Fatal(err)
	}
	if len(recoveredA) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(recoveredA))
	}
	srvA := server.New(server.Config{
		Options:     quickOpts(),
		Parallel:    2,
		Concurrency: 2,
		QueueDepth:  64,
		NodeID:      "w0",
		Registry:    regA,
		WAL:         walA,
	})
	tsA := &httptest.Server{Listener: ln, Config: &http.Server{Handler: srvA.Handler()}}
	tsA.Start()

	survivor := startBackends(t, 1)[0]
	gw, front := testGateway(t, []string{victimURL, survivor}, func(c *Config) {
		c.FailThreshold = 1
		c.RecoverThreshold = 1
		// Probe often so ejection and reinstatement follow the crash and
		// the reboot closely; each probe still gets the fixed
		// probeTimeout, which a CPU-saturated node (the replayed sim
		// pins the cores) answers well within.
		c.HealthInterval = 100 * time.Millisecond
	})
	waitFor(t, 2*time.Second, "victim probed up", func() bool {
		return metric(t, gw, "pac_gw_backend_up", "backend", victimURL) == 1
	})

	// A long job lands on the victim and gets journaled. It must stay
	// in flight well past the reboot-probe-reconcile latency; the race
	// detector slows the sim ~10x, so shrink it there to keep the
	// absolute runtime inside the waits below.
	accesses := 5_000_000
	if raceEnabled {
		accesses = 1_000_000
	}
	body := fmt.Sprintf(`{"benchmark": "STREAM", "mode": "pac", "accessesPerCore": %d}`, accesses)
	r0, payload := postJSON(t, victimURL+"/v1/simulate", body)
	accepted := map[string]any{}
	if err := json.Unmarshal([]byte(payload), &accepted); err != nil {
		t.Fatalf("decoding accepted job: %v (%s)", err, payload)
	}
	if r0.StatusCode != http.StatusAccepted {
		t.Fatalf("async simulate on victim = %d %v", r0.StatusCode, accepted)
	}
	jobID := accepted["id"].(string)

	// Crash: tear the journal shut (no terminal record can ever be
	// written), then drop the listener. The expired-context drain stands
	// in for the process dying: it aborts the in-flight simulation so
	// the corpse stops burning CPU, while its cancel record — like any
	// real crash — never reaches the already-closed journal.
	if err := walA.Close(); err != nil {
		t.Fatal(err)
	}
	tsA.CloseClientConnections()
	tsA.Close()
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	cancel()
	srvA.Drain(expired)
	waitFor(t, 5*time.Second, "victim ejection", func() bool {
		return metric(t, gw, "pac_gw_backend_up", "backend", victimURL) == 0
	})

	// Reboot on the same address: the journal recovers the job and the
	// new daemon replays it during boot.
	regB := telemetry.NewRegistry()
	walB, recovered, err := wal.Open(wal.Config{Path: walPath, Registry: regB})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { walB.Close() })
	if len(recovered) != 1 || recovered[0].ID != jobID {
		t.Fatalf("recovered = %+v, want the crashed job %s", recovered, jobID)
	}
	srvB := server.New(server.Config{
		Options:     quickOpts(),
		Parallel:    2,
		Concurrency: 2,
		QueueDepth:  64,
		NodeID:      "w0",
		Registry:    regB,
		WAL:         walB,
		Recovered:   recovered,
	})
	var ln2 net.Listener
	waitFor(t, 5*time.Second, "rebinding the victim address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	tsB := &httptest.Server{Listener: ln2, Config: &http.Server{Handler: srvB.Handler()}}
	tsB.Start()
	t.Cleanup(tsB.Close)

	// The gateway reinstates the reborn worker.
	waitFor(t, 10*time.Second, "victim reinstatement", func() bool {
		return metric(t, gw, "pac_gw_backend_up", "backend", victimURL) == 1
	})

	// The replayed job finishes under its original ID on the reborn
	// worker...
	var final map[string]any
	waitFor(t, 30*time.Second, "recovered job completion", func() bool {
		code, job := getJSON(t, victimURL+"/v1/jobs/"+jobID)
		if code != http.StatusOK {
			return false
		}
		if s, _ := job["status"].(string); s == "done" {
			final = job
			return true
		} else if s == "failed" || s == "cancelled" {
			t.Fatalf("recovered job ended %v: %v", s, job["error"])
		}
		return false
	})
	if final["recovered"] != true {
		t.Error("replayed job not flagged recovered")
	}
	// ...as the fleet's only job: reinstating the victim simulated
	// nothing a second time, on the victim or on the survivor.
	_, victimJobs := getJSON(t, victimURL+"/v1/jobs")
	if jobs, _ := victimJobs["jobs"].([]any); len(jobs) != 1 || jobs[0].(map[string]any)["id"] != jobID {
		t.Errorf("victim jobs after recovery = %v, want only the replayed %s", victimJobs["jobs"], jobID)
	}
	_, survivorJobs := getJSON(t, survivor+"/v1/jobs")
	if jobs, _ := survivorJobs["jobs"].([]any); len(jobs) != 0 {
		t.Errorf("survivor jobs after recovery = %v, want none", jobs)
	}

	// ...and its result is identical to an uninterrupted run of the same
	// request on the survivor (modulo SkippedCycles driver accounting).
	r, refPayload := postJSON(t, survivor+"/v1/simulate?wait=60s", body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("reference run on survivor = %d %s", r.StatusCode, refPayload)
	}
	ref := map[string]any{}
	if err := json.Unmarshal([]byte(refPayload), &ref); err != nil {
		t.Fatal(err)
	}
	got := final["result"].(map[string]any)["result"].(map[string]any)
	want := ref["result"].(map[string]any)["result"].(map[string]any)
	delete(got, "SkippedCycles")
	delete(want, "SkippedCycles")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered result differs from uninterrupted run\n got: %v\nwant: %v", got, want)
	}

	// The fleet is whole again.
	hcode, health := getJSON(t, front.URL+"/healthz")
	if hcode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("fleet healthz after recovery = %d %v", hcode, health)
	}
	if up := metric(t, gw, "pac_gw_backend_up", "backend", survivor); up != 1 {
		t.Errorf("survivor marked down after recovery: %v", up)
	}
}
