package gateway

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/store"
	"github.com/pacsim/pac/internal/telemetry"
)

// startStoreBackend launches one pacd whose store is kept in a
// directory, so repeats are served from disk.
func startStoreBackend(t *testing.T) string {
	t.Helper()
	reg := telemetry.NewRegistry()
	st, err := store.Open(store.Config{Dir: filepath.Join(t.TempDir(), "store"), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := server.New(server.Config{
		Options:     quickOpts(),
		Parallel:    2,
		Concurrency: 2,
		QueueDepth:  16,
		NodeID:      "b0",
		Registry:    reg,
		Store:       st,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRelayCacheHeaderMatchesBody: through the gateway, a miss, a hit
// of a memory-only store (memo) and a hit of a directory store (disk)
// each carry an X-Pac-Cache header equal to the body's result.cache.
func TestRelayCacheHeaderMatchesBody(t *testing.T) {
	for _, backend := range []struct{ url, hit string }{
		{startBackends(t, 1)[0], server.CacheMemo},
		{startStoreBackend(t), server.CacheDisk},
	} {
		relayCacheHeaderMatchesBody(t, backend.url, backend.hit)
	}
}

func relayCacheHeaderMatchesBody(t *testing.T, backend, hit string) {
	t.Helper()
	_, front := testGateway(t, []string{backend}, nil)
	a := `{"benchmark": "STREAM", "mode": "pac"}`
	b := `{"benchmark": "STREAM", "mode": "pac", "seed": 2}`
	for i, step := range []struct{ body, want string }{
		{a, server.CacheMiss},
		{a, hit},
		{b, server.CacheMiss},
		{a, hit},
	} {
		resp, payload := postJSON(t, front.URL+"/v1/simulate?wait=30s", step.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s step %d: %d %s", hit, i, resp.StatusCode, payload)
		}
		var view struct {
			Result struct {
				Cache string `json:"cache"`
			} `json:"result"`
		}
		if err := json.Unmarshal([]byte(payload), &view); err != nil {
			t.Fatal(err)
		}
		if hdr := resp.Header.Get(server.CacheHeader); hdr != step.want || view.Result.Cache != step.want {
			t.Errorf("%s step %d: header %q, body result.cache %q, want %q", hit, i, hdr, view.Result.Cache, step.want)
		}
	}
}

// TestRelayStreamsEventsLive: a job's event stream read through the
// gateway delivers its first event while the job is still running, and a
// relayed JSON body is byte-identical to the backend's.
func TestRelayStreamsEventsLive(t *testing.T) {
	backend := startBackends(t, 1)[0]
	_, front := testGateway(t, []string{backend}, nil)

	resp, payload := postJSON(t, front.URL+"/v1/simulate",
		`{"benchmark": "STREAM", "mode": "pac", "accessesPerCore": 10000000, "seed": 7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow submit = %d %s", resp.StatusCode, payload)
	}
	var slow struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(payload), &slow); err != nil {
		t.Fatal(err)
	}
	status := func() string {
		resp, err := http.Get(front.URL + "/v1/jobs/" + slow.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Status string `json:"status"`
		}
		json.Unmarshal([]byte(readAll(t, resp)), &v)
		return v.Status
	}
	waitFor(t, 10*time.Second, "slow job running", func() bool { return status() == "running" })
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/jobs/"+slow.ID, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	events, err := http.Get(front.URL + "/v1/jobs/" + slow.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	if ct := events.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("relayed Content-Type = %q", ct)
	}
	first := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(events.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: ") {
				first <- sc.Text()
				break
			}
		}
		close(first)
		io.Copy(io.Discard, events.Body)
	}()

	// A quick job finishing on the same daemon broadcasts its progress
	// line to every running job, the slow one included.
	resp, quick := postJSON(t, front.URL+"/v1/simulate?wait=30s", `{"benchmark": "GS", "mode": "dmc"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quick simulate = %d %s", resp.StatusCode, quick)
	}
	select {
	case ev := <-first:
		if ev != "event: progress" {
			t.Fatalf("first relayed event = %q, want event: progress", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no event relayed while the job runs")
	}
	if s := status(); s != "running" {
		t.Errorf("slow job %s by the time its first event arrived", s)
	}

	var done struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(quick), &done); err != nil {
		t.Fatal(err)
	}
	direct, err := http.Get(backend + "/v1/jobs/" + done.ID)
	if err != nil {
		t.Fatal(err)
	}
	relayed, err := http.Get(front.URL + "/v1/jobs/" + done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d, r := readAll(t, direct), readAll(t, relayed); d != r {
		t.Errorf("relayed body differs from the backend's:\n%s\nvs\n%s", r, d)
	}
}
