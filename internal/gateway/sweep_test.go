package gateway

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/server"
)

// tenCellSweep is a 2-benchmark x 5-mode sweep: the shape that
// regenerates one row pair of the paper's per-mode tables.
func tenCellSweep(seed int) string {
	return fmt.Sprintf(`{"benchmarks": ["GS", "BFS"], "modes": ["none", "dmc", "pac", "sortnet", "rowbuf"], "seed": %d}`, seed)
}

// runSweep posts one sweep to the gateway and returns its routes.
func runSweep(t *testing.T, url, body string) []SweepRoute {
	t.Helper()
	resp, payload := postJSON(t, url+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, payload)
	}
	var out SweepResponse
	if err := json.Unmarshal([]byte(payload), &out); err != nil {
		t.Fatalf("decoding sweep response: %v", err)
	}
	return out.Routes
}

// perBackend counts a sweep's cells by serving backend.
func perBackend(routes []SweepRoute) map[string]int {
	n := map[string]int{}
	for _, r := range routes {
		n[r.Backend]++
	}
	return n
}

// TestSweepBalancedFanOut: a 10-cell sweep over two nodes puts 5 cells
// on each, even for a sweep whose ring owners split unevenly, and every
// cell reaches the node it was assigned (affinity hits only). Run twice
// on the same fleet, the sweep routes identically and the repeat is
// served entirely from the nodes' stores.
func TestSweepBalancedFanOut(t *testing.T) {
	backends := startBackends(t, 2)
	// No health probes: a probe timing out on a loaded test machine
	// would eject a node and change the live set between the sweeps.
	gw, front := testGateway(t, backends, func(c *Config) { c.HealthInterval = time.Hour })

	// Pick a seed whose cells the ring alone would split unevenly, so
	// the load bound has work to do.
	seed, skewed := 0, false
	for ; seed < 64 && !skewed; seed++ {
		var req SweepRequest
		if err := json.Unmarshal([]byte(tenCellSweep(seed)), &req); err != nil {
			t.Fatal(err)
		}
		pairs, err := gw.sweepPairs(req)
		if err != nil {
			t.Fatal(err)
		}
		owners := map[string]int{}
		for _, p := range pairs {
			o, _ := gw.ring.Owner(p.key)
			owners[o]++
		}
		skewed = owners[backends[0]] != 5
	}
	if !skewed {
		t.Fatal("no seed in 64 gives an uneven ring split")
	}
	body := tenCellSweep(seed - 1)

	routes := runSweep(t, front.URL, body)
	if len(routes) != 10 {
		t.Fatalf("sweep returned %d routes, want 10", len(routes))
	}
	if n := perBackend(routes); n[backends[0]] != 5 || n[backends[1]] != 5 {
		t.Errorf("cells per backend = %v, want 5 on each", n)
	}
	if miss := metric(t, gw, "pac_gw_affinity_misses_total"); miss != 0 {
		t.Errorf("pac_gw_affinity_misses_total = %v, want 0 on a healthy fleet", miss)
	}

	again := runSweep(t, front.URL, body)
	for i := range routes {
		if again[i].Backend != routes[i].Backend {
			t.Errorf("cell %s/%s moved from %s to %s on repeat",
				routes[i].Benchmark, routes[i].Mode, routes[i].Backend, again[i].Backend)
		}
		if !again[i].Cached {
			t.Errorf("repeat of %s/%s was not a cache hit", again[i].Benchmark, again[i].Mode)
		}
	}
}

// TestSweepEjectedNodeAllToSurvivor: with one of two nodes ejected, the
// load bound is the whole sweep, so every cell goes to the survivor.
func TestSweepEjectedNodeAllToSurvivor(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	stub := newStubBackend(t, healthy.Load, nil)
	real := startBackends(t, 1)
	// Probes slow enough that the survivor answers them in time on a
	// loaded test machine.
	gw, front := testGateway(t, []string{stub.URL, real[0]},
		func(c *Config) { c.HealthInterval = 100 * time.Millisecond })

	healthy.Store(false)
	waitFor(t, 5*time.Second, "stub ejection", func() bool {
		return metric(t, gw, "pac_gw_backend_up", "backend", stub.URL) == 0
	})

	routes := runSweep(t, front.URL, tenCellSweep(0))
	if n := perBackend(routes); n[real[0]] != 10 {
		t.Errorf("cells per backend = %v, want all 10 on the survivor %s", n, real[0])
	}
	for _, r := range routes {
		if r.Attempts != 1 {
			t.Errorf("cell %s/%s took %d attempts, want 1", r.Benchmark, r.Mode, r.Attempts)
		}
	}
}

// TestSweepReusesBackendConnections: a sweep holds up to its fan-out of
// cells in flight at once, 5 per node for a 10-cell sweep over two
// nodes. The gateway's client keeps that many idle connections per
// backend, so back-to-back sweeps dial no new ones: over several sweeps
// the nodes accept at most the fan-out's connections in all.
func TestSweepReusesBackendConnections(t *testing.T) {
	var dials atomic.Int64
	backends := make([]string, 2)
	for i := range backends {
		srv := server.New(server.Config{
			Options:     quickOpts(),
			Parallel:    1,
			Concurrency: 1,
			QueueDepth:  64,
			NodeID:      fmt.Sprintf("b%d", i),
		})
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		backends[i] = ts.URL
	}
	_, front := testGateway(t, backends, func(c *Config) { c.HealthInterval = time.Hour })

	const sweeps, fanOut = 4, 10
	for s := 0; s < sweeps; s++ {
		// A fresh seed per sweep: every cell simulates, so the cells of a
		// sweep overlap on their connections.
		if routes := runSweep(t, front.URL, tenCellSweep(100+s)); len(routes) != fanOut {
			t.Fatalf("sweep %d returned %d routes, want %d", s, len(routes), fanOut)
		}
	}
	if n := dials.Load(); n > fanOut {
		t.Errorf("%d sweeps opened %d backend connections, want at most the fan-out's %d", sweeps, n, fanOut)
	}
}
