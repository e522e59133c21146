package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/server"
)

// loadAnswer is one 200 reply of the mixed-load test: where the gateway
// routed it and the simulation result it carried.
type loadAnswer struct {
	key, backend string
	hot          bool
	result       []byte
}

// TestGatewayMixedLoad drives pacgw over two pacd backends the way a busy
// client population does: 200 concurrent clients issue 2,000 simulate
// requests, 95 % of them drawn from 8 hot keys and the rest each a cold
// key of its own (a unique seed, so a fresh simulation). A 429 is retried
// after its Retry-After, as a well-behaved client does. Each backend has
// one worker and a one-slot queue, so the misses (the first wave, then
// each cold key) overflow it and the retry path runs.
//
// The fleet must answer every request, and it must stay coherent under
// the load: every answer comes from its key's ring owner (no affinity
// miss), and every answer for one key carries identical result bytes.
func TestGatewayMixedLoad(t *testing.T) {
	const (
		clients    = 200
		requests   = 2_000
		hotRatio   = 0.95
		coldSeed   = 1_000_000
		maxRetries = 50
	)
	backends := startBackendsWith(t, 2, func(c *server.Config) {
		c.Concurrency, c.QueueDepth = 1, 1
	})
	gw, front := testGateway(t, backends, nil)

	// 8 hot keys: each benchmark at seed 0 (the fleet's base seed), then
	// each again at seed 1.
	benches := []string{"GS", "STREAM", "BFS", "FFT"}
	// 20,000 accesses per core: a cold miss holds its backend's one
	// worker long enough for the misses behind it to overflow the queue.
	body := func(bench string, seed uint64) []byte {
		return []byte(fmt.Sprintf(`{"benchmark": %q, "mode": "pac", "seed": %d, "accessesPerCore": 20000}`, bench, seed))
	}
	hot := make([][]byte, 8)
	for i := range hot {
		hot[i] = body(benches[i%len(benches)], uint64(i/len(benches)))
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	t.Cleanup(client.CloseIdleConnections)
	url := front.URL + "/v1/simulate?wait=60s"

	// issue posts one request until it gets a conclusive answer, sleeping
	// out each 429's Retry-After.
	var retried atomic.Int64
	issue := func(req []byte, isHot bool) (loadAnswer, error) {
		for attempt := 0; ; attempt++ {
			resp, err := client.Post(url, "application/json", bytes.NewReader(req))
			if err != nil {
				return loadAnswer{}, err
			}
			payload, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return loadAnswer{}, err
			}
			switch {
			case resp.StatusCode == http.StatusOK:
				var reply struct {
					Result struct {
						Result json.RawMessage `json:"result"`
					} `json:"result"`
				}
				if err := json.Unmarshal(payload, &reply); err != nil || len(reply.Result.Result) == 0 {
					return loadAnswer{}, fmt.Errorf("reply without a result (%v): %s", err, payload)
				}
				return loadAnswer{
					key:     resp.Header.Get("X-Pac-Key"),
					backend: resp.Header.Get("X-Pac-Backend"),
					hot:     isHot,
					result:  reply.Result.Result,
				}, nil
			case resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries:
				retried.Add(1)
				delay := time.Second
				if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
					delay = time.Duration(s) * time.Second
				}
				time.Sleep(delay)
			default:
				return loadAnswer{}, fmt.Errorf("status %d: %s", resp.StatusCode, payload)
			}
		}
	}

	var (
		next    atomic.Int64
		mu      sync.Mutex
		answers []loadAnswer
		errs    []error
		wg      sync.WaitGroup
		start   = make(chan struct{})
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start // the first wave lands at once, while every key misses
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for {
				i := next.Add(1) - 1
				if i >= requests {
					return
				}
				var req []byte
				isHot := rng.Float64() < hotRatio
				if isHot {
					req = hot[rng.Intn(len(hot))]
				} else {
					req = body(benches[rng.Intn(len(benches))], coldSeed+uint64(i))
				}
				a, err := issue(req, isHot)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					answers = append(answers, a)
				}
				mu.Unlock()
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if len(errs) > 0 {
		t.Fatalf("%d of %d requests failed; first: %v", len(errs), requests, errs[0])
	}
	if retried.Load() == 0 {
		t.Error("no request was throttled with 429: the retry path went untested")
	}
	if m := metric(t, gw, "pac_gw_affinity_misses_total"); m != 0 {
		t.Errorf("pac_gw_affinity_misses_total = %v, want 0", m)
	}
	first := map[string]loadAnswer{}
	hotKeys := 0
	for _, a := range answers {
		owner, _ := gw.ring.Owner(a.key)
		if a.key == "" || a.backend != owner {
			t.Fatalf("key %q answered by %q, ring owner %q", a.key, a.backend, owner)
		}
		f, seen := first[a.key]
		if !seen {
			first[a.key] = a
			if a.hot {
				hotKeys++
			}
			continue
		}
		if !bytes.Equal(a.result, f.result) {
			t.Fatalf("key %s: answers carry different results:\n%s\n%s", a.key, f.result, a.result)
		}
	}
	if hotKeys != len(hot) {
		t.Errorf("hot answers name %d distinct keys, want %d", hotKeys, len(hot))
	}
	t.Logf("%d answers, %d keys, %d throttled and retried", len(answers), len(first), retried.Load())
}
