package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/gateway"
	"github.com/pacsim/pac/internal/report"
	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/sim"
)

const (
	// serveSetups is how many times a serving run boots the fleet and
	// warms it; setup_s is the median, and the last fleet is measured.
	serveSetups = 5
	// maxBusyRetries bounds the 429 retries of one op.
	maxBusyRetries = 200
	// ckptEvery is the nodes' -checkpoint-interval, in simulated cycles:
	// below the shortest serve_sweep cell (about 140k cycles), so every
	// cell writes at least one checkpoint.
	ckptEvery = 100_000
)

// quickBase is the fleet's base options: what pacd -quick and pacgw
// -quick resolve requests against.
func quickBase() experiments.Options {
	return experiments.Options{Cores: 2, AccessesPerCore: 5_000, Scale: 0.02, Seed: 42,
		L1Bytes: 2 << 10, LLCBytes: 128 << 10}
}

// simConfigFor mirrors experiments.Session's configuration of a
// default-variant simulation, so in-process replays run the cells the
// fleet runs. The serve_sweep check compares the results, so a drift
// between the two shows as a failed check.
func simConfigFor(opts experiments.Options, bench string, mode coalesce.Mode) sim.Config {
	cfg := sim.DefaultConfig(bench, mode)
	cfg.Seed = opts.Seed
	cfg.Scale = opts.Scale
	cfg.AccessesPerCore = opts.AccessesPerCore
	cfg.Procs = []sim.ProcSpec{{Benchmark: bench, Cores: opts.Cores}}
	cfg.Faults = opts.Faults
	if opts.L1Bytes > 0 || opts.LLCBytes > 0 {
		h := hierarchyConfig(cfg)
		if opts.L1Bytes > 0 {
			h.L1.Size = opts.L1Bytes
		}
		if opts.LLCBytes > 0 {
			h.LLC.Size = opts.LLCBytes
		}
		cfg.Hierarchy = h
	}
	return cfg
}

// resultDigest fingerprints a result's JSON encoding, whitespace-free.
func resultDigest(raw []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:12]), nil
}

// jobView is the part of a pacd job view the client reads.
type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// client issues closed-loop ops against the gateway.
type client struct {
	http *http.Client
	gw   string
}

// call POSTs body to path on the gateway, retrying 429s, and returns the
// final 2xx reply. A 202 simulate reply is followed to the job's end.
func (c *client) call(ctx context.Context, path string, body []byte) (*http.Response, []byte, int, error) {
	retries := 0
	for {
		resp, b, err := postJSON(ctx, c.http, c.gw+path, body)
		if err != nil {
			return nil, nil, retries, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return resp, b, retries, nil
		case http.StatusAccepted:
			b, err = c.await(ctx, b)
			return resp, b, retries, err
		case http.StatusTooManyRequests:
			if retries++; retries > maxBusyRetries {
				return nil, nil, retries, errBusy
			}
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return nil, nil, retries, ctx.Err()
			}
		default:
			return nil, nil, retries, fmt.Errorf("%s answered %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
		}
	}
}

// await long-polls a job the gateway accepted until it is terminal.
func (c *client) await(ctx context.Context, accepted []byte) ([]byte, error) {
	var v jobView
	if err := json.Unmarshal(accepted, &v); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); {
		resp, b, err := getURL(ctx, c.http, c.gw+"/v1/jobs/"+v.ID+"?wait=30s")
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("job %s: status %d", v.ID, resp.StatusCode)
		}
		if err := json.Unmarshal(b, &v); err != nil {
			return nil, err
		}
		if v.Status != "queued" && v.Status != "running" {
			return b, nil
		}
	}
	return nil, fmt.Errorf("job %s never completed", v.ID)
}

// simulateReply is the checked content of one simulate reply.
type simulateReply struct {
	configHash, cache, digest string
}

func parseSimulate(body []byte) (simulateReply, error) {
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return simulateReply{}, err
	}
	if v.Status != "done" {
		return simulateReply{}, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	var sr struct {
		ConfigHash string          `json:"configHash"`
		Cache      string          `json:"cache"`
		Result     json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(v.Result, &sr); err != nil {
		return simulateReply{}, err
	}
	dg, err := resultDigest(sr.Result)
	return simulateReply{sr.ConfigHash, sr.Cache, dg}, err
}

// serviceObs is what pacbench observes of the fleet over one measured
// window: metric snapshots at both ends, client-side counts per cache
// source (X-Pac-Cache) and per backend (X-Pac-Backend or sweep routes).
type serviceObs struct {
	f             *fleet
	before, after snapshot
	ops           float64
	sources       map[string]float64
	backends      map[string]float64
	// fanout marks ops the gateway fans out over both nodes (sweeps).
	fanout bool
}

// reportService adds the service-layer metrics; obs nil (the kernel
// workload, which has no service layers) reports each as 0.
func reportService(res *result, obs *serviceObs) {
	if obs == nil {
		obs = &serviceObs{f: &fleet{}}
	}
	nd := func(name string) float64 {
		if obs.before == nil {
			return 0
		}
		return obs.f.nodeDelta(obs.before, obs.after, name)
	}
	gd := func(name string) float64 {
		if obs.before == nil {
			return 0
		}
		return obs.f.gwDelta(obs.before, obs.after, name)
	}
	perOp := func(v float64) float64 { return ratio(v, obs.ops) }
	frac := func(a, b float64) float64 { return ratio(a, a+b) }

	res.add("experiments.memo_hit_frac", frac(nd("pac_session_memo_hits_total"), nd("pac_session_memo_misses_total")), "frac")
	httpMS := 1000 * ratio(nd("pac_http_request_seconds_sum"), nd("pac_http_request_seconds_count"))
	simMS := 1000 * ratio(nd("pac_sim_wall_seconds_sum"), nd("pac_http_request_seconds_count"))
	res.add("server.http_ms", httpMS, "ms")
	res.add("server.sim_wall_ms", simMS, "ms")
	res.add("server.residual_ms", httpMS-simMS, "ms")
	total := 0.0
	for _, n := range obs.sources {
		total += n
	}
	for _, src := range []string{server.CacheMemo, server.CacheDisk, server.CachePeer, server.CacheMiss} {
		res.add("server.cache_"+src+"_frac", ratio(obs.sources[src], total), "frac")
	}
	res.add("server.machine_cache_hit_frac", frac(nd("pac_machine_cache_hits_total"), nd("pac_machine_cache_misses_total")), "frac")
	res.add("server.affinity_batched_frac", ratio(nd("pac_jobs_affinity_batched_total"), nd("pac_jobs_submitted_total")), "frac")
	res.add("server.rejected_frac", frac(nd("pac_jobs_rejected_total"), nd("pac_jobs_submitted_total")), "frac")
	res.add("store.hits_per_op", perOp(nd("pac_store_hits_total")), "count")
	res.add("store.writes_per_op", perOp(nd("pac_store_writes_total")), "count")
	res.add("store.peer_misses_per_op", perOp(nd("pac_store_peer_misses_total")), "count")
	res.add("wal.records_per_op", perOp(nd("pac_wal_records_total")), "count")
	res.add("checkpoint.writes_per_op", perOp(nd("pac_checkpoint_writes_total")), "count")
	// gateway.self_ms is the gateway's mean request time minus the backend
	// time on one op's critical path. A simulate op has one backend
	// request. A sweep waits for its busier shard, whose node runs its
	// cells one at a time, so its backend time is at least that node's
	// simulation wall time per sweep; the difference then also holds the
	// nodes' work outside the simulator.
	gwCount := gd("pac_gw_http_request_seconds_count")
	gwMS := 1000 * ratio(gd("pac_gw_http_request_seconds_sum"), gwCount)
	backendMS := httpMS
	if obs.fanout {
		backendMS = 0
		for _, n := range obs.f.nodes {
			d := obs.after[n.name]["pac_sim_wall_seconds_sum"] - obs.before[n.name]["pac_sim_wall_seconds_sum"]
			backendMS = max(backendMS, 1000*ratio(d, gwCount))
		}
	}
	gwSelf := 0.0
	if gwMS > 0 {
		gwSelf = gwMS - backendMS
	}
	res.add("gateway.self_ms", gwSelf, "ms")
	maxOps, sumOps := 0.0, 0.0
	for _, n := range obs.backends {
		sumOps += n
		if n > maxOps {
			maxOps = n
		}
	}
	skew := 0.0
	if len(obs.f.nodes) > 0 {
		skew = ratio(maxOps, sumOps/float64(len(obs.f.nodes)))
	}
	res.add("gateway.backend_skew", skew, "ratio")
	res.add("gateway.retries_per_op", perOp(gd("pac_gw_retries_total")), "count")
	res.add("gateway.sweep_redispatches", gd("pac_gw_sweep_redispatches_total"), "count")
}

// heapMBPacd is the largest live heap of the nodes at the window's end.
func (obs *serviceObs) heapMBPacd() float64 {
	m := 0.0
	for _, n := range obs.f.nodes {
		if v := obs.after[n.name]["pac_heap_alloc_bytes"] / (1 << 20); v > m {
			m = v
		}
	}
	return m
}

// gcPauseMS is the nodes' GC pause time over the window, in ms.
func (obs *serviceObs) gcPauseMS() float64 {
	return 1000 * obs.f.nodeDelta(obs.before, obs.after, "pac_gc_pause_seconds")
}

// bootFleets boots and warms a fleet serveSetups times, returning the
// last fleet and the median set-up time. Each set-up starts from empty
// data directories, so every warm-up pays the same misses.
func bootFleets(ctx context.Context, rc runConfig, warm func(*fleet) error) (*fleet, float64, error) {
	var times []float64
	for round := 0; round < serveSetups; round++ {
		dir := filepath.Join(rc.work, fmt.Sprintf("fleet%d", round))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		f, err := startFleet(ctx, rc.bin, dir, ckptEvery)
		if err != nil {
			return nil, 0, err
		}
		if err := warm(f); err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if round == serveSetups-1 {
			return f, median(times), nil
		}
		f.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
	panic("unreachable")
}

// e2e is the client side of one measured window.
type e2e struct {
	lat      []float64 // ms
	elapsed  time.Duration
	cpu      float64 // pacbench + fleet CPU seconds
	sources  map[string]float64
	backends map[string]float64
	// plainLat and tracedLat split lat by whether the op was traced.
	plainLat, tracedLat []float64
}

// addE2E reports the end-to-end metrics of a serving window.
func addE2E(res *result, w *e2e, setup, tail, maccesses, rssMB float64) {
	ops := float64(len(w.lat))
	res.add("setup_s", setup, "s")
	res.add("ops_per_s", ops/w.elapsed.Seconds(), "1/s")
	res.add("op_p50_ms", percentile(w.lat, 0.5), "ms")
	res.add("op_tail_ms", tailPercentile(w.lat, tail), "ms")
	res.add("sim_maccesses_per_s", maccesses/w.elapsed.Seconds()/1e6, "M/s")
	res.add("cpu_ms_per_op", 1000*ratio(w.cpu, ops), "ms")
	res.add("rss_peak_mb", rssMB, "MiB")
}

// opFunc is one closed-loop op of a client. It returns the reply's cache
// source and backend ("" when unknown) or an error, which counts as a
// failed op. tr is nil for an untraced op; span is the op's root span.
type opFunc func(ctx context.Context, client, i int, tr *tracer, span int64) (src, backend string, err error)

// measure runs clients closed-loop ops until the window closes, recording
// latency and the reply's cache source and backend. With a tracer, every
// other op of each client is traced, so traced and untraced ops share the
// window and their latency difference is the tracing overhead.
func measure(ctx context.Context, f *fleet, clients int, window time.Duration, res *result, op opFunc, tr *tracer) (*e2e, error) {
	w := &e2e{sources: map[string]float64{}, backends: map[string]float64{}}
	cpu0, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				var opTr *tracer
				if i%2 == 1 {
					opTr = tr
				}
				t0 := time.Now()
				s := opTr.begin("op")
				src, backend, err := op(ctx, c, i, opTr, s)
				opTr.end(s)
				d := float64(time.Since(t0)) / 1e6
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if errors.Is(err, errMismatch) {
						res.mismatches++
					}
					if len(res.notes) < 20 {
						res.note("client %d op %d failed: %v", c, i, err)
					}
				} else {
					w.lat = append(w.lat, d)
					if opTr != nil {
						w.tracedLat = append(w.tracedLat, d)
					} else {
						w.plainLat = append(w.plainLat, d)
					}
					w.sources[src]++
					w.backends[backend]++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	cpu1, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0 + selfCPUSeconds() - self0
	return w, nil
}

// ---------------------------------------------------------------------
// serve_hot

// The serve_hot workload: hotClients clients POST /v1/simulate through
// pacgw, each body drawn from a fixed hot set of small (-quick scale)
// requests. The hot set spans hotSeeds option sets, twice a node's
// session cap (8), so sessions churn and a steady share of answers comes
// from the disk store instead of the memo. The set-up's warm-up pass does
// the misses; after it the simulator does no work.
const (
	hotClients = 2
	hotSeeds   = 16
	// hotTail: a run holds thousands of ops, so p99.
	hotTail = 0.99
)

var (
	hotBenches = []string{"GS", "STREAM"}
	hotModes   = []string{"pac", "dmc"}
)

// hotKey is one request of the hot set with its expected answer.
type hotKey struct {
	body       []byte
	configHash string
	digest     string
	accesses   int64
	cfg        sim.Config
	res        *sim.Result
}

// hotSet builds the hot set and computes every answer in-process with
// experiments.Session, the code pacd answers with.
func hotSet(ctx context.Context, wseed uint64) ([]hotKey, error) {
	var keys []hotKey
	for s := 0; s < hotSeeds; s++ {
		seed := opSeed(wseed, 2000+s)
		var sess *experiments.Session
		for _, b := range hotBenches {
			for _, m := range hotModes {
				req := server.SimulateRequest{Benchmark: b, Mode: m, Seed: seed}
				opts, bench, mode, err := server.ResolveSimulate(quickBase(), req)
				if err != nil {
					return nil, err
				}
				if sess == nil {
					sess = experiments.NewSession(opts)
				}
				out, err := sess.Result(ctx, bench, mode)
				if err != nil {
					return nil, err
				}
				raw, err := json.Marshal(out)
				if err != nil {
					return nil, err
				}
				dg, err := resultDigest(raw)
				if err != nil {
					return nil, err
				}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				keys = append(keys, hotKey{
					body:       body,
					configHash: server.SimKey(server.OptionsHash(opts), bench, mode),
					digest:     dg,
					accesses:   out.Cache.Accesses,
					cfg:        simConfigFor(opts, bench, mode),
					res:        out,
				})
			}
		}
	}
	return keys, nil
}

// hotOp sends one hot-set request and checks the reply against the
// in-process answer.
func hotOp(ctx context.Context, c *client, k hotKey, tr *tracer, span int64) (string, string, error) {
	s := tr.child("gateway.simulate", span)
	resp, body, _, err := c.call(ctx, "/v1/simulate?wait=60s", k.body)
	tr.end(s)
	if err != nil {
		return "", "", err
	}
	s = tr.child("check", span)
	defer tr.end(s)
	rep, err := parseSimulate(body)
	if err != nil {
		return "", "", err
	}
	if rep.configHash != k.configHash || rep.digest != k.digest {
		return "", "", fmt.Errorf("%w: reply %s/%s, want %s/%s", errMismatch,
			rep.configHash, rep.digest, k.configHash, k.digest)
	}
	src := resp.Header.Get(server.CacheHeader)
	if src == "" {
		src = rep.cache
	}
	return src, resp.Header.Get("X-Pac-Backend"), nil
}

func runServeHot(ctx context.Context, rc runConfig) (*result, error) {
	res := &result{}
	keys, err := hotSet(ctx, rc.seed)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	res.note("hot set: %d requests over %d option sets; every reply checked against the in-process result", len(keys), hotSeeds)
	res.note("op_tail_ms is p%.0f", hotTail*100)

	warm := func(f *fleet) error {
		c := &client{f.client, f.gw.url}
		for _, k := range keys {
			if _, _, err := hotOp(ctx, c, k, nil, 0); err != nil {
				return err
			}
		}
		return nil
	}
	f, setup, err := bootFleets(ctx, rc, warm)
	if err != nil {
		return nil, err
	}
	defer f.stop()

	c := &client{f.client, f.gw.url}
	rngs := make([]*rand.Rand, hotClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(opSeed(rc.seed, 3000+i))))
	}
	var delivered int64
	var dmu sync.Mutex
	op := func(ctx context.Context, cl, i int, tr *tracer, span int64) (string, string, error) {
		k := keys[rngs[cl].Intn(len(keys))]
		src, backend, err := hotOp(ctx, c, k, tr, span)
		if err == nil {
			dmu.Lock()
			delivered += k.accesses
			dmu.Unlock()
		}
		return src, backend, err
	}

	if !rc.traced {
		w, err := measure(ctx, f, hotClients, rc.window, res, op, nil)
		if err != nil {
			return nil, err
		}
		// On serve_hot no simulation runs in the window; the metric counts
		// the simulated accesses of the results served.
		addE2E(res, w, setup, hotTail, float64(delivered), f.peakRSSMB()+procStatusMB(0, "VmHWM"))
		return res, nil
	}

	tr := newTracer()
	obs := &serviceObs{f: f}
	if obs.before, err = f.snapshot(ctx); err != nil {
		return nil, err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w, err := measure(ctx, f, hotClients, rc.window, res, op, tr)
	if err != nil {
		return nil, err
	}
	if obs.after, err = f.snapshot(ctx); err != nil {
		return nil, err
	}
	obs.ops, obs.sources, obs.backends = float64(len(w.lat)), w.sources, w.backends
	if err := peerMisses(ctx, f, tr); err != nil {
		return nil, err
	}

	pl := &perLayer{tr: tr, svc: obs, plainLat: w.plainLat, tracedLat: w.tracedLat, ms0: ms0}
	for _, k := range keys[:len(hotBenches)*len(hotModes)] {
		if err := replayCell(k.cfg, tr, &pl.times); err != nil {
			return nil, err
		}
	}
	for _, k := range keys {
		pl.counts.add(k.res)
	}
	if err := directStorage(rc.work, keys[0].res, keys[0].body, tr); err != nil {
		return nil, err
	}
	pl.report(res)
	return res, tr.write(filepath.Join(rc.work, "..", fmt.Sprintf("trace-serve_hot-%d.json", rc.seed)))
}

// errMismatch marks an op whose output failed its check; the op counts as
// failed.
var errMismatch = errors.New("output mismatch")

// ---------------------------------------------------------------------
// serve_sweep

// The serve_sweep workload: one client POSTs /v1/sweep over every mode
// of two benchmarks, one dense (GS) and one sparse (BFS), with a fresh
// seed per sweep, so every cell misses the memo, the store and every
// peer, then simulates, writes the store and the journal, and writes at
// least one checkpoint. A sweep waits for its slowest shard.
const (
	sweepAccesses = 10_000
	// sweepCheckEvery: every sweepCheckEvery-th sweep's merged table is
	// checked against an in-process run of the same cells.
	sweepCheckEvery = 8
	// sweepTail: a run holds about a hundred sweeps, so p90.
	sweepTail = 0.90
)

var sweepBenches = []string{"GS", "BFS"}

func sweepRequest(wseed uint64, i int) gateway.SweepRequest {
	modes := make([]string, len(kernelModes))
	for j, m := range kernelModes {
		modes[j] = m.String()
	}
	return gateway.SweepRequest{
		Benchmarks:      sweepBenches,
		Modes:           modes,
		AccessesPerCore: sweepAccesses,
		Seed:            opSeed(wseed, 5000+i),
	}
}

// sweepTable computes a sweep's merged table in-process, the way the
// gateway merges it, and returns its text with the cells' results.
func sweepTable(ctx context.Context, req gateway.SweepRequest) (string, []*sim.Result, []sim.Config, error) {
	table := report.NewTable("sweep", "benchmark", "mode", "cycles", "rawRequests", "memPackets", "coalesceEff%")
	var results []*sim.Result
	var cfgs []sim.Config
	var sess *experiments.Session
	for _, b := range req.Benchmarks {
		for _, m := range req.Modes {
			opts, bench, mode, err := server.ResolveSimulate(quickBase(), server.SimulateRequest{
				Benchmark: b, Mode: m, AccessesPerCore: req.AccessesPerCore, Seed: req.Seed})
			if err != nil {
				return "", nil, nil, err
			}
			if sess == nil {
				sess = experiments.NewSession(opts)
			}
			r, err := sess.Result(ctx, bench, mode)
			if err != nil {
				return "", nil, nil, err
			}
			table.AddRow(bench, mode.String(), r.Cycles, r.RawRequests, r.MemPackets, r.CoalescingEfficiency())
			results = append(results, r)
			cfgs = append(cfgs, simConfigFor(opts, bench, mode))
		}
	}
	var text strings.Builder
	err := table.WriteText(&text)
	return text.String(), results, cfgs, err
}

// sweepOp sends one sweep and returns its reply.
func sweepOp(ctx context.Context, c *client, req gateway.SweepRequest, tr *tracer, span int64) (gateway.SweepResponse, error) {
	var out gateway.SweepResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	s := tr.child("gateway.sweep", span)
	_, reply, _, err := c.call(ctx, "/v1/sweep", body)
	tr.end(s)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(reply, &out)
	return out, err
}

func runServeSweep(ctx context.Context, rc runConfig) (*result, error) {
	res := &result{}
	res.note("sweeps of %v x %d modes, %d accesses/core, a fresh seed each; every %dth merged table checked in-process",
		sweepBenches, len(kernelModes), sweepAccesses, sweepCheckEvery)
	res.note("op_tail_ms is p%.0f", sweepTail*100)

	warmRound := 0
	warm := func(f *fleet) error {
		warmRound++
		_, err := sweepOp(ctx, &client{f.client, f.gw.url}, sweepRequest(rc.seed, -warmRound), nil, 0)
		return err
	}
	f, setup, err := bootFleets(ctx, rc, warm)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	c := &client{f.client, f.gw.url}

	type sample struct {
		req   gateway.SweepRequest
		reply gateway.SweepResponse
	}
	var samples []sample
	var smu sync.Mutex
	obs := &serviceObs{f: f, sources: map[string]float64{}, backends: map[string]float64{}, fanout: true}
	op := func(ctx context.Context, _, i int, tr *tracer, span int64) (string, string, error) {
		req := sweepRequest(rc.seed, i)
		reply, err := sweepOp(ctx, c, req, tr, span)
		if err != nil {
			return "", "", err
		}
		if len(reply.Routes) != len(sweepBenches)*len(kernelModes) {
			return "", "", fmt.Errorf("%w: %d routes for %d cells", errMismatch,
				len(reply.Routes), len(sweepBenches)*len(kernelModes))
		}
		smu.Lock()
		defer smu.Unlock()
		for _, rt := range reply.Routes {
			obs.backends[rt.Backend]++
			if rt.Cached {
				obs.sources["cached"]++
			} else {
				obs.sources[server.CacheMiss]++
			}
		}
		if i%sweepCheckEvery == 0 {
			samples = append(samples, sample{req, reply})
		}
		return "", "", nil
	}

	// obs counts cells by backend and by cache source from the sweeps'
	// routes; every cell of a fresh-seed sweep is expected to miss.
	var tr *tracer
	var ms0 runtime.MemStats
	if rc.traced {
		tr = newTracer()
		runtime.ReadMemStats(&ms0)
	}
	if obs.before, err = f.snapshot(ctx); err != nil {
		return nil, err
	}
	w, err := measure(ctx, f, 1, rc.window, res, op, tr)
	if err != nil {
		return nil, err
	}
	if obs.after, err = f.snapshot(ctx); err != nil {
		return nil, err
	}
	rss := f.peakRSSMB() + procStatusMB(0, "VmHWM")
	obs.ops = float64(len(w.lat))

	var counts simCounts
	var cfgs []sim.Config
	minCycles := int64(-1)
	for _, s := range samples {
		text, results, cc, err := sweepTable(ctx, s.req)
		if err != nil {
			return nil, fmt.Errorf("in-process sweep: %w", err)
		}
		if text != s.reply.Text {
			res.failed++
			res.mismatch("sweep seed %d: merged table differs from the in-process run", s.req.Seed)
		}
		for _, r := range results {
			counts.add(r)
			if minCycles < 0 || r.Cycles < minCycles {
				minCycles = r.Cycles
			}
		}
		cfgs = cc
	}
	res.note("checked %d sampled sweeps in-process; their shortest cell ran %d cycles, checkpoint interval %d",
		len(samples), minCycles, ckptEvery)

	if !rc.traced {
		accesses := f.nodeDelta(obs.before, obs.after, "pac_cache_accesses_total")
		addE2E(res, w, setup, sweepTail, accesses, rss)
		return res, nil
	}

	if err := peerMisses(ctx, f, tr); err != nil {
		return nil, err
	}
	pl := &perLayer{tr: tr, svc: obs, plainLat: w.plainLat, tracedLat: w.tracedLat, ms0: ms0, counts: counts}
	for _, cfg := range cfgs {
		if err := replayCell(cfg, tr, &pl.times); err != nil {
			return nil, err
		}
	}
	if len(samples) == 0 {
		return nil, errors.New("no sweep completed in the window")
	}
	body, err := json.Marshal(server.SimulateRequest{Benchmark: sweepBenches[0], Mode: "pac",
		AccessesPerCore: sweepAccesses, Seed: samples[0].req.Seed})
	if err != nil {
		return nil, err
	}
	sampleRes, err := runSim(cfgs[0], nil, 0)
	if err != nil {
		return nil, err
	}
	if err := directStorage(rc.work, sampleRes, body, tr); err != nil {
		return nil, err
	}
	pl.report(res)
	return res, tr.write(filepath.Join(rc.work, "..", fmt.Sprintf("trace-serve_sweep-%d.json", rc.seed)))
}
