package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/sim"
)

// The kernel workload: one goroutine, no HTTP, no disk. Each op is one
// sim.NewRunner(...).Run on a reused sim.Scratch, as a pacd worker runs a
// job. Ops walk the cells (benchmark × mode) in a fixed order and give
// every op a seed of its own, so each op builds its machine and
// simulates, as a new request does; the Scratch's machine cache (four
// shapes) never sees a shape again before evicting it.
var (
	kernelBenches = []string{"GS", "STREAM", "BFS", "SSCA2"}
	kernelModes   = []coalesce.Mode{coalesce.ModeNone, coalesce.ModeDMC, coalesce.ModePAC,
		coalesce.ModeSortNet, coalesce.ModeRowBuf}
)

const (
	kernelCores    = 8
	kernelAccesses = 20_000
	// kernelSeeds seeds per cell: op i runs cell i mod 20 on seed index
	// (i / 20) mod kernelSeeds, so 320 distinct runs before any repeats.
	kernelSeeds = 16
	// kernelSetups is how many times a run sets up; setup_s is the median.
	kernelSetups = 5
	// kernelWarmOps are run (on seeds no timed op uses) by each set-up.
	kernelWarmOps = 4
	// kernelRefSamples ops per run are re-run under the reference stepper
	// after the measured window.
	kernelRefSamples = 2
	// kernelTail: a run holds a few hundred ops, so p90 is the highest
	// percentile with ten samples beyond it.
	kernelTail = 0.90
)

// digestSeed is the workload seed digests.json was recorded for.
const digestSeed = 1

//go:embed digests.json
var digestsJSON []byte

type digestFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// opSeed derives the simulation seed of seed index idx from the workload
// seed (splitmix64; never 0, which pacd reads as "use the default").
func opSeed(wseed uint64, idx int) uint64 {
	z := wseed*0x9E3779B97F4A7C15 + uint64(idx+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z>>16 | 1
}

type kernelCell struct {
	bench string
	mode  coalesce.Mode
}

func kernelCells() []kernelCell {
	var cells []kernelCell
	for _, b := range kernelBenches {
		for _, m := range kernelModes {
			cells = append(cells, kernelCell{b, m})
		}
	}
	return cells
}

func kernelConfig(c kernelCell, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(c.bench, c.mode)
	cfg.Procs = []sim.ProcSpec{{Benchmark: c.bench, Cores: kernelCores}}
	cfg.AccessesPerCore = kernelAccesses
	cfg.Seed = seed
	return cfg
}

// kernelOp returns op i's config and its digest key.
func kernelOp(wseed uint64, i int) (sim.Config, string) {
	cells := kernelCells()
	c := cells[i%len(cells)]
	idx := (i / len(cells)) % kernelSeeds
	return kernelConfig(c, opSeed(wseed, idx)), fmt.Sprintf("%s/%d", cellName(c.bench, c.mode), idx)
}

// digest fingerprints a result: every field of sim.Result except
// SkippedCycles, which is event-kernel bookkeeping that differs between the
// event kernel and the reference stepper by design.
func digest(res *sim.Result) string {
	r := *res
	r.SkippedCycles = 0
	h := sha256.New()
	b, err := json.Marshal(&r)
	if err != nil {
		panic(err) // a sim.Result always encodes
	}
	h.Write(b)
	// The JSON codec skips the unexported state of the latency
	// accumulators; fold them in by value.
	fmt.Fprint(h, r.LoadLatency.N(), r.LoadLatency.Sum(), r.LoadLatency.Min(), r.LoadLatency.Max(),
		trimBins(r.LoadLatencyHist.Bins()), r.HMC.Latency.N(), r.HMC.Latency.Sum())
	if r.PAC != nil {
		fmt.Fprint(h, trimBins(r.PAC.SizeHist.Bins()), trimBins(r.PAC.Occupancy.Bins()),
			r.PAC.Stage2Lat.Sum(), r.PAC.Stage3Lat.Sum(), r.PAC.OverallLat.Sum(), r.PAC.MAQFill.Sum())
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// trimBins drops trailing empty histogram bins, whose number depends on
// pre-sized capacity, not on the run.
func trimBins(b []int64) []int64 {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return b
}

// runSim builds and runs one simulation, wrapping the two calls in spans
// under op.
func runSim(cfg sim.Config, tr *tracer, op int64) (*sim.Result, error) {
	s := tr.child("sim.NewRunner", op)
	r, err := sim.NewRunner(cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.child("sim.Run", op)
	res, err := r.Run()
	tr.end(s)
	return res, err
}

// kernelSetup builds a fresh Scratch and warms the process on ops no
// timed op repeats.
func kernelSetup(wseed uint64, round int) (*sim.Scratch, error) {
	sc := sim.NewScratch()
	cells := kernelCells()
	for w := 0; w < kernelWarmOps; w++ {
		cfg := kernelConfig(cells[(w*len(kernelModes)+2)%len(cells)], opSeed(wseed, 1000+round*kernelWarmOps+w))
		cfg.Scratch = sc
		if _, err := runSim(cfg, nil, 0); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// kernelWindow is the outcome of one measured window of kernel ops.
type kernelWindow struct {
	lat      []float64 // op latencies, ms
	elapsed  time.Duration
	accesses int64
	counts   simCounts
	// plainLat and tracedLat split lat by whether the op was traced;
	// allocs are the heap allocations of each traced op.
	plainLat, tracedLat []float64
	allocs              []float64
	digests             map[int]string
}

// kernelRun runs ops until the window closes. With a tracer, every other
// pass over the cells is traced (span tree per op, allocations counted),
// so the traced and untraced ops run the same cells under the same
// conditions and their latency difference is the tracing overhead.
func kernelRun(ctx context.Context, wseed uint64, sc *sim.Scratch, window time.Duration,
	tr *tracer, want map[string]string, res *result) kernelWindow {
	w := kernelWindow{digests: map[int]string{}}
	ncells := len(kernelCells())
	var ms runtime.MemStats
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		cfg, key := kernelOp(wseed, i)
		cfg.Scratch = sc
		var opTr *tracer
		if (i/ncells)%2 == 1 {
			opTr = tr
		}
		var mallocs uint64
		if opTr != nil {
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs
		}
		t0 := time.Now()
		op := opTr.begin("op")
		out, err := runSim(cfg, opTr, op)
		opTr.end(op)
		d := float64(time.Since(t0)) / 1e6
		if opTr != nil {
			runtime.ReadMemStats(&ms)
			w.allocs = append(w.allocs, float64(ms.Mallocs-mallocs))
		}
		res.attempted++
		if err != nil {
			res.failed++
			res.note("op %d (%s) failed: %v", i, key, err)
			continue
		}
		w.lat = append(w.lat, d)
		if opTr != nil {
			w.tracedLat = append(w.tracedLat, d)
		} else {
			w.plainLat = append(w.plainLat, d)
		}
		w.accesses += out.Cache.Accesses
		w.counts.add(out)
		dg := digest(out)
		w.digests[i] = dg
		if want != nil && want[key] != dg {
			res.failed++
			res.mismatch("op %d (%s): digest %s, recorded %s", i, key, dg, want[key])
		}
	}
	w.elapsed = time.Since(start)
	return w
}

// kernelReferenceCheck re-runs sampled ops under the reference stepper on
// a private Scratch and compares digests.
func kernelReferenceCheck(wseed uint64, digests map[int]string, res *result) error {
	if len(digests) == 0 {
		return nil
	}
	ops := make([]int, 0, len(digests))
	for i := range digests {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	checked := 0
	for k := 0; k < kernelRefSamples; k++ {
		i := ops[int((wseed+uint64(k)*7919)%uint64(len(ops)))]
		cfg, key := kernelOp(wseed, i)
		cfg.ReferenceStepper = true
		out, err := runSim(cfg, nil, 0)
		if err != nil {
			return fmt.Errorf("reference run of op %d: %w", i, err)
		}
		if dg := digest(out); dg != digests[i] {
			res.failed++
			res.mismatch("op %d (%s): event kernel digest %s, reference stepper %s", i, key, digests[i], dg)
		}
		checked++
	}
	res.note("reference stepper re-ran %d sampled ops", checked)
	return nil
}

func loadDigests(wseed uint64) (map[string]string, error) {
	if wseed != digestSeed {
		return nil, nil
	}
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if f.Seed != digestSeed || len(f.Digests) != len(kernelCells())*kernelSeeds {
		return nil, fmt.Errorf("digests.json: recorded for seed %d with %d digests; run -record-digests", f.Seed, len(f.Digests))
	}
	return f.Digests, nil
}

func runKernel(ctx context.Context, rc runConfig) (*result, error) {
	res := &result{}
	var setups []float64
	var sc *sim.Scratch
	var want map[string]string
	for round := 0; round < kernelSetups; round++ {
		t0 := time.Now()
		var err error
		if want, err = loadDigests(rc.seed); err != nil {
			return nil, err
		}
		if sc, err = kernelSetup(rc.seed, round); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if want != nil {
		res.note("checking every op against digests recorded for seed %d", digestSeed)
	} else {
		res.note("seed %d has no recorded digests; ops are checked by the reference stepper sample", rc.seed)
	}
	res.note("op_tail_ms is p%.0f", kernelTail*100)

	if rc.traced {
		return kernelTraced(ctx, rc, sc, want, res)
	}

	cpu0 := selfCPUSeconds()
	w := kernelRun(ctx, rc.seed, sc, rc.window, nil, want, res)
	cpu := selfCPUSeconds() - cpu0
	if err := kernelReferenceCheck(rc.seed, w.digests, res); err != nil {
		return nil, err
	}
	ops := float64(len(w.lat))
	secs := w.elapsed.Seconds()
	res.add("setup_s", median(setups), "s")
	res.add("ops_per_s", ops/secs, "1/s")
	res.add("op_p50_ms", percentile(w.lat, 0.5), "ms")
	res.add("op_tail_ms", tailPercentile(w.lat, kernelTail), "ms")
	res.add("sim_maccesses_per_s", float64(w.accesses)/secs/1e6, "M/s")
	res.add("cpu_ms_per_op", 1000*cpu/ops, "ms")
	res.add("rss_peak_mb", procStatusMB(0, "VmHWM"), "MiB")
	return res, nil
}

// kernelTraced is the traced run: a window of ops, every other pass over
// the cells traced, then replays of every cell through the single layers
// and direct store and WAL calls.
func kernelTraced(ctx context.Context, rc runConfig, sc *sim.Scratch, want map[string]string, res *result) (*result, error) {
	tr := newTracer()
	hits0, misses0, _ := sc.MachineCacheStats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w := kernelRun(ctx, rc.seed, sc, rc.window, tr, want, res)
	hits1, misses1, _ := sc.MachineCacheStats()
	if err := kernelReferenceCheck(rc.seed, w.digests, res); err != nil {
		return nil, err
	}

	pl := &perLayer{
		tr:        tr,
		counts:    w.counts,
		allocs:    w.allocs,
		machHit:   ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)),
		plainLat:  w.plainLat,
		tracedLat: w.tracedLat,
		ms0:       ms0,
	}
	for _, c := range kernelCells() {
		if err := replayCell(kernelConfig(c, opSeed(rc.seed, 0)), tr, &pl.times); err != nil {
			return nil, err
		}
	}
	cfg, _ := kernelOp(rc.seed, 2)
	sample, err := runSim(cfg, nil, 0)
	if err != nil {
		return nil, err
	}
	// The kernel has no requests; the journal payload is the size of a
	// simulate body.
	payload := []byte(`{"benchmark":"GS","mode":"pac","seed":1234567890123}`)
	if err := directStorage(rc.work, sample, payload, tr); err != nil {
		return nil, err
	}
	pl.report(res)
	return res, tr.write(filepath.Join(rc.work, "..", fmt.Sprintf("trace-kernel-%d.json", rc.seed)))
}

// recordDigests writes the digests of every kernel op for the default
// seed.
func recordDigests(ctx context.Context, path string) error {
	f := digestFile{Seed: digestSeed, Digests: map[string]string{}}
	sc := sim.NewScratch()
	n := len(kernelCells()) * kernelSeeds
	for i := 0; i < n && ctx.Err() == nil; i++ {
		cfg, key := kernelOp(digestSeed, i)
		cfg.Scratch = sc
		out, err := runSim(cfg, nil, 0)
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, key, err)
		}
		f.Digests[key] = digest(out)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
