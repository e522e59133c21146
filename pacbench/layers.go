package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/hmc"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/mshr"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/workload"
)

// simCounts sums the simulator-layer counters of many sim.Results; the
// per-layer ratios are taken over the sums.
type simCounts struct {
	cycles, skipped                   int64
	accesses, llcMisses, prefetches   int64
	raw, packets, reissues            int64
	pacRaw, pacCompares, pacBypass    int64
	merges, allocations, mshrCompares int64
	hmcRequests, rowHits, hmcBytes    int64
}

func (c *simCounts) add(r *sim.Result) {
	c.cycles += r.Cycles
	c.skipped += r.SkippedCycles
	c.accesses += r.Cache.Accesses
	c.llcMisses += r.Cache.LLCMisses
	c.prefetches += r.PrefetchRequests
	c.raw += r.RawRequests
	c.packets += r.MemPackets
	c.reissues += r.MSHR.Reissues
	if r.PAC != nil {
		c.pacRaw += r.PAC.RawIn
		c.pacCompares += r.PAC.Comparisons
		c.pacBypass += r.PAC.Bypassed
	}
	c.merges += r.MSHR.Merges
	c.allocations += r.MSHR.Allocations
	c.mshrCompares += r.MSHR.Comparisons
	c.hmcRequests += r.HMC.Requests
	c.rowHits += r.HMC.RowHits
	c.hmcBytes += r.HMC.PayloadBytes + r.HMC.ControlBytes
}

// report adds the count-based simulator-layer metrics.
func (c *simCounts) report(res *result) {
	f := func(a, b int64) float64 { return ratio(float64(a), float64(b)) }
	res.add("engine.skipped_frac", f(c.skipped, c.cycles), "frac")
	res.add("cache.llc_miss_frac", f(c.llcMisses, c.accesses), "frac")
	res.add("prefetch.requests_per_access", f(c.prefetches, c.accesses), "count")
	res.add("coalesce.efficiency_pct", 100*f(c.raw-(c.packets-c.reissues), c.raw), "%")
	res.add("core.comparisons_per_raw", f(c.pacCompares, c.pacRaw), "count")
	res.add("core.bypass_frac", f(c.pacBypass, c.pacRaw), "frac")
	res.add("mshr.merge_frac", f(c.merges, c.merges+c.allocations), "frac")
	res.add("mshr.comparisons_per_packet", f(c.mshrCompares, c.packets), "count")
	res.add("hmc.row_hit_frac", f(c.rowHits, c.hmcRequests), "frac")
	res.add("hmc.bytes_per_packet", f(c.hmcBytes, c.hmcRequests), "B")
}

// replayTimes sums the host time of standalone replays of captured
// streams through single layers, with the work each replay did.
type replayTimes struct {
	run                        time.Duration // the whole simulation, same cells
	stepped                    int64         // cycles the event kernel stepped
	allocs                     []float64     // heap allocations of each whole simulation
	cache, pipe, mshr, hmc     time.Duration
	accesses, raw, pkts, dsptc int64
}

// report adds the replay-timed metrics. engine.self_ns_per_step is the
// simulation's host time minus the four replayed layer times, per
// stepped cycle: what the event kernel and the simulator's own glue cost.
func (t *replayTimes) report(res *result) {
	ns := func(d time.Duration, n int64) float64 { return ratio(float64(d), float64(n)) }
	rest := t.run - t.cache - t.pipe - t.mshr - t.hmc
	res.add("engine.self_ns_per_step", ns(rest, t.stepped), "ns")
	res.add("cache.ns_per_access", ns(t.cache, t.accesses), "ns")
	res.add("coalesce.ns_per_raw", ns(t.pipe, t.raw), "ns")
	res.add("mshr.ns_per_packet", ns(t.mshr, t.pkts), "ns")
	res.add("hmc.ns_per_packet", ns(t.hmc, t.dsptc), "ns")
}

// replayCell times one simulation of cfg, captures its LLC-level request
// stream with sim.Config.TraceSink in a second run, and replays the cell's
// streams through each layer on its own: the CPU access stream through
// cache.Hierarchy, the LLC stream through the mode's coalescing pipeline,
// the pipeline's packets through an MSHR file, and the dispatched packets
// into the HMC device.
//
// The replays are open loop: nothing pushes back on them. The hierarchy
// sees every fill complete at once, the MSHR file releases its oldest
// entry whenever it is full, and the device queues without limit. Their
// times are the cost of each layer's own work under that stream, not of
// the closed-loop simulation, and engine.self_ns_per_step inherits that.
func replayCell(cfg sim.Config, tr *tracer, t *replayTimes) error {
	op := tr.begin("replay." + cfg.Procs[0].Benchmark + "." + cfg.Mode.String())
	defer tr.end(op)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	res, err := runSim(cfg, tr, op)
	if err != nil {
		return err
	}
	t.run += time.Since(start)
	runtime.ReadMemStats(&ms)
	t.allocs = append(t.allocs, float64(ms.Mallocs-mallocs))
	t.stepped += res.Cycles - res.SkippedCycles

	var llc []mem.Request
	capture := cfg
	capture.TraceSink = func(q mem.Request) { llc = append(llc, q) }
	if _, err := runSim(capture, nil, 0); err != nil {
		return err
	}

	stream, err := accessStream(cfg)
	if err != nil {
		return err
	}
	s := tr.child("replay.cache", op)
	t.cache += replayCache(cfg, stream)
	tr.end(s)
	t.accesses += int64(len(stream))

	s = tr.child("replay.coalesce", op)
	pkts, d := replayPipeline(cfg, llc)
	tr.end(s)
	t.pipe += d
	t.raw += int64(len(llc))

	s = tr.child("replay.mshr", op)
	dispatched, d := replayMSHR(cfg, pkts)
	tr.end(s)
	t.mshr += d
	t.pkts += int64(len(pkts))

	s = tr.child("replay.hmc", op)
	t.hmc += replayHMC(dispatched)
	tr.end(s)
	t.dsptc += int64(len(dispatched))
	return nil
}

// coreAccess is one CPU access of the replayed stream.
type coreAccess struct {
	core, proc int
	a          workload.Access
}

// accessStream generates the cell's CPU access stream, cores interleaved
// round robin, fences dropped (they never reach the hierarchy).
func accessStream(cfg sim.Config) ([]coreAccess, error) {
	type coreGen struct {
		gen         workload.Generator
		proc, local int
	}
	var cores []coreGen
	for p, spec := range cfg.Procs {
		g, err := workload.New(spec.Benchmark, workload.Config{
			Cores: spec.Cores, Seed: cfg.Seed, Proc: p, Scale: cfg.Scale,
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < spec.Cores; i++ {
			cores = append(cores, coreGen{g, p, i})
		}
	}
	out := make([]coreAccess, 0, len(cores)*cfg.AccessesPerCore)
	for k := 0; k < cfg.AccessesPerCore; k++ {
		for c, cg := range cores {
			a := cg.gen.Next(cg.local)
			if a.Op != mem.OpFence {
				out = append(out, coreAccess{c, cg.proc, a})
			}
		}
	}
	return out, nil
}

// hierarchyConfig mirrors the simulator's default: Table 1 caches sized
// for the run's cores unless the config sets its own.
func hierarchyConfig(cfg sim.Config) cache.HierarchyConfig {
	if cfg.Hierarchy.Cores != 0 {
		return cfg.Hierarchy
	}
	total := 0
	for _, p := range cfg.Procs {
		total += p.Cores
	}
	return cache.DefaultHierarchyConfig(total)
}

func replayCache(cfg sim.Config, stream []coreAccess) time.Duration {
	h := cache.NewHierarchy(hierarchyConfig(cfg))
	var out cache.Outcome
	var ids uint64
	start := time.Now()
	for i, ca := range stream {
		h.AccessInto(&out, ca.core, ca.a.Addr, ca.a.Op, ca.proc, int64(i), &ids)
		if out.MissValid {
			h.FillDone(mem.BlockNumber(out.Miss.Addr))
		}
	}
	return time.Since(start)
}

// newPipeline builds the coalescing pipeline the simulator builds for the
// config's mode, with its default parameters.
func newPipeline(cfg sim.Config, ids func() uint64) coalesce.Pipeline {
	p := cfg.PAC
	if p.Streams == 0 {
		p = core.DefaultParams()
	}
	switch cfg.Mode {
	case coalesce.ModePAC:
		return coalesce.PACAdapter{PAC: core.New(p, ids)}
	case coalesce.ModeSortNet:
		return coalesce.NewSortingCoalescer(p.Streams, p.Timeout, p.Device.MaxReqBlocks(), ids)
	case coalesce.ModeRowBuf:
		return coalesce.NewRowBufferCoalescer(hmc.DefaultConfig().RowBytes, p.Streams, p.Timeout, ids)
	default:
		return coalesce.NewPassthrough(p.InputQueueDepth, ids)
	}
}

// replayPipeline feeds the LLC stream into the mode's pipeline at each
// request's recorded issue cycle, skipping idle stretches the way the
// event kernel does, and drains every packet as soon as it is ready.
// Write-backs are not marked in the captured stream, so stores go to the
// write-back queue and everything else to the miss queue.
func replayPipeline(cfg sim.Config, reqs []mem.Request) ([]mem.Coalesced, time.Duration) {
	var id uint64
	pipe := newPipeline(cfg, func() uint64 { id++; return id })
	out := make([]mem.Coalesced, 0, len(reqs))
	now := int64(0)
	step := func(limit int64) {
		if next := pipe.NextWake(now); next > now+1 {
			if next > limit {
				next = limit
			}
			if next-1 > now {
				pipe.SkipTo(next - 1)
				now = next - 1
			}
		}
		pipe.Tick()
		now++
		for {
			p, ok := pipe.Pop()
			if !ok {
				break
			}
			out = append(out, p)
		}
	}
	start := time.Now()
	for _, q := range reqs {
		for now < q.Issue {
			step(q.Issue)
		}
		for !pipe.Enqueue(q, q.Op == mem.OpStore) {
			step(now + 1)
		}
	}
	for guard := 0; !pipe.Drained() && guard < 1<<24; guard++ {
		step(now + 1<<20)
	}
	return out, time.Since(start)
}

// replayMSHR admits the packets into an MSHR file sized like the
// simulator's, merging where the mode merges, and returns the packets
// that allocated an entry (the ones the device receives).
func replayMSHR(cfg sim.Config, pkts []mem.Coalesced) ([]mem.Coalesced, time.Duration) {
	maxBlocks := cfg.PAC.Device.MaxReqBlocks()
	if cfg.PAC.Streams == 0 {
		maxBlocks = core.DefaultParams().Device.MaxReqBlocks()
	}
	f := mshr.New(mshr.Config{
		Entries:       cfg.MSHRs,
		MaxSubentries: cfg.MaxSubentries,
		Adaptive:      cfg.Mode.AdaptiveMSHR(),
		MaxBlocks:     maxBlocks,
	})
	merges := cfg.Mode.MergesInMSHR()
	dispatched := make([]mem.Coalesced, 0, len(pkts))
	live := make([]int, 0, len(pkts))
	head := 0
	start := time.Now()
	for _, p := range pkts {
		if merges {
			if _, ok := f.TryMerge(p); ok {
				continue
			}
		}
		for {
			if e, ok := f.Allocate(p); ok {
				live = append(live, e)
				dispatched = append(dispatched, p)
				break
			}
			f.Release(live[head])
			head++
		}
	}
	return dispatched, time.Since(start)
}

// replayHMC submits the packets to a default device at their assembly
// cycles and collects every response.
func replayHMC(pkts []mem.Coalesced) time.Duration {
	d := hmc.New(hmc.DefaultConfig())
	now := int64(0)
	start := time.Now()
	for i, p := range pkts {
		if p.Assembled > now {
			now = p.Assembled
		}
		d.Submit(p, now)
		if i%64 == 63 {
			d.PopCompleted(now)
		}
	}
	for d.Outstanding() > 0 {
		at, _ := d.NextCompletion()
		d.PopCompleted(at)
	}
	return time.Since(start)
}

// cellName labels a (benchmark, mode) cell.
func cellName(bench string, mode coalesce.Mode) string {
	return fmt.Sprintf("%s/%s", bench, mode)
}

// perLayer gathers what a traced run measured and reports every
// per-layer metric, in the same order on every workload.
type perLayer struct {
	tr     *tracer
	svc    *serviceObs // nil on the kernel workload
	counts simCounts
	times  replayTimes
	// allocs are per-op heap allocations (kernel ops); nil takes the
	// replayed simulations' instead.
	allocs []float64
	// machHit is the kernel Scratch's machine-cache hit share; the
	// serving workloads report the nodes' instead.
	machHit float64
	// plainLat and tracedLat are the latencies of the window's untraced and
	// traced ops, ms.
	plainLat, tracedLat []float64
	ms0                 runtime.MemStats // pacbench's, at the traced window's start
}

func (p *perLayer) report(res *result) {
	layers := p.tr.layers()
	p.counts.report(res)
	p.times.report(res)
	res.add("sim.build_ms", layers["sim.NewRunner"].meanMS(), "ms")
	res.add("sim.run_ms", layers["sim.Run"].meanMS(), "ms")
	allocs := p.allocs
	if allocs == nil {
		allocs = p.times.allocs
	}
	res.add("sim.allocs_per_run", median(allocs), "count")
	machHit := p.machHit
	if p.svc != nil {
		hits := p.svc.f.nodeDelta(p.svc.before, p.svc.after, "pac_machine_cache_hits_total")
		misses := p.svc.f.nodeDelta(p.svc.before, p.svc.after, "pac_machine_cache_misses_total")
		machHit = ratio(hits, hits+misses)
	}
	res.add("sim.machine_cache_hit_frac", machHit, "frac")
	res.add("client.op_self_ms", layers["op"].selfMS(), "ms")
	reportService(res, p.svc)
	reportDirect(res, layers)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pauseMS := float64(ms.PauseTotalNs-p.ms0.PauseTotalNs) / 1e6
	heapPacd, rssGW := 0.0, 0.0
	if p.svc != nil {
		pauseMS += p.svc.gcPauseMS()
		heapPacd = p.svc.heapMBPacd()
		// pacgw exports no runtime gauges; its resident set stands in.
		rssGW = procStatusMB(p.svc.f.gw.cmd.Process.Pid, "VmRSS")
	}
	res.add("runtime.gc_pause_ms_per_op", ratio(pauseMS, float64(len(p.tracedLat))), "ms")
	res.add("runtime.heap_mb_pacbench", float64(ms.HeapAlloc)/(1<<20), "MiB")
	res.add("runtime.heap_mb_pacd", heapPacd, "MiB")
	res.add("runtime.rss_mb_pacgw", rssGW, "MiB")

	// The overhead is measured twice: as the p50 difference of the traced
	// and untraced ops of the window, which holds the op-to-op noise, and
	// as the cost of one span times the spans an op opens.
	untraced, traced := percentile(p.plainLat, 0.5), percentile(p.tracedLat, 0.5)
	res.add("trace.untraced_p50_ms", untraced, "ms")
	res.add("trace.traced_p50_ms", traced, "ms")
	res.add("trace.overhead_ms", traced-untraced, "ms")
	perOp := ratio(float64(p.tr.opSpans()), float64(len(p.tracedLat)))
	res.add("trace.spans_per_op", perOp, "count")
	res.add("trace.span_ns", spanCostNS(), "ns")
}

// spanCostNS times opening and closing spans on a scratch tracer.
func spanCostNS() float64 {
	const n = 100_000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x"))
	}
	return float64(time.Since(start)) / n
}
