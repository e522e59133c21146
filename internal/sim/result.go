package sim

import (
	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/hmc"
	"github.com/pacsim/pac/internal/mshr"
	"github.com/pacsim/pac/internal/stats"
)

// CacheStats and MSHRStats are snapshots of the hierarchy and MSHR file
// counters. They are defined on the components' Stats types rather than
// aliased to them, so the gob type names inside encoded Results (durable
// store entries, checkpoints) stay CacheStats and MSHRStats and a stored
// result re-encodes byte-identically.
type (
	CacheStats cache.Stats
	MSHRStats  mshr.Stats
)

// Result carries everything measured during one simulation run.
type Result struct {
	// Benchmarks lists the benchmark of each co-running process.
	Benchmarks []string
	// Mode is the coalescing configuration that ran.
	Mode coalesce.Mode
	// Cycles is the total runtime in core cycles.
	Cycles int64
	// SkippedCycles is the subset of Cycles the event kernel advanced
	// over without stepping the machine (0 under the reference stepper).
	// It is pure driver accounting: every other field is identical
	// between the two drivers.
	SkippedCycles int64
	// RawRequests counts LLC-level access requests offered to the
	// coalescing layer (misses + write-backs + atomics).
	RawRequests int64
	// WriteBackRequests is the write-back subset of RawRequests.
	WriteBackRequests int64
	// MemPackets counts packets dispatched to the HMC device.
	MemPackets int64
	// MSHRMergedRaw counts raw requests that were absorbed by MSHR
	// merging (no memory dispatch).
	MSHRMergedRaw int64
	// DirectDispatches counts raw requests that skipped an idle
	// coalescer via the network-controller optimisation.
	DirectDispatches int64
	// PrefetchRequests counts stride-prefetcher requests issued.
	PrefetchRequests int64
	// CoreStallCycles accumulates cycles cores spent unable to issue.
	CoreStallCycles int64
	// LoadLatency tracks per-load memory latency in cycles (coalescer
	// entry to MSHR release).
	LoadLatency stats.Mean
	// LoadLatencyHist buckets per-load latencies at 10-cycle
	// granularity for percentile reporting.
	LoadLatencyHist stats.Histogram

	// Cache, MSHR and HMC are component snapshots.
	Cache CacheStats
	MSHR  MSHRStats
	HMC   hmc.Stats

	// Faults counts the injected transaction-layer faults; the zero
	// value means injection was disabled (or injected nothing).
	Faults fault.Stats

	// PAC holds the coalescing-network statistics; nil for baselines.
	PAC *core.Stats
}

// collect snapshots component state into the result and returns a copy
// of it with a PAC snapshot of its own. The copy holds no pointer into
// the Runner, so a caller that keeps the Result (a memo, a retained job)
// does not keep the whole machine reachable.
func (r *Runner) collect() *Result {
	r.res.Cycles = r.now
	r.res.Cache = CacheStats(r.hier.Stats)
	r.res.MSHR = MSHRStats(r.file.Stats)
	r.res.HMC = r.dev.Stats
	if r.faults != nil {
		r.res.Faults = r.faults.Stats
	}
	res := r.res
	if r.pac != nil {
		pac := r.pac.Stats
		res.PAC = &pac
	}
	return &res
}

// CoalescingEfficiency is the paper's Equation 1 at the whole-system
// level: the percentage of raw LLC requests that never became memory
// packets, whether eliminated inside the coalescing network or merged in
// the MSHRs. Poison retransmissions are excluded: a re-issued packet is
// the same raw work resent, not a raw request reaching memory, so a
// degraded link lowers bandwidth and latency figures without corrupting
// the coalescing metric.
func (r *Result) CoalescingEfficiency() float64 {
	return stats.Pct(r.RawRequests-(r.MemPackets-r.MSHR.Reissues), r.RawRequests)
}

// RuntimeNS returns the run's wall time in simulated nanoseconds.
func (r *Result) RuntimeNS() float64 { return CyclesToNS(float64(r.Cycles)) }

// AvgLoadLatencyNS returns the mean load service latency in nanoseconds.
func (r *Result) AvgLoadLatencyNS() float64 {
	return CyclesToNS(r.LoadLatency.Value())
}

// LoadLatencyPercentileNS returns the p-th percentile (0..1) load latency
// in nanoseconds (10-cycle bucket resolution).
func (r *Result) LoadLatencyPercentileNS(p float64) float64 {
	return CyclesToNS(float64(r.LoadLatencyHist.Percentile(p) * 10))
}

// AvgBandwidthGBs returns the average device bandwidth over the run in
// GB/s, counting payload and packet control bytes (the utilisation view
// of paper §5.3.2).
func (r *Result) AvgBandwidthGBs() float64 {
	ns := r.RuntimeNS()
	if ns == 0 {
		return 0
	}
	return float64(r.HMC.PayloadBytes+r.HMC.ControlBytes) / ns
}

// BandwidthSavedBytes estimates the data-transaction bytes avoided
// relative to dispatching every raw request as a separate 64B packet with
// its own 32B control overhead (Figure 10c's "bandwidth savings").
// Savings come from both eliminated duplicate/control transfers of
// coalesced requests and the per-request control overhead of merged ones.
func (r *Result) BandwidthSavedBytes() int64 {
	rawBytes := r.RawRequests * (64 + 32)
	actualBytes := r.HMC.PayloadBytes + r.HMC.ControlBytes
	return rawBytes - actualBytes
}

// Name returns a human-readable workload label.
func (r *Result) Name() string {
	if len(r.Benchmarks) == 1 {
		return r.Benchmarks[0]
	}
	s := r.Benchmarks[0]
	for _, b := range r.Benchmarks[1:] {
		s += "+" + b
	}
	return s
}
