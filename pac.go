// Package pac is the public API of the PAC reproduction: a paged adaptive
// coalescer for 3D-stacked memory (Wang et al., HPDC'20) together with the
// full simulated machine it was evaluated on — workload generators, cache
// hierarchy, MSHR files, baseline coalescers, and an HMC device model.
//
// Three levels of use:
//
//   - Coalescer: drive the coalescing network directly with your own
//     request stream (NewCoalescer).
//   - Simulation: run one benchmark through the whole machine
//     (RunBenchmark, CompareModes).
//   - Experiments: regenerate the paper's tables and figures
//     (Experiments, RunExperiment).
package pac

import (
	"fmt"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/gateway"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/report"
	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/store"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
	"github.com/pacsim/pac/internal/workload"
)

// Re-exported building blocks. The aliases expose the full method sets of
// the underlying implementations.
type (
	// Request is a raw memory request (an LLC miss or write-back).
	Request = mem.Request
	// Packet is a coalesced request destined for the memory device.
	Packet = mem.Coalesced
	// Op is a memory operation (Load, Store, Atomic, Fence).
	Op = mem.Op
	// CoalescerParams configures the PAC pipeline.
	CoalescerParams = core.Params
	// DeviceProfile selects the 3D-stacked memory generation.
	DeviceProfile = core.DeviceProfile
	// CoalescerStats are the coalescing network's counters.
	CoalescerStats = core.Stats
	// Mode selects the coalescing configuration of a simulation.
	Mode = coalesce.Mode
	// SimConfig configures a full-machine simulation.
	SimConfig = sim.Config
	// ProcSpec assigns one co-running process its benchmark and cores.
	ProcSpec = sim.ProcSpec
	// Result carries the measurements of one simulation run.
	Result = sim.Result
	// FaultConfig is a deterministic fault-injection plan for the HMC
	// device (link CRC replays, vault ECC-scrub stalls, poisoned
	// responses); set it on SimConfig.Faults or ExperimentOptions.Faults.
	// The zero value disables injection.
	FaultConfig = fault.Config
	// FaultStats counts the faults a plan injected during one run.
	FaultStats = fault.Stats
	// ExperimentOptions scale the paper-reproduction experiment runs.
	ExperimentOptions = experiments.Options
	// Experiment is one regenerable paper artefact.
	Experiment = experiments.Experiment
	// Table is a rendered result table.
	Table = report.Table
	// Chart is an ASCII bar-chart rendering of a table column.
	Chart = report.Chart
	// WorkloadGenerator produces per-core access streams; pass custom
	// ones via SimConfig.Generators.
	WorkloadGenerator = workload.Generator
	// CustomWorkloadSpec declares a workload from data (regions +
	// phases); see NewCustomWorkload.
	CustomWorkloadSpec = workload.CustomSpec
	// WorkloadRegion and WorkloadPhase are the spec's building blocks.
	WorkloadRegion = workload.RegionSpec
	WorkloadPhase  = workload.PhaseSpec
)

// Workload pattern kinds for CustomWorkloadSpec phases.
const (
	PatternSeq    = workload.PatternSeq
	PatternBurst  = workload.PatternBurst
	PatternRandom = workload.PatternRandom
)

// NewCustomWorkload builds a generator from a declarative spec; wire it
// into a simulation via SimConfig.Generators (one per process).
func NewCustomWorkload(spec CustomWorkloadSpec, cores int, seed uint64) (WorkloadGenerator, error) {
	return workload.NewCustom(spec, workload.Config{Cores: cores, Seed: seed})
}

// ChartFromTable builds an ASCII bar chart from a result table's label
// and value columns.
func ChartFromTable(t *Table, labelCol, valueCol int) *Chart {
	return report.FromTable(t, labelCol, valueCol)
}

// Operation constants.
const (
	OpLoad   = mem.OpLoad
	OpStore  = mem.OpStore
	OpAtomic = mem.OpAtomic
	OpFence  = mem.OpFence
)

// Coalescing modes.
const (
	// ModeNone is the standard HMC controller without aggregation.
	ModeNone = coalesce.ModeNone
	// ModeDMC is the conventional MSHR-based dynamic memory coalescer.
	ModeDMC = coalesce.ModeDMC
	// ModePAC is the paper's paged adaptive coalescer.
	ModePAC = coalesce.ModePAC
	// ModeSortNet is the sorting-network DMC of Wang et al. (ICPP'18).
	ModeSortNet = coalesce.ModeSortNet
	// ModeRowBuf is the row-buffer-width coalescer (ICPP'19 "MAC").
	ModeRowBuf = coalesce.ModeRowBuf
)

// Device profiles (paper §4.1).
var (
	HMC21 = core.HMC21
	HMC10 = core.HMC10
	HBM   = core.HBM
)

// DefaultCoalescerParams returns the paper's Table 1 PAC configuration:
// 16 coalescing streams, 16-cycle timeout, 16-entry MAQ, HMC 2.1.
func DefaultCoalescerParams() CoalescerParams { return core.DefaultParams() }

// Coalescer is a standalone paged adaptive coalescer: push raw requests,
// tick the pipeline, pop coalesced packets. It wraps the simulation-grade
// implementation with an internal packet ID counter.
type Coalescer struct {
	pac *core.PAC
}

// NewCoalescer builds a coalescer with the given parameters.
func NewCoalescer(p CoalescerParams) *Coalescer {
	var n uint64
	return &Coalescer{pac: core.New(p, func() uint64 { n++; return n })}
}

// Offer submits a raw request; wb marks write-back traffic. It returns
// false when the input queue is full (retry after Tick).
func (c *Coalescer) Offer(r Request, wb bool) bool { return c.pac.Enqueue(r, wb) }

// Tick advances the three-stage pipeline one cycle.
func (c *Coalescer) Tick() { c.pac.Tick() }

// Pop removes the next coalesced packet from the memory access queue.
func (c *Coalescer) Pop() (Packet, bool) { return c.pac.PopMAQ() }

// Drained reports whether no request remains inside the coalescer.
func (c *Coalescer) Drained() bool { return c.pac.Drained() }

// Stats returns a snapshot of the coalescing counters.
func (c *Coalescer) Stats() CoalescerStats { return c.pac.Stats }

// Flush ticks the pipeline until it drains (bounded by the given number
// of cycles) and returns everything it produced.
func (c *Coalescer) Flush(maxCycles int) []Packet {
	var out []Packet
	for i := 0; i < maxCycles && !c.pac.Drained(); i++ {
		c.pac.Tick()
		for {
			pkt, ok := c.pac.PopMAQ()
			if !ok {
				break
			}
			out = append(out, pkt)
		}
	}
	return out
}

// Benchmarks returns the canonical 14-benchmark suite of the paper's
// evaluation in figure order.
func Benchmarks() []string { return workload.Names() }

// DefaultSimConfig returns the paper's Table 1 machine running one
// benchmark on 8 cores in the given mode.
func DefaultSimConfig(benchmark string, mode Mode) SimConfig {
	return sim.DefaultConfig(benchmark, mode)
}

// RunBenchmark simulates one configuration to completion.
func RunBenchmark(cfg SimConfig) (*Result, error) {
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// Comparison holds the three coalescing configurations of one benchmark,
// the unit of the paper's evaluation.
type Comparison struct {
	Baseline, DMC, PAC *Result
}

// Speedup returns PAC's runtime improvement over the baseline in percent.
func (c Comparison) Speedup() float64 {
	return 100 * (float64(c.Baseline.Cycles)/float64(c.PAC.Cycles) - 1)
}

// DMCSpeedup returns the MSHR-DMC improvement over the baseline.
func (c Comparison) DMCSpeedup() float64 {
	return 100 * (float64(c.Baseline.Cycles)/float64(c.DMC.Cycles) - 1)
}

// BankConflictReduction returns the percentage of bank conflicts PAC
// eliminates relative to the baseline.
func (c Comparison) BankConflictReduction() float64 {
	if c.Baseline.HMC.BankConflicts == 0 {
		return 0
	}
	return 100 * float64(c.Baseline.HMC.BankConflicts-c.PAC.HMC.BankConflicts) /
		float64(c.Baseline.HMC.BankConflicts)
}

// EnergySaving returns PAC's device energy reduction in percent.
func (c Comparison) EnergySaving() float64 {
	base := c.Baseline.HMC.Energy.Total()
	if base == 0 {
		return 0
	}
	return 100 * (base - c.PAC.HMC.Energy.Total()) / base
}

// CompareModes runs one benchmark under all three coalescing
// configurations with otherwise identical settings. The mode field of cfg
// is ignored.
func CompareModes(cfg SimConfig) (Comparison, error) {
	var out Comparison
	for _, m := range []Mode{ModeNone, ModeDMC, ModePAC} {
		c := cfg
		c.Mode = m
		res, err := RunBenchmark(c)
		if err != nil {
			return Comparison{}, fmt.Errorf("pac: %v run: %w", m, err)
		}
		switch m {
		case ModeNone:
			out.Baseline = res
		case ModeDMC:
			out.DMC = res
		default:
			out.PAC = res
		}
	}
	return out, nil
}

// DefaultExperimentOptions mirrors the paper's Table 1 scale.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Experiments lists every regenerable paper artefact in figure order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentSession memoises simulation results across experiments, so a
// sweep over several figures simulates each (benchmark, mode, variant)
// combination once. Sessions are safe for concurrent use: concurrent
// requests for the same combination share one simulation, and
// Session.Precompute runs an experiment selection's whole working set
// through a bounded worker pool (see ExperimentOptions.Parallel and the
// pacsim -parallel flag). Parallel and sequential sessions render
// byte-identical tables.
type ExperimentSession = experiments.Session

// NewExperimentSession creates a session; progress, when non-nil,
// receives one line per completed simulation. The progress callback is
// latched here, before first use, and the session serializes its
// invocations, so the callback needs no internal locking.
func NewExperimentSession(opts ExperimentOptions, progress func(string)) *ExperimentSession {
	s := experiments.NewSession(opts)
	s.Progress = progress
	return s
}

// RunExperiment regenerates one paper artefact by ID ("fig6a", "tab1",
// ...). Progress, when non-nil, receives one line per completed
// simulation.
func RunExperiment(id string, opts ExperimentOptions, progress func(string)) ([]*Table, error) {
	return RunExperimentIn(NewExperimentSession(opts, progress), id)
}

// RunExperimentIn regenerates one artefact reusing the session's memoised
// simulations.
func RunExperimentIn(s *ExperimentSession, id string) ([]*Table, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("pac: unknown experiment %q (see pac.Experiments)", id)
	}
	return e.Run(s)
}

// ParseMode resolves a coalescing-mode name ("none", "dmc", "pac",
// "sortnet", "rowbuf", case-insensitive) as accepted by the pacd API.
func ParseMode(s string) (Mode, bool) { return coalesce.ParseMode(s) }

// Serving layer (cmd/pacd): an HTTP JSON API over the experiment
// harness with a bounded job queue, session result caches keyed by a
// canonical config hash, and graceful drain. See internal/server for
// the endpoint list and DESIGN.md §6 for the architecture.
type (
	// ServerConfig parameterises the pacd service.
	ServerConfig = server.Config
	// Server is the pacd serving layer; mount Handler on an http.Server
	// and call Drain on shutdown.
	Server = server.Server
	// SimulateRequest is the body of POST /v1/simulate.
	SimulateRequest = server.SimulateRequest
)

// NewServer builds a ready-to-serve pacd service.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// Result store (cmd/pacd -store): pacd's content-addressed cache of
// completed simulation results keyed by the canonical options hash + sim
// key, in memory or crash-safe on disk. Attach one with a Dir to
// ServerConfig.Store so restarts answer repeat requests from disk. See
// internal/store and DESIGN.md §11.
type (
	// StoreConfig parameterises OpenStore.
	StoreConfig = store.Config
	// Store is the result store; the caller owns its lifecycle
	// (open before NewServer, Close after Drain).
	Store = store.Store
	// StoreEntry is one stored simulation result with its identity.
	StoreEntry = store.Entry
)

// OpenStore creates or reopens a result store, indexing the entry files
// in its directory; an empty Dir opens a memory-only store.
func OpenStore(cfg StoreConfig) (*Store, error) { return store.Open(cfg) }

// Write-ahead job journal (cmd/pacd -wal): a crash-safe record of every
// accepted job's lifecycle. Open it before NewServer, hand the log and
// the recovered jobs to ServerConfig.WAL/Recovered so the daemon replays
// unfinished work at boot, and Close it after Drain. See internal/wal
// and DESIGN.md §13.
type (
	// WALConfig parameterises OpenWAL.
	WALConfig = wal.Config
	// WAL is the append-only job journal; the caller owns its lifecycle
	// (open before NewServer, Close after Drain).
	WAL = wal.Log
	// WALJob is one journaled job recovered at boot.
	WALJob = wal.Job
)

// OpenWAL creates or reopens a write-ahead job journal, replaying it and
// returning the jobs that never reached a terminal record. Passed to
// ServerConfig.Recovered, they are the only jobs the server ever
// re-runs: it replays each once under its original ID.
func OpenWAL(cfg WALConfig) (*WAL, []WALJob, error) { return wal.Open(cfg) }

// Fleet layer (cmd/pacgw): a consistent-hash gateway that shards
// requests across backend pacd nodes by their canonical session keys,
// with health ejection and deterministic sweep fan-out. See
// internal/gateway and DESIGN.md §10.
type (
	// GatewayConfig parameterises the fleet gateway.
	GatewayConfig = gateway.Config
	// Gateway routes fleet traffic; mount Handler on an http.Server and
	// call Close on shutdown.
	Gateway = gateway.Gateway
	// GatewayRing is the SHA-256 virtual-node consistent-hash ring the
	// gateway routes with.
	GatewayRing = gateway.Ring
)

// NewGateway builds the fleet gateway and starts its health loop.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// NewGatewayRing creates a consistent-hash ring with the given virtual
// replica count per node (<= 0 uses the gateway default of 128).
func NewGatewayRing(replicas int, nodes ...string) *GatewayRing {
	return gateway.NewRing(replicas, nodes...)
}

// Telemetry (internal/telemetry): the stdlib-only metrics layer the
// simulator, session memo, and service record into.
type (
	// TelemetryRegistry is a concurrent registry of counters, gauges,
	// and fixed-bucket histograms with Prometheus-text exposition.
	TelemetryRegistry = telemetry.Registry
	// TelemetryHooks is the latched, serialized event sink shared by
	// the instrumented packages.
	TelemetryHooks = telemetry.Hooks
	// TelemetryEvent is one recorded occurrence.
	TelemetryEvent = telemetry.Event
)

// Telemetry event kinds observable through a TelemetryHooks observer;
// one of the three terminal kinds fires exactly once per simulation run.
const (
	TelemetryKindSimStarted   = telemetry.KindSimStarted
	TelemetryKindSimCompleted = telemetry.KindSimCompleted
	TelemetryKindSimCancelled = telemetry.KindSimCancelled
	TelemetryKindSimFailed    = telemetry.KindSimFailed
)

// NewTelemetryRegistry creates an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// InstrumentedTelemetryHooks builds hooks whose observer translates
// events into the canonical pac_* metrics of the registry.
func InstrumentedTelemetryHooks(r *TelemetryRegistry) *TelemetryHooks {
	return telemetry.InstrumentedHooks(r)
}
