// Package sim wires the simulated machine together and runs it: workload
// generators issue per-core accesses into the cache hierarchy; LLC misses
// and write-backs flow through the configured coalescing layer (PAC,
// MSHR-based DMC, or the non-aggregating baseline) into the MSHR file and
// on to the HMC device; responses release MSHRs and unblock cores.
//
// The driver is a deterministic cycle loop. One run produces a Result
// carrying every statistic the experiment harness needs.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/hmc"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/mshr"
	"github.com/pacsim/pac/internal/prefetch"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/vm"
	"github.com/pacsim/pac/internal/workload"
)

// CPUFreqGHz is the simulated core clock (Table 1: 2 GHz); one cycle is
// 0.5 ns.
const CPUFreqGHz = 2.0

// CyclesToNS converts cycles at the Table 1 clock to nanoseconds.
func CyclesToNS(c float64) float64 { return c / CPUFreqGHz }

// ProcSpec assigns one process a benchmark and a number of cores
// (multiprocessing mode, Figure 6b).
type ProcSpec struct {
	// Benchmark is a workload name from workload.Names.
	Benchmark string
	// Cores is how many cores this process occupies.
	Cores int
}

// Config describes one simulation run.
type Config struct {
	// Procs lists the processes to co-run. A single-process run has
	// one entry with all cores.
	Procs []ProcSpec
	// Generators, when non-nil, overrides the benchmark generators
	// (one per process) — used to replay recorded traces or drive
	// custom access streams. Procs still assigns core counts; the
	// Benchmark names become labels only.
	Generators []workload.Generator
	// Seed drives the workload generators.
	Seed uint64
	// Scale multiplies workload working-set sizes (see workload.Config).
	Scale float64
	// AccessesPerCore is the trace length each core issues.
	AccessesPerCore int
	// Mode selects the coalescing configuration.
	Mode coalesce.Mode
	// PAC parameterises the coalescer when Mode is ModePAC; its
	// InputQueueDepth is also used for the baselines' input queue.
	PAC core.Params
	// MSHRs is the MSHR file size (Table 1: 16).
	MSHRs int
	// MaxSubentries bounds raw misses per MSHR entry.
	MaxSubentries int
	// MaxOutstandingLoads bounds each core's demand fills in flight
	// (loads, store fills, atomics); at the limit the core stalls.
	// Small values model the in-order embedded RISC-V cores of the
	// paper's testbed.
	MaxOutstandingLoads int
	// PrefetchThrottle suppresses prefetch issue while the device has
	// at least this many requests in flight, so prefetching fills
	// spare bandwidth instead of adding to congestion. 0 defaults
	// to 24.
	PrefetchThrottle int
	// IssueInterval is the number of cycles between successive memory
	// accesses of one core, modelling the non-memory instructions of
	// the benchmark's inner loop (the paper's Spike traces interleave
	// ALU work between accesses). 0 defaults to 8.
	IssueInterval int
	// Prefetch configures the LLC stride prefetcher. The zero value
	// enables the default prefetcher; set Prefetch.Degree < 0 to
	// disable it entirely.
	Prefetch prefetch.Config
	// Hierarchy configures the caches; zero value uses Table 1 defaults.
	Hierarchy cache.HierarchyConfig
	// HMC configures the memory device; zero value uses defaults.
	HMC hmc.Config
	// Faults configures deterministic HMC transaction-layer fault
	// injection (link CRC replays, vault ECC-scrub stalls, poisoned
	// responses). The zero value injects nothing and leaves results
	// byte-identical to a fault-free build; any non-zero plan is
	// derived from Seed and Faults.Seed only, never wall clock.
	Faults fault.Config
	// DisableNetworkCtrl turns off the paper's network-controller
	// optimisation (raw requests bypass an idle PAC straight into the
	// MSHRs); for ablation studies.
	DisableNetworkCtrl bool
	// Virtualize routes every CPU access through a per-process page
	// table that scatters virtual pages over pseudo-random physical
	// frames — the consolidation/fragmentation effect the paper's
	// introduction cites. Within-page adjacency survives translation,
	// which is what keeps page-granular coalescing effective.
	Virtualize bool
	// TraceSink, when set, observes every LLC-level request (misses,
	// write-backs, atomics) with its issue cycle; used by the trace
	// analyses of Figures 2, 8 and 9.
	TraceSink func(mem.Request)
	// Hooks, when set, receives telemetry events: simulation start,
	// completion (with wall time and cycle count), cancellation, and the
	// finished run's cache-hierarchy counters. Hooks never influence
	// simulation results; nil drops every event.
	Hooks *telemetry.Hooks
	// MaxCycles aborts a wedged simulation; 0 means a generous bound
	// derived from the trace length.
	MaxCycles int64
	// ReferenceStepper forces the retained cycle-by-cycle driver instead
	// of the event kernel. Results are byte-identical either way (the
	// equivalence suite enforces this); the reference exists as the
	// differential-testing oracle and for kernel benchmarking.
	ReferenceStepper bool
	// Scratch, when non-nil, supplies the run's reusable buffers so a
	// long-lived worker amortises allocations across runs. The Scratch
	// must not be shared with a concurrently running simulation; nil
	// gives the runner a private one. Scratch never affects results.
	Scratch *Scratch
	// CheckpointEvery, when positive, emits a deterministic resume
	// checkpoint to CheckpointSink roughly every that many simulated
	// cycles (at the first step boundary past the cadence mark).
	// Checkpointing never perturbs the run: results are byte-identical
	// with it on or off. Requires replayable generators (the built-in
	// benchmark workloads); incompatible with caller-supplied Generators.
	CheckpointEvery int64
	// CheckpointSink receives each emitted checkpoint. The checkpoint is
	// a deep copy and stays valid after the run continues; nil disables
	// checkpointing regardless of CheckpointEvery.
	CheckpointSink func(*Checkpoint)
}

// DefaultConfig returns the paper's Table 1 machine running one benchmark
// on all 8 cores.
func DefaultConfig(benchmark string, mode coalesce.Mode) Config {
	return Config{
		Procs:               []ProcSpec{{Benchmark: benchmark, Cores: 8}},
		Seed:                1,
		Scale:               1.0,
		AccessesPerCore:     100_000,
		Mode:                mode,
		PAC:                 core.DefaultParams(),
		MSHRs:               16,
		MaxSubentries:       8,
		MaxOutstandingLoads: 2,
		IssueInterval:       8,
	}
}

func (c *Config) normalize() error {
	if len(c.Procs) == 0 {
		return fmt.Errorf("sim: no processes configured")
	}
	total := 0
	for _, p := range c.Procs {
		if p.Cores <= 0 {
			return fmt.Errorf("sim: process %q has %d cores", p.Benchmark, p.Cores)
		}
		total += p.Cores
	}
	if c.AccessesPerCore <= 0 {
		return fmt.Errorf("sim: AccessesPerCore = %d", c.AccessesPerCore)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("sim: MSHRs = %d", c.MSHRs)
	}
	switch c.Mode {
	case coalesce.ModeNone, coalesce.ModeDMC, coalesce.ModePAC, coalesce.ModeSortNet, coalesce.ModeRowBuf:
	default:
		return fmt.Errorf("sim: unknown coalescing mode %d", int(c.Mode))
	}
	if c.MaxOutstandingLoads <= 0 {
		c.MaxOutstandingLoads = 2
	}
	if c.PrefetchThrottle <= 0 {
		c.PrefetchThrottle = 24
	}
	if c.IssueInterval <= 0 {
		c.IssueInterval = 8
	}
	if c.Prefetch.Degree == 0 && !c.Prefetch.Enabled {
		c.Prefetch = prefetch.DefaultConfig()
	}
	if c.Prefetch.Degree < 0 {
		c.Prefetch.Enabled = false
		c.Prefetch.Degree = 1
	}
	if c.PAC.Streams == 0 {
		c.PAC = core.DefaultParams()
	}
	if c.Hierarchy.Cores == 0 {
		c.Hierarchy = cache.DefaultHierarchyConfig(total)
	} else if c.Hierarchy.Cores != total {
		return fmt.Errorf("sim: hierarchy cores %d != total cores %d", c.Hierarchy.Cores, total)
	}
	if c.HMC.Links == 0 {
		c.HMC = hmc.DefaultConfig()
		if c.PAC.Device.MaxReqBytes > c.HMC.MaxReqBytes {
			// A wider coalescing target (e.g. the HBM profile)
			// needs the matching device.
			c.HMC = hmc.HBMConfig()
		}
	}
	if c.PAC.Device.MaxReqBytes > c.HMC.MaxReqBytes {
		return fmt.Errorf("sim: coalescer targets %dB requests but the device accepts at most %dB",
			c.PAC.Device.MaxReqBytes, c.HMC.MaxReqBytes)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = int64(c.AccessesPerCore)*400 + 1_000_000
	}
	return nil
}

// outReq is an LLC-level request parked on a core while the coalescer
// input queues are full.
type outReq struct {
	Req mem.Request
	WB  bool
}

// coreState tracks one core's progress through its trace. A checkpoint
// saves it whole (Checkpoint.Cores): the exported fields are the saved
// state, the unexported ones are fixed by the config or rebuilt on
// restore.
type coreState struct {
	proc     int
	localIdx int // core index within its process
	Issued   int
	Done     bool
	// Pending is a trace access stalled before reaching the hierarchy
	// (outstanding-load limit, or a fence awaiting queue space); it is
	// stored by value so a stall never allocates.
	Pending    workload.Access
	HasPending bool
	// Look is the core's next trace access, drawn early by the event
	// driver's run-ahead (runAhead) and held because it is not a private
	// L1 hit it could apply ahead of time. It is not yet issued (Issued
	// does not count it) and goes through the normal issue path at the
	// core's next pacing cycle.
	Look    workload.Access
	HasLook bool
	// PendingOut[outHead:] are hierarchy outputs awaiting coalescer
	// queue space; the buffer is reused once fully placed. A saved
	// state holds only that tail.
	PendingOut []outReq
	outHead    int
	// outstanding holds in-flight load/atomic request IDs; at the
	// limit the core stalls. The set's layout is not state: a saved
	// core holds the IDs, sorted, in Outstanding instead.
	outstanding *arena.SmallSet
	Outstanding []uint64
	// NextIssue is the earliest cycle the core may issue its next
	// trace access (IssueInterval pacing).
	NextIssue int64
}

// parked reports how many hierarchy outputs still await queue space.
func (c *coreState) parked() int { return len(c.PendingOut) - c.outHead }

// blocked reports whether the core still has queued work it must place
// before issuing new accesses.
func (c *coreState) blocked() bool { return c.parked() > 0 || c.HasPending }

// Runner executes one configured simulation: the component graph
// buildMachine constructs, the per-core state, and the driver's own
// bookkeeping.
type Runner struct {
	cfg    Config
	gens   []workload.Generator
	hier   *cache.Hierarchy
	pf     *prefetch.Prefetcher
	spaces []*vm.AddressSpace // per-process page tables (Virtualize)
	pipe   coalesce.Pipeline
	pac    *core.PAC // nil unless Mode == ModePAC
	file   *mshr.File
	dev    *hmc.Device
	faults *fault.Injector // nil unless cfg.Faults is enabled

	// nextID is the shared packet/request ID counter; the pipeline
	// components mint from it through the closure buildMachine hands
	// them.
	nextID uint64

	cores []coreState
	now   int64
	// wakes[i] caches coreWakeOf for core i for the event driver: while
	// it is in the future, issueCore would change nothing except the
	// stall counter, so stepEvents skips the call. Any out-of-band
	// mutation of core state (a completion freeing an outstanding slot)
	// goes through wakeUp, which zeroes it to force re-evaluation. The
	// wakes sit in one dense slice so the per-step scan reads a cache
	// line instead of every coreState. The reference stepper never
	// reads them.
	wakes []int64
	// stalled counts the cores asleep on their outstanding-load budget
	// with a non-fence access pending: a cached wake of engine.Never on
	// a core with HasPending (coreWakeOf returns Never for a pending
	// access in no other case). Each such core retries and fails its
	// access once per cycle in the reference stepper, so the event
	// driver charges stalled CoreStallCycles per cycle.
	stalled int64
	// coreWake caches min-over-cores coreWakeOf for the event driver,
	// which maintains it inside stepEvents instead of rescanning the
	// cores in every nextEvent pass.
	coreWake int64

	// Head-probe memo for the event driver: ProbeMerge is a pure
	// function of the MSHR file state and the probed packet, so its
	// verdict for the held-back head packet is cached until the file
	// mutates (file.Gen) or the head changes (packet ID). nextEvent
	// consults the probe on every pass while the file is full; the memo
	// collapses those to one scan per (state, packet) pair.
	probeGen    uint64
	probeHeadID uint64
	probeOK     bool
	probeCmp    int64
	probeFails  int64
	probeValid  bool

	// outcome is the reusable result slot for Hierarchy.AccessInto, so
	// the per-access path never copies the Outcome struct by value.
	outcome cache.Outcome

	// scratch backs every reusable buffer of the run; groupBuf and
	// probeBuf are runner-owned per-call scratch for issueAccess and the
	// DMC arrival probe.
	scratch  *Scratch
	groupBuf []outReq
	probeBuf [1]mem.Request
	released bool

	// pacStats is the Result's PAC snapshot slot, so collect need not
	// allocate one per run.
	pacStats core.Stats

	// ckptEvery/ckptNext drive checkpoint cadence: every driver loop
	// emits a checkpoint at the first step boundary with now >= ckptNext.
	// ckptEvery is zero when checkpointing is off.
	ckptEvery int64
	ckptNext  int64

	res Result
}

// NewRunner validates the configuration and builds the machine.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, scratch: cfg.Scratch}
	if r.scratch == nil {
		r.scratch = NewScratch()
	}
	if cfg.Generators != nil && len(cfg.Generators) != len(cfg.Procs) {
		return nil, fmt.Errorf("sim: %d generators for %d processes", len(cfg.Generators), len(cfg.Procs))
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil {
		if cfg.Generators != nil {
			return nil, fmt.Errorf("sim: checkpointing requires replayable generators; caller-supplied Generators cannot be resumed")
		}
		r.ckptEvery = cfg.CheckpointEvery
		r.ckptNext = cfg.CheckpointEvery
	}

	if err := r.buildMachine(); err != nil {
		return nil, err
	}

	r.res.Mode = cfg.Mode
	r.res.Benchmarks = make([]string, len(cfg.Procs))
	for i, p := range cfg.Procs {
		r.res.Benchmarks[i] = p.Benchmark
	}
	r.res.LoadLatencyHist.Grow(r.scratch.histHint)
	r.groupBuf = r.scratch.getOutBuf()
	return r, nil
}

// Run executes the simulation to completion and returns the result.
func (r *Runner) Run() (*Result, error) { return r.RunContext(context.Background()) }

// cancelCheckMask throttles context polling: the context is consulted
// once every 4096 driver iterations, so cancellation lands within
// microseconds of wall time without touching the hot loop's cost.
const cancelCheckMask = 1<<12 - 1

// RunContext executes the simulation to completion, aborting promptly
// (within a few thousand simulated cycles) when ctx is cancelled. The
// returned error wraps ctx.Err() on cancellation, so callers can test it
// with errors.Is. Telemetry hooks, when configured, see one started
// event and exactly one terminal event — completed, cancelled, or
// failed — per call.
//
// The machine is driven by the event kernel by default: runEvents
// advances the clock straight to the next cycle at which any component
// can make progress, so the long stretches where every core waits on HMC
// latency cost nothing. Results are byte-identical to the retained
// cycle-by-cycle stepper (Config.ReferenceStepper), which the
// equivalence suite proves for every benchmark × mode combination.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	defer r.release()
	hooks := r.cfg.Hooks
	bench := r.res.Name()
	mode := r.cfg.Mode.String()
	hooks.Emit(telemetry.Event{Kind: telemetry.KindSimStarted, Bench: bench, Mode: mode})
	start := time.Now()
	var err error
	if r.cfg.ReferenceStepper {
		err = r.runReference(ctx)
	} else {
		err = r.runEvents(ctx)
	}
	var fs fault.Stats
	if r.faults != nil {
		fs = r.faults.Stats
	}
	if err != nil {
		kind := telemetry.KindSimFailed
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			kind = telemetry.KindSimCancelled
		}
		hooks.Emit(telemetry.Event{
			Kind: kind, Bench: bench, Mode: mode,
			FaultsCRC:    fs.LinkCRCErrors,
			FaultsStall:  fs.VaultStalls,
			FaultsPoison: fs.PoisonedResponses,
		})
		return nil, err
	}
	r.collect()
	hooks.Emit(telemetry.Event{
		Kind:         telemetry.KindSimCompleted,
		Bench:        bench,
		Mode:         mode,
		Wall:         time.Since(start),
		Cycles:       r.res.Cycles,
		Skipped:      r.res.SkippedCycles,
		FaultsCRC:    fs.LinkCRCErrors,
		FaultsStall:  fs.VaultStalls,
		FaultsPoison: fs.PoisonedResponses,
	})
	r.hier.Record(hooks, bench)
	return &r.res, nil
}

// release returns the run's recyclable buffers to its Scratch so the
// next run with the same Scratch reuses them: per-core outstanding sets,
// fully drained parked-output buffers, and the hierarchy's pending-fill
// set (on an abort, buffers still referenced by pipeline or MSHR state
// are simply not returned). This only matters when Config.Scratch is
// shared across sequential runs; a Runner is single-run and nothing
// reads the references again.
func (r *Runner) release() {
	if r.released {
		return
	}
	r.released = true
	if h := r.res.LoadLatencyHist.Cap(); h > r.scratch.histHint {
		r.scratch.histHint = h
	}
	r.scratch.putOutBuf(r.groupBuf)
	for i := range r.cores {
		c := &r.cores[i]
		r.scratch.putSet(c.outstanding)
		if c.parked() == 0 {
			r.scratch.putOutBuf(c.PendingOut)
		}
	}
	r.scratch.putFillSet(r.hier.TakeScratch())
}

// errWedged builds the MaxCycles abort error with enough machine state to
// diagnose the wedge.
func (r *Runner) errWedged() error {
	return fmt.Errorf("sim: exceeded MaxCycles=%d (packets=%d, free MSHRs=%d, pipeline drained=%v)",
		r.cfg.MaxCycles, r.res.MemPackets, r.file.Available(), r.pipe.Drained())
}

// runReference is the retained cycle-by-cycle driver: every simulated
// cycle steps every component. It exists as the differential-testing
// oracle for the event kernel (and for kernel benchmarking); both
// drivers produce byte-identical Results.
func (r *Runner) runReference(ctx context.Context) error {
	done := ctx.Done()
	for !r.finished() {
		if done != nil && r.now&cancelCheckMask == 0 {
			select {
			case <-done:
				return fmt.Errorf("sim: cancelled after %d cycles: %w", r.now, ctx.Err())
			default:
			}
		}
		if r.now >= r.cfg.MaxCycles {
			return r.errWedged()
		}
		if r.ckptEvery > 0 && r.now >= r.ckptNext {
			r.emitCheckpoint()
		}
		r.step()
	}
	return nil
}

// finished reports whether every core completed its trace and the memory
// system fully drained. The device check comes first: it is one field
// read and stays non-zero for nearly the whole run.
func (r *Runner) finished() bool {
	if r.dev.Outstanding() != 0 || !r.pipe.Drained() || r.file.Available() != r.file.Size() {
		return false
	}
	for i := range r.cores {
		c := &r.cores[i]
		if !c.Done || c.outstanding.Len() > 0 || c.blocked() {
			return false
		}
	}
	return true
}

// step advances the machine one cycle: the reference stepper's cycle.
// stepEvents is the same cycle with the per-core wake cache.
func (r *Runner) step() {
	r.beginCycle()

	// 3. Core issue: each core feeds the cache hierarchy.
	for i := range r.cores {
		r.issueCore(i)
	}

	// 4. Advance the coalescing pipeline.
	r.pipe.Tick()
}

// beginCycle advances the clock one cycle and runs the phases that
// precede core issue, which both drivers share.
func (r *Runner) beginCycle() {
	r.now++

	// 0. Fault windows: a vault-stall window opening this cycle
	// freezes its vault's controller before any other activity. Both
	// drivers reach every window-start cycle (the injector's NextWake
	// bounds the event kernel's skip), so the freeze is applied at the
	// same cycle either way.
	if r.faults != nil {
		for {
			vault, until, ok := r.faults.PopWindow(r.now)
			if !ok {
				break
			}
			r.dev.FreezeVault(vault, until)
		}
	}

	// 1. Memory responses.
	r.drainCompletions()

	// 2. MSHR intake: move packets from the coalescer output into the
	// MSHR file, merging when the mode allows; new entries dispatch to
	// the device immediately.
	r.dispatch()
}

// drainCompletions handles this cycle's memory responses: release MSHRs,
// unblock cores. A poisoned response re-issues the entry's request
// instead of releasing it.
func (r *Runner) drainCompletions() {
	for _, resp := range r.dev.PopCompleted(r.now) {
		entry, ok := r.file.FindByPacket(resp.ID)
		if !ok {
			panic(fmt.Sprintf("sim: response for unknown packet %d", resp.ID))
		}
		e := r.file.Entry(entry)
		if resp.Poisoned && r.faults != nil && r.faults.NotePoisoned(e.Reissues) {
			r.reissue(entry, e)
			continue
		}
		base, blocks := e.Base, e.Blocks
		for _, sub := range r.file.Release(entry) {
			r.completeRaw(sub.Req)
		}
		// The filled blocks are no longer in flight in the LLC.
		for b := 0; b < blocks; b++ {
			r.hier.FillDone(base + uint64(b))
		}
	}
}

// dispatch moves up to one packet per cycle from the coalescer output
// into the MSHR file and the device.
func (r *Runner) dispatch() {
	if r.pipe.OutLen() == 0 {
		return
	}
	pkt, _ := r.pipe.Pop()
	if !r.admit(pkt) {
		// MSHRs full: hold the packet back at the head so order is kept.
		r.pipe.PushFront(pkt)
	}
}

// admit merges or allocates a packet; returns false when no MSHR is free.
// An admitted packet's Parents are fully copied into MSHR subentries, so
// the slice goes back to the parent pool here; a rejected packet keeps
// its Parents (the caller holds it back or drops it).
func (r *Runner) admit(pkt mem.Coalesced) bool {
	if r.cfg.Mode.MergesInMSHR() {
		if _, ok := r.file.TryMerge(pkt); ok {
			r.res.MSHRMergedRaw += int64(len(pkt.Parents))
			r.scratch.parents.Put(pkt.Parents)
			return true
		}
	}
	if _, ok := r.file.Allocate(pkt); !ok {
		return false
	}
	r.res.MemPackets++
	r.dev.Submit(pkt, r.now)
	r.scratch.parents.Put(pkt.Parents)
	return true
}

// reissue retransmits an MSHR entry's request after a poisoned
// response: the entry keeps its subentries and is re-keyed to a fresh
// packet ID, and the replacement packet dispatches immediately. The
// retransmission is a real memory packet — it occupies a link, the
// crossbar and the bank again, and counts in both MemPackets and the
// device's request statistics.
func (r *Runner) reissue(entry int, e *mshr.Entry) {
	r.nextID++
	pkt := mem.Coalesced{
		ID:        r.nextID,
		Addr:      e.Base << mem.BlockShift,
		Size:      uint32(e.Blocks * mem.BlockSize),
		Op:        e.Op,
		Assembled: r.now,
	}
	r.file.Reissue(entry, pkt.ID)
	r.res.MemPackets++
	r.dev.Submit(pkt, r.now)
}

// completeRaw finishes one raw LLC request: loads and atomics release
// their core's outstanding slot.
func (r *Runner) completeRaw(req mem.Request) {
	if req.Op == mem.OpLoad || req.Op == mem.OpAtomic {
		c := &r.cores[req.Core]
		c.outstanding.Remove(req.ID)
		r.wakeUp(req.Core) // budget may have been freed
		lat := r.now - req.Issue
		r.res.LoadLatency.Add(float64(lat))
		r.res.LoadLatencyHist.Add(int(lat / 10))
	}
}

// issueCore lets core i make progress: place parked output requests,
// retry a stalled access, or issue the next trace access. It reports
// whether an access entered the hierarchy.
func (r *Runner) issueCore(i int) bool {
	c := &r.cores[i]

	// Parked LLC outputs must be placed before anything else.
	for c.outHead < len(c.PendingOut) {
		o := c.PendingOut[c.outHead]
		if !r.enqueue(o.Req, o.WB) {
			r.res.CoreStallCycles++
			return false
		}
		c.outHead++
	}
	if c.outHead > 0 {
		c.PendingOut = c.PendingOut[:0]
		c.outHead = 0
	}

	var a workload.Access
	if c.HasPending {
		a = c.Pending
		c.HasPending = false
	} else {
		if c.Done {
			return false
		}
		if c.Issued >= r.cfg.AccessesPerCore {
			c.Done = true
			return false
		}
		if r.now < c.NextIssue {
			return false // pacing: ALU work between memory accesses
		}
		a = r.nextAccess(c)
		c.Issued++
		c.NextIssue = r.now + int64(r.cfg.IssueInterval)
	}

	if !r.issueAccess(i, a) {
		c.Pending = a
		c.HasPending = true
		r.res.CoreStallCycles++
		return false
	}
	return true
}

// issueAccess pushes one CPU access into the machine. It returns false if
// the access could not start and must be retried (the hierarchy has not
// been touched in that case).
func (r *Runner) issueAccess(coreIdx int, a workload.Access) bool {
	c := &r.cores[coreIdx]

	if a.Op == mem.OpFence {
		// Fences flow to the coalescer to flush aggregation state.
		return r.enqueue(mem.Request{Op: mem.OpFence, Core: coreIdx, Issue: r.now}, false)
	}

	// Every demand access respects the outstanding-fill budget (the
	// core's load/store queue depth).
	if c.outstanding.Len() >= r.cfg.MaxOutstandingLoads {
		return false
	}

	addr := a.Addr
	if r.spaces != nil {
		addr = r.spaces[c.proc].Translate(addr)
	}
	out := &r.outcome
	r.hier.AccessInto(out, coreIdx, addr, a.Op, c.proc, r.now, &r.nextID)

	// From here on the cache state is updated, so the access always
	// "succeeds"; any outputs that cannot be queued now are parked on
	// the core and block it until placed. The access's memory traffic
	// (miss, prefetches, write-backs) is routed as one group, staged in
	// the runner's reusable group buffer (route copies any leftovers
	// onto the core before returning).
	group := r.groupBuf[:0]
	for _, wb := range out.WriteBacks {
		group = append(group, outReq{wb, true})
	}
	if out.MissValid {
		miss := out.Miss
		if miss.Op == mem.OpLoad || miss.Op == mem.OpAtomic {
			c.outstanding.Add(miss.ID)
		}
		group = append(group, outReq{miss, false})
		// A demand miss (not an uncached atomic) trains the stride
		// prefetcher; confirmed streams pull the next blocks in,
		// arriving adjacent to the miss within the coalescing window.
		if miss.Op != mem.OpAtomic {
			for _, blk := range r.pf.Observe(coreIdx, mem.BlockNumber(miss.Addr)) {
				group = r.appendPrefetch(group, coreIdx, c, blk)
			}
		}
	}
	r.route(c, group)
	r.groupBuf = group[:0]
	return true
}

// appendPrefetch installs one prefetch block and adds its traffic to the
// access's request group.
func (r *Runner) appendPrefetch(group []outReq, coreIdx int, c *coreState, blk uint64) []outReq {
	if r.dev.Outstanding() >= r.cfg.PrefetchThrottle {
		return group // device congested: demand traffic first
	}
	pfReq, wbs, ok := r.hier.Prefetch(blk<<mem.BlockShift, coreIdx, c.proc, r.now, &r.nextID)
	if !ok {
		return group
	}
	r.res.PrefetchRequests++
	for _, wb := range wbs {
		group = append(group, outReq{wb, true})
	}
	return append(group, outReq{pfReq, false})
}

// route places one access's request group. This is the network
// controller of paper §3.2, realised per request: a lone raw request
// arriving while the MAQ is empty and MSHRs are available has nothing to
// coalesce with and would only pay the aggregation timeout, so it enters
// the MSHRs directly; groups (a miss with its prefetches or write-backs)
// and requests arriving under pressure go through the coalescing network,
// whose latency then hides within the memory queueing time. Atomics are
// always routed directly to the memory controller (§3.3.1).
func (r *Runner) route(c *coreState, group []outReq) {
	lone := len(group) == 1 && r.pac != nil && !r.cfg.DisableNetworkCtrl &&
		r.pac.MAQEmpty() && r.pac.InputBacklog() == 0 && !r.file.Full()
	for _, o := range group {
		r.observe(o.Req)
		if o.Req.Op == mem.OpAtomic || (lone && o.Req.Op != mem.OpFence) {
			if r.directAdmit(o.Req, o.WB) {
				continue
			}
		}
		if !r.enqueue(o.Req, o.WB) {
			c.PendingOut = append(c.PendingOut, o)
		}
	}
}

// directAdmit sends one raw request straight at the MSHRs as a
// single-block packet, skipping the coalescing network. It returns false
// when no MSHR is free (the caller falls back to the pipeline).
func (r *Runner) directAdmit(req mem.Request, wb bool) bool {
	r.nextID++
	pkt := mem.Coalesced{
		ID:        r.nextID,
		Addr:      mem.BlockAlign(req.Addr),
		Size:      mem.BlockSize,
		Op:        req.Op,
		Parents:   append(r.scratch.parents.Get(), req),
		Assembled: r.now,
		Bypassed:  true,
	}
	if !r.admit(pkt) {
		// The packet is dropped (the request falls back to the
		// pipeline), so its Parents go straight back to the pool.
		r.scratch.parents.Put(pkt.Parents)
		return false
	}
	r.res.DirectDispatches++
	r.countRaw(req, wb)
	return true
}

// enqueue places one LLC-level request into the coalescing pipeline. It
// returns false when the input queue is full.
//
// In the MSHR-based DMC configuration the comparison against outstanding
// MSHR entries happens here, at arrival — the parallel comparators of a
// conventional miss-handling architecture fire when the miss reaches the
// MSHR file, not when it is dispatched — so a request hitting an
// outstanding cache line is absorbed immediately.
func (r *Runner) enqueue(req mem.Request, wb bool) bool {
	if r.cfg.Mode == coalesce.ModeDMC && req.Op.IsAccess() && req.Op != mem.OpAtomic {
		// The probe packet lives only for this TryMerge call (the file
		// copies the parent into a subentry on success), so it borrows
		// the runner's one-element probe buffer instead of allocating.
		r.probeBuf[0] = req
		pkt := mem.Coalesced{
			Addr:    mem.BlockAlign(req.Addr),
			Size:    mem.BlockSize,
			Op:      req.Op,
			Parents: r.probeBuf[:1],
		}
		if _, ok := r.file.TryMerge(pkt); ok {
			r.res.MSHRMergedRaw++
			r.countRaw(req, wb)
			return true
		}
	}
	if !r.pipe.Enqueue(req, wb) {
		return false
	}
	r.countRaw(req, wb)
	return true
}

// countRaw updates the raw LLC request counters.
func (r *Runner) countRaw(req mem.Request, wb bool) {
	if !req.Op.IsAccess() {
		return
	}
	r.res.RawRequests++
	if wb {
		r.res.WriteBackRequests++
	}
}

// observe feeds the trace sink.
func (r *Runner) observe(req mem.Request) {
	if r.cfg.TraceSink != nil {
		req.Issue = r.now
		r.cfg.TraceSink(req)
	}
}
