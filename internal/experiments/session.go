package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/workload"
)

// simKey identifies one memoised simulation.
type simKey struct {
	bench string
	mode  coalesce.Mode
	v     variant
}

func (k simKey) String() string { return fmt.Sprintf("%s/%d/%s", k.bench, k.mode, k.v) }

// CheckpointPolicy lets a serving layer persist and resume mid-run
// simulation state. When a session has one, every default-variant
// simulation emits a sim.Checkpoint through Sink at the configured
// cadence, consults Load before starting (a stored checkpoint resumes
// the run mid-flight; one that no longer matches is dropped and the run
// starts fresh), and drops its checkpoint once it completes. Resumed
// runs are byte-identical to uninterrupted ones — the sim layer's
// checkpoint contract — so memoised results never depend on whether a
// crash happened. Non-default variants (the experiment sweeps) are
// short and numerous; they run without checkpoints.
type CheckpointPolicy struct {
	// Every is the checkpoint cadence in simulated cycles (<= 0
	// disables emission; Load/Drop still apply).
	Every int64
	// Sink receives each emitted checkpoint, a deep copy that stays
	// valid. It runs on the simulation goroutine, so slow sinks stretch
	// the run; a sink that persists should hand the copy off.
	Sink func(bench string, mode coalesce.Mode, ck *sim.Checkpoint)
	// Load returns the stored checkpoint for a key, or nil.
	Load func(bench string, mode coalesce.Mode) *sim.Checkpoint
	// Drop discards the stored checkpoint (called after a completed run,
	// and when a loaded checkpoint fails to restore).
	Drop func(bench string, mode coalesce.Mode)
}

// memoEntry is one singleflight slot: a detached goroutine computes the
// value and closes done; every caller for the key — including the one
// that created the entry — blocks on done (or its own context) and
// shares the result. waiters counts the callers currently blocked; when
// the last one disconnects before done, the entry's run context is
// cancelled, aborting the simulation, and the entry leaves the memo so a
// later request runs fresh.
type memoEntry[T any] struct {
	done    chan struct{}
	val     T
	err     error
	waiters int // guarded by the session mutex
	cancel  context.CancelFunc
}

// Session runs experiments with memoised simulation results. It is safe
// for concurrent use: concurrent callers asking for the same
// (benchmark, mode, variant) combination share a single simulation run,
// and Precompute fans the whole working set out over a worker pool.
//
// Each simulation's sim.Runner is created, run, and discarded inside one
// dedicated goroutine; no simulator state is ever shared between
// goroutines. Callers pass a context: an individual caller abandoning a
// shared run does not abort it while other waiters remain, but when the
// last waiter disconnects, the in-flight simulation is cancelled and
// evicted from the memo.
type Session struct {
	opts Options

	// mu guards the memo maps, the progress counters, and every
	// invocation of the progress callback.
	mu      sync.Mutex
	sims    map[simKey]*memoEntry[*sim.Result]
	traces  map[string]*memoEntry[[]mem.Request]
	ran     int // completed simulations and trace captures
	planned int // total jobs known in advance (set by Precompute)
	latched bool
	progFn  func(string)
	hooks   *telemetry.Hooks
	ckpt    *CheckpointPolicy

	// Progress, when set, receives a line per completed simulation or
	// trace capture. It MUST be assigned before the session's first
	// result is requested and never reassigned afterwards: the session
	// latches the callback on first use (later writes are ignored) and
	// serializes all invocations under the session mutex, so the
	// callback itself needs no locking. During a Precompute run the
	// lines carry a monotonic "[k/n]" completion prefix.
	Progress func(string)

	// Hooks, when set, receives telemetry events: a memo hit or miss
	// per lookup, and the per-simulation lifecycle events emitted by
	// sim.Runner. Like Progress it is latched on first use; the hooks
	// type serializes its own invocations, so one *telemetry.Hooks may
	// be shared across sessions.
	Hooks *telemetry.Hooks

	// Checkpoints, when set, is the crash-recovery policy for this
	// session's default-variant simulations (see CheckpointPolicy). Like
	// Progress and Hooks it is latched on first use.
	Checkpoints *CheckpointPolicy
}

// NewSession creates a session.
func NewSession(opts Options) *Session {
	return &Session{
		opts:   opts.Normalized(),
		sims:   make(map[simKey]*memoEntry[*sim.Result]),
		traces: make(map[string]*memoEntry[[]mem.Request]),
	}
}

// Options returns the session's normalized options.
func (s *Session) Options() Options { return s.opts }

// latchLocked captures the Progress and Hooks callbacks the first time
// the session starts any work, enforcing the set-before-first-use
// contract: whatever the fields hold at that moment is what every
// simulation reports to, and later writes have no effect.
func (s *Session) latchLocked() {
	if !s.latched {
		s.latched = true
		s.progFn = s.Progress
		s.hooks = s.Hooks
		s.ckpt = s.Checkpoints
	}
}

// noteDone records one completed job and emits its progress line, both
// under the session mutex so lines are serialized and the "[k/n]"
// counter is monotonic.
func (s *Session) noteDone(line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ran++
	if s.progFn == nil {
		return
	}
	if s.planned > 0 {
		line = fmt.Sprintf("[%d/%d] %s", s.ran, s.planned, line)
	}
	s.progFn(line)
}

// noteMemo emits the memo hit/miss telemetry event for one lookup.
func (s *Session) noteMemo(hooks *telemetry.Hooks, hit bool, bench, mode string) {
	kind := telemetry.KindMemoMiss
	if hit {
		kind = telemetry.KindMemoHit
	}
	hooks.Emit(telemetry.Event{Kind: kind, Bench: bench, Mode: mode})
}

// cancelled reports whether err stems from context cancellation or a
// deadline; such results must not stay memoised.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Result runs (or recalls) the benchmark under the given mode with the
// session's options — the exported entry point pacd runs its simulate
// misses through. Concurrent callers for the same combination share
// one simulation; ctx follows the waiter-disconnect contract described
// on Session.
func (s *Session) Result(ctx context.Context, bench string, mode coalesce.Mode) (*sim.Result, error) {
	return s.resultCtx(ctx, bench, mode, varDefault)
}

// result is the context-free recall used by the experiment drivers;
// their cancellation happens through Precompute, which executes every
// declared need with the caller's context before the tables render.
func (s *Session) result(bench string, mode coalesce.Mode, v variant) (*sim.Result, error) {
	return s.resultCtx(context.Background(), bench, mode, v)
}

// resultCtx runs (or recalls) one simulation.
func (s *Session) resultCtx(ctx context.Context, bench string, mode coalesce.Mode, v variant) (*sim.Result, error) {
	e, err := join(ctx, s, s.sims, simKey{bench, mode, v}, bench, mode.String(), (*Session).runSim)
	if err != nil {
		return nil, err
	}
	return e.val, nil
}

// join is the session's singleflight: it returns the completed entry for
// k in memo, starting run on a detached goroutine when there is none.
// Concurrent callers for the same key block until that goroutine
// finishes and then share its entry; a caller whose ctx expires first
// unregisters, and the last such caller aborts the run. No failure stays
// memoised: cancellations leave the memo because a fresh caller must
// rerun, and hard failures so a later request for the same work runs it
// fresh instead of receiving the cached error. bench and mode label the
// memo hit or miss event.
func join[K comparable, T any](ctx context.Context, s *Session, memo map[K]*memoEntry[T], k K,
	bench, mode string, run func(*Session, context.Context, K) (T, error)) (*memoEntry[T], error) {
	for {
		s.mu.Lock()
		e, hit := memo[k]
		if !hit {
			runCtx, cancelRun := context.WithCancel(context.Background())
			e = &memoEntry[T]{done: make(chan struct{}), cancel: cancelRun}
			memo[k] = e
			s.latchLocked()
			entry := e
			go func() {
				entry.val, entry.err = run(s, runCtx, k)
				if entry.err != nil {
					s.mu.Lock()
					if memo[k] == entry {
						delete(memo, k)
					}
					s.mu.Unlock()
				}
				close(entry.done)
				cancelRun()
			}()
		}
		e.waiters++
		hooks := s.hooks
		s.mu.Unlock()
		s.noteMemo(hooks, hit, bench, mode)

		select {
		case <-e.done:
			s.mu.Lock()
			e.waiters--
			s.mu.Unlock()
			// A run aborted by *other* waiters' departure memoises a
			// cancellation error and leaves the memo; a caller whose
			// own context is still live retries on a fresh entry.
			if cancelled(e.err) && ctx.Err() == nil {
				continue
			}
			return e, e.err
		case <-ctx.Done():
			s.mu.Lock()
			e.waiters--
			select {
			case <-e.done:
				// Finished while we were leaving: use the result.
				s.mu.Unlock()
				return e, e.err
			default:
			}
			last := e.waiters == 0
			s.mu.Unlock()
			if last {
				e.cancel()
			}
			return nil, fmt.Errorf("experiments: %v abandoned: %w", k, ctx.Err())
		}
	}
}

// runSim executes one simulation to completion. The runner lives and
// dies on the calling goroutine.
func (s *Session) runSim(ctx context.Context, k simKey) (*sim.Result, error) {
	cfg := s.simConfig(k.bench, k.mode, k.v)
	cfg.Hooks = s.hooks
	cfg.Scratch = getScratch()
	runner, err := s.newRunner(cfg, k)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", k, err)
	}
	res, err := runner.RunContext(ctx)
	putScratch(cfg.Scratch)
	if err != nil {
		// A cancelled run keeps its latest checkpoint: the whole point is
		// that the replay at the next boot resumes instead of restarting.
		return nil, fmt.Errorf("experiments: %s: %w", k, err)
	}
	if cp := s.ckpt; cp != nil && cp.Drop != nil && k.v == varDefault {
		cp.Drop(k.bench, k.mode)
	}
	s.noteDone(fmt.Sprintf("ran %-10s %-9s %-6s cycles=%d", k.bench, k.mode, k.v, res.Cycles))
	return res, nil
}

// newRunner builds the run's sim.Runner, applying the session's
// checkpoint policy for default-variant keys: arm the checkpoint sink,
// and resume from a stored checkpoint when one restores cleanly. A
// checkpoint that fails to restore (changed options, corrupt state) is
// dropped and the run starts fresh — stale recovery state must never
// block new work.
func (s *Session) newRunner(cfg sim.Config, k simKey) (*sim.Runner, error) {
	cp := s.ckpt
	if cp == nil || k.v != varDefault {
		return sim.NewRunner(cfg)
	}
	if cp.Every > 0 && cp.Sink != nil {
		bench, mode := k.bench, k.mode
		cfg.CheckpointEvery = cp.Every
		cfg.CheckpointSink = func(ck *sim.Checkpoint) { cp.Sink(bench, mode, ck) }
	}
	if cp.Load != nil {
		if ck := cp.Load(k.bench, k.mode); ck != nil {
			if r, err := sim.ResumeFrom(cfg, ck); err == nil {
				s.noteResumed(k, ck.Now)
				return r, nil
			}
			if cp.Drop != nil {
				cp.Drop(k.bench, k.mode)
			}
		}
	}
	return sim.NewRunner(cfg)
}

// noteResumed emits the resume progress line; serving layers and the
// recovery smoke test read the cycle offset from it.
func (s *Session) noteResumed(k simKey, cycle int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.progFn != nil {
		s.progFn(fmt.Sprintf("resumed %s %s from checkpoint at cycle %d", k.bench, k.mode, cycle))
	}
}

// trace captures (or recalls) the LLC-level request stream of one
// benchmark under the PAC configuration; used by the trace analyses of
// Figures 2, 8 and 9. Traces are memoised with the same singleflight and
// cancellation discipline as results.
func (s *Session) trace(bench string) ([]mem.Request, error) {
	return s.traceCtx(context.Background(), bench)
}

func (s *Session) traceCtx(ctx context.Context, bench string) ([]mem.Request, error) {
	e, err := join(ctx, s, s.traces, bench, "trace:"+bench, "", (*Session).runTrace)
	if err != nil {
		return nil, err
	}
	return e.val, nil
}

// runTrace executes one trace-capturing simulation on the calling
// goroutine.
func (s *Session) runTrace(ctx context.Context, bench string) ([]mem.Request, error) {
	var reqs []mem.Request
	cfg := s.simConfig(bench, coalesce.ModePAC, varDefault)
	cfg.TraceSink = func(r mem.Request) { reqs = append(reqs, r) }
	cfg.Hooks = s.hooks
	cfg.Scratch = getScratch()
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: trace %s: %w", bench, err)
	}
	_, err = runner.RunContext(ctx)
	putScratch(cfg.Scratch)
	if err != nil {
		return nil, fmt.Errorf("experiments: trace %s: %w", bench, err)
	}
	s.noteDone(fmt.Sprintf("traced %-10s requests=%d", bench, len(reqs)))
	return reqs, nil
}

// simConfig builds the simulator configuration for one run.
func (s *Session) simConfig(bench string, mode coalesce.Mode, v variant) sim.Config {
	cfg := sim.DefaultConfig(bench, mode)
	cfg.Seed = s.opts.Seed
	cfg.Scale = s.opts.Scale
	cfg.AccessesPerCore = s.opts.AccessesPerCore
	cfg.Procs = []sim.ProcSpec{{Benchmark: bench, Cores: s.opts.Cores}}
	if v == varMulti {
		half := s.opts.Cores / 2
		if half == 0 {
			half = 1
		}
		cfg.Procs = []sim.ProcSpec{
			{Benchmark: bench, Cores: half},
			{Benchmark: partnerOf(bench), Cores: half},
		}
	}
	if v == varNoCtrl {
		cfg.DisableNetworkCtrl = true
	}
	switch v {
	case varFaultLo, varFaultHi:
		cfg.Faults = faultPlanOf(v)
	default:
		cfg.Faults = s.opts.Faults
	}
	if s.opts.L1Bytes > 0 || s.opts.LLCBytes > 0 {
		h := cache.DefaultHierarchyConfig(totalCores(cfg.Procs))
		if s.opts.L1Bytes > 0 {
			h.L1.Size = s.opts.L1Bytes
		}
		if s.opts.LLCBytes > 0 {
			h.LLC.Size = s.opts.LLCBytes
		}
		cfg.Hierarchy = h
	}
	return cfg
}

// need names one precomputable unit of work: a memoised simulation, or
// (when trace is set) a captured LLC request trace.
type need struct {
	bench string
	mode  coalesce.Mode
	v     variant
	trace bool
}

// simNeed declares one simulation dependency.
func simNeed(bench string, mode coalesce.Mode, v variant) need {
	return need{bench: bench, mode: mode, v: v}
}

// traceNeed declares one trace-capture dependency.
func traceNeed(bench string) need { return need{bench: bench, trace: true} }

// sweep declares one simulation per benchmark of the canonical suite for
// each of the given modes under one variant.
func sweep(v variant, modes ...coalesce.Mode) []need {
	var out []need
	for _, b := range workload.Names() {
		for _, m := range modes {
			out = append(out, simNeed(b, m, v))
		}
	}
	return out
}

// allTraces declares a trace capture per benchmark of the canonical
// suite.
func allTraces() []need {
	var out []need
	for _, b := range workload.Names() {
		out = append(out, traceNeed(b))
	}
	return out
}

// Precompute discovers every simulation and trace capture the named
// experiments (every registered experiment when none are named) will
// request and runs them through a bounded worker pool before returning.
// Subsequent Experiment.Run calls then assemble their tables purely from
// the memo, so the rendered output is byte-identical to a sequential
// run — the table contents depend only on each simulation's own
// deterministic result, never on completion order.
//
// Cancelling ctx stops feeding the pool and abandons the in-flight
// simulations (each aborts once its last waiter disconnects); Precompute
// then returns the context error. workers <= 0 falls back to
// Options.Parallel, and to runtime.GOMAXPROCS(0) when that is unset too.
// Failed simulations are reported but never stay memoised — Precompute
// returns the first error encountered, and a caller re-running the
// failing experiment executes the failed work fresh.
func (s *Session) Precompute(ctx context.Context, workers int, ids ...string) error {
	exps := All()
	if len(ids) > 0 {
		exps = exps[:0:0]
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				return fmt.Errorf("experiments: unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	seen := make(map[need]bool)
	var jobs []need
	for _, e := range exps {
		if e.Needs == nil {
			continue
		}
		for _, n := range e.Needs() {
			if seen[n] {
				continue
			}
			seen[n] = true
			jobs = append(jobs, n)
		}
	}

	// Count only jobs not already memoised toward the "[k/n]" total.
	s.mu.Lock()
	fresh := jobs[:0]
	for _, j := range jobs {
		if j.trace {
			if _, ok := s.traces[j.bench]; ok {
				continue
			}
		} else if _, ok := s.sims[simKey{j.bench, j.mode, j.v}]; ok {
			continue
		}
		fresh = append(fresh, j)
	}
	s.planned = s.ran + len(fresh)
	s.latchLocked()
	s.mu.Unlock()
	if len(fresh) == 0 {
		return ctx.Err()
	}

	if workers <= 0 {
		workers = s.opts.Parallel
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fresh) {
		workers = len(fresh)
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	ch := make(chan need)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				var err error
				if j.trace {
					_, err = s.traceCtx(ctx, j.bench)
				} else {
					_, err = s.resultCtx(ctx, j.bench, j.mode, j.v)
				}
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
feed:
	for _, j := range fresh {
		select {
		case ch <- j:
		case <-ctx.Done():
			break feed
		}
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// Completed returns how many simulations and trace captures the session
// has executed (memo hits excluded).
func (s *Session) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ran
}

func totalCores(procs []sim.ProcSpec) int {
	n := 0
	for _, p := range procs {
		n += p.Cores
	}
	return n
}

// partnerOf pairs each benchmark with the next one in the canonical list
// for the multiprocessing experiment, mirroring the paper's co-run of
// "different tests with diverse memory access patterns".
func partnerOf(bench string) string {
	names := workload.Names()
	for i, n := range names {
		if n == bench {
			return names[(i+1)%len(names)]
		}
	}
	return names[0]
}
