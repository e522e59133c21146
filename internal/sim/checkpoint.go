package sim

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/gobenc"
	"github.com/pacsim/pac/internal/hmc"
	"github.com/pacsim/pac/internal/mshr"
	"github.com/pacsim/pac/internal/prefetch"
	"github.com/pacsim/pac/internal/vm"
)

// Checkpoint is a complete, self-contained snapshot of a running
// simulation at a step boundary: resuming from it (ResumeFrom) and
// running to completion yields a Result byte-identical to the
// uninterrupted run — the invariant the checkpoint equivalence suite
// enforces across every mode, both drivers, and fault plans.
//
// Exactly one Pipe* field is non-nil, matching the run's mode; concrete
// per-mode state types keep gob encoding free of interface registration.
// The Signature string fingerprints every config field that shapes
// results, so a checkpoint can never be restored onto an incompatible
// machine.
type Checkpoint struct {
	Signature string
	Now       int64
	NextID    uint64

	Cores  []coreState // each core's saved state (coreState.save)
	Hier   cache.HierarchyState
	Pf     prefetch.PrefetcherState
	Spaces []vm.SpaceState
	File   mshr.FileState
	Dev    hmc.DeviceState
	Faults *fault.InjectorState

	PipePassthrough *coalesce.PassthroughState
	PipePAC         *core.PACState
	PipeSortNet     *coalesce.SortingState
	PipeRowBuf      *coalesce.RowBufState

	// Res is the driver-accumulated partial result (counters, latency
	// stats). Component snapshots inside it (Cache, MSHR, HMC, PAC) are
	// only filled at collect time and stay zero here.
	Res Result
}

// signature fingerprints the normalized config fields that determine
// simulation results. Run-scoped knobs (hooks, sinks, scratch, driver
// choice, checkpoint cadence, MaxCycles) are excluded: a run resumed
// under the reference stepper from an event-kernel checkpoint is still
// byte-identical.
func (c *Config) signature() string {
	return fmt.Sprintf("procs=%+v seed=%d scale=%g apc=%d mode=%d pac=%+v mshrs=%d subs=%d mol=%d pft=%d ii=%d pf=%+v hier=%+v hmc=%+v faults=%+v noctrl=%v virt=%v",
		c.Procs, c.Seed, c.Scale, c.AccessesPerCore, c.Mode, c.PAC,
		c.MSHRs, c.MaxSubentries, c.MaxOutstandingLoads, c.PrefetchThrottle,
		c.IssueInterval, c.Prefetch, c.Hierarchy, c.HMC, c.Faults,
		c.DisableNetworkCtrl, c.Virtualize)
}

// Checkpoint captures the run's complete state. It mutates nothing —
// every component snapshot is a deep copy — so a run that checkpoints
// produces results byte-identical to one that does not.
func (r *Runner) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Signature: r.cfg.signature(),
		Now:       r.now,
		NextID:    r.nextID,
		Cores:     make([]coreState, len(r.cores)),
		Hier:      r.hier.SaveState(),
		Pf:        r.pf.SaveState(),
		File:      r.file.SaveState(),
		Dev:       r.dev.SaveState(),
		Res:       r.res,
	}
	ck.Res.LoadLatencyHist = r.res.LoadLatencyHist.Clone()
	for i := range r.cores {
		ck.Cores[i] = r.cores[i].save()
	}
	for _, sp := range r.spaces {
		ck.Spaces = append(ck.Spaces, sp.SaveState())
	}
	if r.faults != nil {
		st := r.faults.SaveState()
		ck.Faults = &st
	}
	switch p := r.pipe.(type) {
	case *coalesce.Passthrough:
		st := p.SaveState()
		ck.PipePassthrough = &st
	case coalesce.PACAdapter:
		st := p.PAC.SaveState()
		ck.PipePAC = &st
	case *coalesce.SortingCoalescer:
		st := p.SaveState()
		ck.PipeSortNet = &st
	case *coalesce.RowBufferCoalescer:
		st := p.SaveState()
		ck.PipeRowBuf = &st
	default:
		panic(fmt.Sprintf("sim: checkpoint of unknown pipeline type %T", r.pipe))
	}
	return ck
}

// save copies the core's state: the not-yet-placed tail of its parked
// outputs, and its outstanding IDs sorted so encodings are canonical.
func (c *coreState) save() coreState {
	st := *c
	st.PendingOut = slices.Clone(c.PendingOut[c.outHead:])
	st.outHead = 0
	st.Outstanding = c.outstanding.AppendKeys(nil)
	slices.Sort(st.Outstanding)
	st.outstanding = nil
	return st
}

// restore overwrites the core's state from a saved one, keeping the
// core's identity, its parked-output buffer and its outstanding set.
func (c *coreState) restore(st coreState) {
	st.proc, st.localIdx = c.proc, c.localIdx
	st.PendingOut = append(c.PendingOut[:0], st.PendingOut...)
	st.outHead = 0
	c.outstanding.Clear()
	for _, id := range st.Outstanding {
		c.outstanding.Add(id)
	}
	st.outstanding, st.Outstanding = c.outstanding, nil
	*c = st
}

// emitCheckpoint takes a snapshot and hands it to the configured sink,
// then re-arms the cadence. Called from every driver loop at step
// boundaries once r.now crosses ckptNext.
func (r *Runner) emitCheckpoint() {
	r.ckptNext = r.now + r.ckptEvery
	r.cfg.CheckpointSink(r.Checkpoint())
}

// ResumeFrom builds a runner whose machine continues from the given
// checkpoint: the component graph is constructed exactly as NewRunner
// would, then every component's state is overwritten from the snapshot
// and the workload generators are fast-forwarded to each core's stream
// position. The continued run is byte-identical to the
// uninterrupted one. Caller-supplied generators cannot be resumed (their
// replay contract is unknown); cfg must describe the same simulation the
// checkpoint was taken from, enforced via the config signature.
func ResumeFrom(cfg Config, ck *Checkpoint) (*Runner, error) {
	if cfg.Generators != nil {
		return nil, fmt.Errorf("sim: cannot resume a run with caller-supplied generators")
	}
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.restore(ck); err != nil {
		r.release()
		return nil, fmt.Errorf("sim: resume: %w", err)
	}
	return r, nil
}

// restore overwrites the freshly built machine's state from a
// checkpoint.
func (r *Runner) restore(ck *Checkpoint) error {
	if sig := r.cfg.signature(); sig != ck.Signature {
		return fmt.Errorf("checkpoint signature mismatch:\n  checkpoint: %s\n  config:     %s", ck.Signature, sig)
	}
	if len(ck.Cores) != len(r.cores) {
		return fmt.Errorf("checkpoint has %d cores, machine has %d", len(ck.Cores), len(r.cores))
	}
	if err := r.hier.RestoreState(ck.Hier); err != nil {
		return err
	}
	if err := r.pf.RestoreState(ck.Pf); err != nil {
		return err
	}
	if len(ck.Spaces) != len(r.spaces) {
		return fmt.Errorf("checkpoint has %d address spaces, machine has %d", len(ck.Spaces), len(r.spaces))
	}
	for i, sp := range r.spaces {
		if err := sp.RestoreState(ck.Spaces[i]); err != nil {
			return err
		}
	}
	if err := r.file.RestoreState(ck.File); err != nil {
		return err
	}
	if err := r.dev.RestoreState(ck.Dev); err != nil {
		return err
	}
	if (r.faults != nil) != (ck.Faults != nil) {
		return fmt.Errorf("checkpoint and config disagree on fault injection")
	}
	if r.faults != nil {
		if err := r.faults.RestoreState(*ck.Faults); err != nil {
			return err
		}
	}

	switch p := r.pipe.(type) {
	case *coalesce.Passthrough:
		if ck.PipePassthrough == nil {
			return fmt.Errorf("checkpoint carries no passthrough pipeline state")
		}
		if err := p.RestoreState(*ck.PipePassthrough); err != nil {
			return err
		}
	case coalesce.PACAdapter:
		if ck.PipePAC == nil {
			return fmt.Errorf("checkpoint carries no PAC pipeline state")
		}
		if err := p.PAC.RestoreState(*ck.PipePAC); err != nil {
			return err
		}
	case *coalesce.SortingCoalescer:
		if ck.PipeSortNet == nil {
			return fmt.Errorf("checkpoint carries no sortnet pipeline state")
		}
		if err := p.RestoreState(*ck.PipeSortNet); err != nil {
			return err
		}
	case *coalesce.RowBufferCoalescer:
		if ck.PipeRowBuf == nil {
			return fmt.Errorf("checkpoint carries no rowbuf pipeline state")
		}
		if err := p.RestoreState(*ck.PipeRowBuf); err != nil {
			return err
		}
	default:
		return fmt.Errorf("cannot restore pipeline type %T", r.pipe)
	}

	for i := range r.cores {
		r.cores[i].restore(ck.Cores[i])
	}
	r.nextID = ck.NextID
	r.now = ck.Now
	r.res = ck.Res
	r.res.LoadLatencyHist = ck.Res.LoadLatencyHist.Clone()
	// The event driver's caches start cold, as on a fresh machine: zero
	// wakes make the first step re-evaluate every core.
	clear(r.wakes)
	r.stalled, r.coreWake = 0, 0
	r.probeValid = false
	if r.ckptEvery > 0 {
		r.ckptNext = r.now + r.ckptEvery
	}

	// Wind the generators forward to each core's stream position: past
	// every issued access and the held one, if any. The generator
	// contract (workload.Generator) makes per-core fast-forward exact.
	for i := range r.cores {
		c := &r.cores[i]
		drawn := c.Issued
		if c.HasLook {
			drawn++
		}
		for k := 0; k < drawn; k++ {
			r.gens[c.proc].Next(c.localIdx)
		}
	}
	return nil
}

// ckptEncoder sends the checkpoint type descriptors once per process.
var ckptEncoder gobenc.Encoder[Checkpoint]

// EncodeCheckpoint writes a checkpoint in gob encoding: the bytes a
// fresh gob.Encoder writes, with the type descriptors captured once. The
// stats codecs (Mean, Histogram) are exact, so a decoded checkpoint
// restores bit-identical float state.
func EncodeCheckpoint(w io.Writer, ck *Checkpoint) error {
	return ckptEncoder.Encode(w, ck)
}

// DecodeCheckpoint reads a gob-encoded checkpoint.
func DecodeCheckpoint(rd io.Reader) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := gob.NewDecoder(rd).Decode(ck); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	return ck, nil
}
