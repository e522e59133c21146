package sim

import (
	"context"
	"fmt"

	"github.com/pacsim/pac/internal/engine"
	"github.com/pacsim/pac/internal/mem"
)

// runEvents is the discrete-event driver: each iteration advances the
// clock straight to the next cycle at which any component can act and
// accounts for the skipped stretch in closed form (skipTo), then steps
// that cycle through the same drainCompletions/dispatch/issueCore/Tick
// chain the reference stepper runs. Results are byte-identical to
// runReference; the two drivers differ only in scheduling and skipping.
func (r *Runner) runEvents(ctx context.Context) error {
	done := ctx.Done()
	// The wake cache starts cold, fresh or from a checkpoint: a zero
	// r.coreWake and zero r.wakes make the first iteration step every
	// core, and stepEvents fills the cache from there.
	for iter := int64(0); !r.finished(); iter++ {
		if done != nil && iter&cancelCheckMask == 0 {
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
		next := r.nextEvent()
		if next > r.cfg.MaxCycles {
			// Nothing can happen before the wedge guard fires (or at
			// all, when next is engine.Never); let the loop run its
			// cycle at MaxCycles exactly as the reference does.
			next = r.cfg.MaxCycles
		}
		if next > r.now+1 {
			r.skipTo(next - 1)
		}
		r.stepEvents()
	}
	return nil
}

// nextEvent returns the earliest cycle strictly after now at which any
// component may act: the minimum over the cores (kept current by
// stepEvents in r.coreWake), the pipeline, the device, the MSHR intake
// and the fault injector, clamped below at now+1. It stops consulting
// components as soon as one is runnable next cycle, so the MSHR intake's
// merge probe stays off the hot path. The prefetcher is purely reactive
// (it acts inside the issuing core's access) and has no wake of its own.
func (r *Runner) nextEvent() int64 {
	now := r.now
	next := r.coreWake
	if next <= now+1 {
		return now + 1
	}
	if w := r.pipe.NextWake(now); w < next {
		if w <= now+1 {
			return now + 1
		}
		next = w
	}
	if w := r.dev.NextWake(now); w < next {
		if w <= now+1 {
			return now + 1
		}
		next = w
	}
	if w := r.dispatchWake(now); w < next {
		if w <= now+1 {
			return now + 1
		}
		next = w
	}
	if r.faults != nil {
		// A pending vault-stall window is a timed event: it bounds the
		// skip so the freeze lands on the exact cycle the window opens.
		if w := r.faults.NextWake(now); w < next {
			next = w
		}
	}
	if next < now+1 {
		next = now + 1
	}
	return next
}

// dispatchWake reports when the MSHR-intake stage can act: whenever the
// coalescer output holds a packet and either a free MSHR or a viable
// merge target exists. A held-back packet facing a full file with no
// merge target sleeps — only a completion can change that — and the
// per-cycle comparator retries the reference loop would perform are
// reconstructed by skipTo.
func (r *Runner) dispatchWake(now int64) int64 {
	if r.pipe.OutLen() == 0 {
		return engine.Never
	}
	if !r.file.Full() {
		return now + 1
	}
	if r.cfg.Mode.MergesInMSHR() {
		if pkt, ok := r.pipe.Front(); ok {
			if mergeable, _, _ := r.headProbe(pkt); mergeable {
				return now + 1
			}
		}
	}
	return engine.Never
}

// skipTo advances the clock to cycle t without stepping the machine,
// applying the per-cycle bookkeeping the reference stepper would have
// recorded across the skipped stretch: each core stalled on its
// outstanding-load budget retries (and fails) its access once per cycle,
// and a packet held back at the head of a full MSHR file re-runs its
// merge comparison once per cycle. nextEvent guarantees no other state
// can change in (r.now, t].
func (r *Runner) skipTo(t int64) {
	k := t - r.now
	if k <= 0 {
		return
	}
	// Every core with a non-fence access pending is asleep on its
	// budget here: one with budget, or with a fence, wakes at now+1 and
	// would have bounded the skip.
	r.res.CoreStallCycles += k * r.stalled
	if r.pipe.OutLen() > 0 && r.cfg.Mode.MergesInMSHR() {
		if pkt, ok := r.pipe.Front(); ok {
			_, cmp, fails := r.headProbe(pkt)
			r.file.Comparisons += k * cmp
			r.file.MergeFails += k * fails
		}
	}
	r.pipe.SkipTo(t)
	if r.faults != nil {
		r.faults.SkipTo(t)
	}
	r.res.SkippedCycles += k
	r.now = t
}

// stepEvents is step with the next cycle's per-core wake fused into the
// issue loop: issueCore(i) is the last mutation of core i within a cycle
// (completions land in phase 1, the pipeline tick never touches cores),
// so the wake computed right after it equals the core's wake at the top
// of the next iteration, and nextEvent reads the minimum as one field.
func (r *Runner) stepEvents() {
	r.beginCycle()

	now := r.now
	// A core whose cached wake is in the future provably does nothing
	// this cycle: the wake is either Never (budget-blocked or done) or a
	// future NextIssue, and completions that could change that zero it.
	// The one side effect its skipped issueCore call would have had is
	// the per-cycle stall count of a budget-blocked access; the cores
	// asleep on their budget now (after this cycle's completions) are
	// exactly the ones stalled counts.
	r.res.CoreStallCycles += r.stalled
	wake := engine.Never
	for i, w := range r.wakes {
		if w <= now {
			r.issueCore(i)
			c := &r.cores[i]
			w = r.coreWakeOf(c, now)
			r.wakes[i] = w
			if w == engine.Never && c.HasPending {
				r.stalled++
			}
		}
		if w < wake {
			wake = w
		}
	}
	r.coreWake = wake

	r.pipe.Tick()
}

// wakeUp zeroes core i's cached wake, forcing the event driver to
// re-evaluate the core next cycle; a core that was asleep on its budget
// leaves the stalled count.
func (r *Runner) wakeUp(i int) {
	if r.wakes[i] == engine.Never && r.cores[i].HasPending {
		r.stalled--
	}
	r.wakes[i] = 0
}

// headProbe returns ProbeMerge's verdict for the packet at the head of
// the coalescer output, memoized on (file generation, packet ID).
// ProbeMerge mutates nothing, so replaying a cached verdict is
// byte-identical to re-running the scan; the counters skipTo applies
// from cmp/fails are the same ones a fresh probe would have returned.
func (r *Runner) headProbe(pkt mem.Coalesced) (ok bool, cmp, fails int64) {
	if g := r.file.Gen; !r.probeValid || r.probeGen != g || r.probeHeadID != pkt.ID {
		r.probeOK, r.probeCmp, r.probeFails = r.file.ProbeMerge(pkt)
		r.probeGen, r.probeHeadID, r.probeValid = g, pkt.ID, true
	}
	return r.probeOK, r.probeCmp, r.probeFails
}

// coreWakeOf reports the earliest cycle at which one core can act. Cores
// with parked or stalled work that is retried every cycle pin the wake
// to now+1; a core blocked on its outstanding-load budget sleeps — only
// a device completion can free a slot, and the device's own wake covers
// that cycle.
func (r *Runner) coreWakeOf(c *coreState, now int64) int64 {
	switch {
	case c.parked() > 0:
		// Parked LLC outputs are offered to the pipeline every cycle.
		return now + 1
	case c.HasPending:
		if c.Pending.Op == mem.OpFence ||
			c.outstanding.Len() < r.cfg.MaxOutstandingLoads {
			// Fences retry against the pipeline each cycle; a stalled
			// access with budget again can issue now.
			return now + 1
		}
		// Blocked on the outstanding-load budget: sleeps until a
		// completion (the device wake) releases a fill.
		return engine.Never
	case c.Done:
		// Finished trace; nothing left to issue.
		return engine.Never
	case c.Issued >= r.cfg.AccessesPerCore:
		// Will mark itself done on the next step.
		return now + 1
	case c.NextIssue > now+1:
		// Pacing: ALU work between memory accesses.
		return c.NextIssue
	default:
		return now + 1
	}
}
