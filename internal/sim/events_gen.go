// Code generated by gen_events.go; DO NOT EDIT.

// events_gen.go holds the five monomorphic event-kernel drivers, one per
// coalesce.Mode. Each is the interface-based driver chain (runEvents /
// nextEvent / step / dispatch / skipTo / issueCore / issueAccess / route /
// enqueue / admit) specialized to its concrete pipeline type, with the
// mode-dependent branches (MergesInMSHR, the DMC arrival probe, the PAC
// network-controller bypass) folded to constants. The scheduler's min-wake
// loop is inlined as nextEvent<Mode>, with the per-core wake fused into
// step<Mode>'s issue loop — see DESIGN.md §12.
//
// Every specialization must stay byte-identical to runReference and to
// the generic fallback; the equivalence suite enforces this per benchmark
// × mode, with and without fault injection.
package sim

import (
	"context"
	"fmt"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/engine"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/workload"
)

var (
	_ = coalesce.ModeNone
	_ *core.PAC
)

// runEventsNone is the monomorphic event driver for None.
func (r *Runner) runEventsNone(ctx context.Context, pipe *coalesce.Passthrough) error {
	done := ctx.Done()
	r.coreWake = r.coresWake(r.now)
	for iter := int64(0); !r.finishedNone(pipe); iter++ {
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
		next := r.nextEventNone(pipe)
		if next > r.cfg.MaxCycles {
			next = r.cfg.MaxCycles
		}
		if next > r.now+1 {
			r.skipToNone(pipe, next-1)
		}
		r.stepNone(pipe)
	}
	return nil
}

// finishedNone mirrors Runner.finished with direct calls, cheapest
// check first: the device is busy for almost the whole run.
func (r *Runner) finishedNone(pipe *coalesce.Passthrough) bool {
	if r.dev.Outstanding() != 0 || !pipe.Drained() || r.file.Available() != r.file.Size() {
		return false
	}
	for i := range r.cores {
		c := &r.cores[i]
		if !c.done || c.outstanding.Len() > 0 || c.blocked() {
			return false
		}
	}
	return true
}

// nextEventNone is the engine.Scheduler min-wake loop specialized
// to this mode's component set. The prefetcher never self-schedules
// (NextWake ≡ Never), so it drops out; the per-core minimum was fused
// into stepNone and arrives precomputed in r.coreWake.
func (r *Runner) nextEventNone(pipe *coalesce.Passthrough) int64 {
	now := r.now
	next := r.coreWake
	if next <= now+1 {
		return now + 1
	}
	if w := pipe.NextWake(now); w < next {
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
	if w := r.dispatchWakeNone(pipe, now); w < next {
		if w <= now+1 {
			return now + 1
		}
		next = w
	}
	if r.faults != nil {
		if w := r.faults.NextWake(now); w < next {
			next = w
		}
	}
	if next < now+1 {
		next = now + 1
	}
	return next
}

// dispatchWakeNone mirrors Runner.dispatchWake, peeking at the
// head packet instead of a Pop/PushFront round trip and memoizing the
// ProbeMerge verdict on (MSHR generation, packet ID).
func (r *Runner) dispatchWakeNone(pipe *coalesce.Passthrough, now int64) int64 {
	if pipe.OutLen() == 0 {
		return engine.Never
	}
	if !r.file.Full() {
		return now + 1
	}
	return engine.Never
}

// skipToNone mirrors Runner.skipTo.
func (r *Runner) skipToNone(pipe *coalesce.Passthrough, t int64) {
	k := t - r.now
	if k <= 0 {
		return
	}
	for i := range r.cores {
		c := &r.cores[i]
		if c.hasPending && c.pending.Op != mem.OpFence {
			r.res.CoreStallCycles += k
		}
	}
	pipe.SkipTo(t)
	if r.faults != nil {
		r.faults.SkipTo(t)
	}
	r.res.SkippedCycles += k
	r.now = t
}

// stepNone mirrors Runner.step, fusing the next cycle's per-core
// wake into the issue loop: issueCore(i) is the last mutation of core i
// within a cycle (completions land in phase 1, the pipeline tick never
// touches cores), so the wake computed right after it equals coresWake
// evaluated at the top of the next iteration.
func (r *Runner) stepNone(pipe *coalesce.Passthrough) {
	r.now++

	if r.faults != nil {
		for {
			vault, until, ok := r.faults.PopWindow(r.now)
			if !ok {
				break
			}
			r.dev.FreezeVault(vault, until)
		}
	}

	r.drainCompletions()

	if pipe.OutLen() > 0 {
		pkt, _ := pipe.Pop()
		if !r.admitNone(pkt) {
			pipe.PushFront(pkt)
		}
	}

	now := r.now
	wake := engine.Never
	for i := range r.cores {
		c := &r.cores[i]
		if c.wake > now {
			// The core provably does nothing this cycle: its cached
			// wake is either Never (budget-blocked or done) or a
			// future nextIssue, and completions that could change
			// that zero the cache. The one side effect the skipped
			// call would have had is the per-cycle stall count of a
			// budget-blocked access.
			if c.hasPending && c.pending.Op != mem.OpFence {
				r.res.CoreStallCycles++
			}
		} else {
			r.issueCoreNone(pipe, i)
			c.wake = r.coreWakeOf(c, now)
		}
		if c.wake < wake {
			wake = c.wake
		}
	}
	r.coreWake = wake

	pipe.Tick()
}

// admitNone mirrors Runner.admit.
func (r *Runner) admitNone(pkt mem.Coalesced) bool {
	if _, ok := r.file.Allocate(pkt); !ok {
		return false
	}
	r.res.MemPackets++
	r.dev.Submit(pkt, r.now)
	r.scratch.parents.Put(pkt.Parents)
	return true
}

// issueCoreNone mirrors Runner.issueCore.
func (r *Runner) issueCoreNone(pipe *coalesce.Passthrough, i int) {
	c := &r.cores[i]

	for c.outHead < len(c.pendingOut) {
		o := c.pendingOut[c.outHead]
		if !r.enqueueNone(pipe, o.req, o.wb) {
			r.res.CoreStallCycles++
			return
		}
		c.outHead++
	}
	if c.outHead > 0 {
		c.pendingOut = c.pendingOut[:0]
		c.outHead = 0
	}

	var a workload.Access
	if c.hasPending {
		a = c.pending
		c.hasPending = false
	} else {
		if c.done {
			return
		}
		if c.issued >= r.cfg.AccessesPerCore {
			c.done = true
			return
		}
		if r.now < c.nextIssue {
			return
		}
		a = r.nextAccess(c)
		c.issued++
		c.nextIssue = r.now + int64(r.cfg.IssueInterval)
	}

	if !r.issueAccessNone(pipe, i, a) {
		c.pending = a
		c.hasPending = true
		r.res.CoreStallCycles++
	}
}

// issueAccessNone mirrors Runner.issueAccess.
func (r *Runner) issueAccessNone(pipe *coalesce.Passthrough, coreIdx int, a workload.Access) bool {
	c := &r.cores[coreIdx]

	if a.Op == mem.OpFence {
		return r.enqueueNone(pipe, mem.Request{Op: mem.OpFence, Core: coreIdx, Issue: r.now}, false)
	}

	if c.outstanding.Len() >= r.cfg.MaxOutstandingLoads {
		return false
	}

	addr := a.Addr
	if r.spaces != nil {
		addr = r.spaces[c.proc].Translate(addr)
	}
	out := &r.outcome
	r.hier.AccessInto(out, coreIdx, addr, a.Op, c.proc, r.now, &r.m.nextID)

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
		if miss.Op != mem.OpAtomic {
			for _, blk := range r.pf.Observe(coreIdx, mem.BlockNumber(miss.Addr)) {
				group = r.appendPrefetch(group, coreIdx, c, blk)
			}
		}
	}
	r.routeNone(pipe, c, group)
	r.groupBuf = group[:0]
	return true
}

// routeNone mirrors Runner.route; the
// network-controller bypass is PAC-only and folds away here.
func (r *Runner) routeNone(pipe *coalesce.Passthrough, c *coreState, group []outReq) {
	for _, o := range group {
		r.observe(o.req)
		if o.req.Op == mem.OpAtomic {
			if r.directAdmitNone(o.req, o.wb) {
				continue
			}
		}
		if !r.enqueueNone(pipe, o.req, o.wb) {
			c.pendingOut = append(c.pendingOut, o)
		}
	}
}

// directAdmitNone mirrors Runner.directAdmit.
func (r *Runner) directAdmitNone(req mem.Request, wb bool) bool {
	r.m.nextID++
	pkt := mem.Coalesced{
		ID:        r.m.nextID,
		Addr:      mem.BlockAlign(req.Addr),
		Size:      mem.BlockSize,
		Op:        req.Op,
		Parents:   append(r.scratch.parents.Get(), req),
		Assembled: r.now,
		Bypassed:  true,
	}
	if !r.admitNone(pkt) {
		r.scratch.parents.Put(pkt.Parents)
		return false
	}
	r.res.DirectDispatches++
	r.countRaw(req, wb)
	return true
}

// enqueueNone mirrors Runner.enqueue.
func (r *Runner) enqueueNone(pipe *coalesce.Passthrough, req mem.Request, wb bool) bool {
	if !pipe.Enqueue(req, wb) {
		return false
	}
	r.countRaw(req, wb)
	return true
}

// runEventsDMC is the monomorphic event driver for DMC.
func (r *Runner) runEventsDMC(ctx context.Context, pipe *coalesce.Passthrough) error {
	done := ctx.Done()
	r.coreWake = r.coresWake(r.now)
	for iter := int64(0); !r.finishedDMC(pipe); iter++ {
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
		next := r.nextEventDMC(pipe)
		if next > r.cfg.MaxCycles {
			next = r.cfg.MaxCycles
		}
		if next > r.now+1 {
			r.skipToDMC(pipe, next-1)
		}
		r.stepDMC(pipe)
	}
	return nil
}

// finishedDMC mirrors Runner.finished with direct calls, cheapest
// check first: the device is busy for almost the whole run.
func (r *Runner) finishedDMC(pipe *coalesce.Passthrough) bool {
	if r.dev.Outstanding() != 0 || !pipe.Drained() || r.file.Available() != r.file.Size() {
		return false
	}
	for i := range r.cores {
		c := &r.cores[i]
		if !c.done || c.outstanding.Len() > 0 || c.blocked() {
			return false
		}
	}
	return true
}

// nextEventDMC is the engine.Scheduler min-wake loop specialized
// to this mode's component set. The prefetcher never self-schedules
// (NextWake ≡ Never), so it drops out; the per-core minimum was fused
// into stepDMC and arrives precomputed in r.coreWake.
func (r *Runner) nextEventDMC(pipe *coalesce.Passthrough) int64 {
	now := r.now
	next := r.coreWake
	if next <= now+1 {
		return now + 1
	}
	if w := pipe.NextWake(now); w < next {
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
	if w := r.dispatchWakeDMC(pipe, now); w < next {
		if w <= now+1 {
			return now + 1
		}
		next = w
	}
	if r.faults != nil {
		if w := r.faults.NextWake(now); w < next {
			next = w
		}
	}
	if next < now+1 {
		next = now + 1
	}
	return next
}

// dispatchWakeDMC mirrors Runner.dispatchWake, peeking at the
// head packet instead of a Pop/PushFront round trip and memoizing the
// ProbeMerge verdict on (MSHR generation, packet ID).
func (r *Runner) dispatchWakeDMC(pipe *coalesce.Passthrough, now int64) int64 {
	if pipe.OutLen() == 0 {
		return engine.Never
	}
	if !r.file.Full() {
		return now + 1
	}
	if pkt, ok := pipe.Front(); ok {
		if mergeable, _, _ := r.headProbe(pkt); mergeable {
			return now + 1
		}
	}
	return engine.Never
}

// skipToDMC mirrors Runner.skipTo.
func (r *Runner) skipToDMC(pipe *coalesce.Passthrough, t int64) {
	k := t - r.now
	if k <= 0 {
		return
	}
	for i := range r.cores {
		c := &r.cores[i]
		if c.hasPending && c.pending.Op != mem.OpFence {
			r.res.CoreStallCycles += k
		}
	}
	if pkt, ok := pipe.Front(); ok {
		_, cmp, fails := r.headProbe(pkt)
		r.file.Comparisons += k * cmp
		r.file.MergeFails += k * fails
	}
	pipe.SkipTo(t)
	if r.faults != nil {
		r.faults.SkipTo(t)
	}
	r.res.SkippedCycles += k
	r.now = t
}

// stepDMC mirrors Runner.step, fusing the next cycle's per-core
// wake into the issue loop: issueCore(i) is the last mutation of core i
// within a cycle (completions land in phase 1, the pipeline tick never
// touches cores), so the wake computed right after it equals coresWake
// evaluated at the top of the next iteration.
func (r *Runner) stepDMC(pipe *coalesce.Passthrough) {
	r.now++

	if r.faults != nil {
		for {
			vault, until, ok := r.faults.PopWindow(r.now)
			if !ok {
				break
			}
			r.dev.FreezeVault(vault, until)
		}
	}

	r.drainCompletions()

	if pipe.OutLen() > 0 {
		pkt, _ := pipe.Pop()
		if !r.admitDMC(pkt) {
			pipe.PushFront(pkt)
		}
	}

	now := r.now
	wake := engine.Never
	for i := range r.cores {
		c := &r.cores[i]
		if c.wake > now {
			// The core provably does nothing this cycle: its cached
			// wake is either Never (budget-blocked or done) or a
			// future nextIssue, and completions that could change
			// that zero the cache. The one side effect the skipped
			// call would have had is the per-cycle stall count of a
			// budget-blocked access.
			if c.hasPending && c.pending.Op != mem.OpFence {
				r.res.CoreStallCycles++
			}
		} else {
			r.issueCoreDMC(pipe, i)
			c.wake = r.coreWakeOf(c, now)
		}
		if c.wake < wake {
			wake = c.wake
		}
	}
	r.coreWake = wake

	pipe.Tick()
}

// admitDMC mirrors Runner.admit.
func (r *Runner) admitDMC(pkt mem.Coalesced) bool {
	if _, ok := r.file.TryMerge(pkt); ok {
		r.res.MSHRMergedRaw += int64(len(pkt.Parents))
		r.scratch.parents.Put(pkt.Parents)
		return true
	}
	if _, ok := r.file.Allocate(pkt); !ok {
		return false
	}
	r.res.MemPackets++
	r.dev.Submit(pkt, r.now)
	r.scratch.parents.Put(pkt.Parents)
	return true
}

// issueCoreDMC mirrors Runner.issueCore.
func (r *Runner) issueCoreDMC(pipe *coalesce.Passthrough, i int) {
	c := &r.cores[i]

	for c.outHead < len(c.pendingOut) {
		o := c.pendingOut[c.outHead]
		if !r.enqueueDMC(pipe, o.req, o.wb) {
			r.res.CoreStallCycles++
			return
		}
		c.outHead++
	}
	if c.outHead > 0 {
		c.pendingOut = c.pendingOut[:0]
		c.outHead = 0
	}

	var a workload.Access
	if c.hasPending {
		a = c.pending
		c.hasPending = false
	} else {
		if c.done {
			return
		}
		if c.issued >= r.cfg.AccessesPerCore {
			c.done = true
			return
		}
		if r.now < c.nextIssue {
			return
		}
		a = r.nextAccess(c)
		c.issued++
		c.nextIssue = r.now + int64(r.cfg.IssueInterval)
	}

	if !r.issueAccessDMC(pipe, i, a) {
		c.pending = a
		c.hasPending = true
		r.res.CoreStallCycles++
	}
}

// issueAccessDMC mirrors Runner.issueAccess.
func (r *Runner) issueAccessDMC(pipe *coalesce.Passthrough, coreIdx int, a workload.Access) bool {
	c := &r.cores[coreIdx]

	if a.Op == mem.OpFence {
		return r.enqueueDMC(pipe, mem.Request{Op: mem.OpFence, Core: coreIdx, Issue: r.now}, false)
	}

	if c.outstanding.Len() >= r.cfg.MaxOutstandingLoads {
		return false
	}

	addr := a.Addr
	if r.spaces != nil {
		addr = r.spaces[c.proc].Translate(addr)
	}
	out := &r.outcome
	r.hier.AccessInto(out, coreIdx, addr, a.Op, c.proc, r.now, &r.m.nextID)

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
		if miss.Op != mem.OpAtomic {
			for _, blk := range r.pf.Observe(coreIdx, mem.BlockNumber(miss.Addr)) {
				group = r.appendPrefetch(group, coreIdx, c, blk)
			}
		}
	}
	r.routeDMC(pipe, c, group)
	r.groupBuf = group[:0]
	return true
}

// routeDMC mirrors Runner.route; the
// network-controller bypass is PAC-only and folds away here.
func (r *Runner) routeDMC(pipe *coalesce.Passthrough, c *coreState, group []outReq) {
	for _, o := range group {
		r.observe(o.req)
		if o.req.Op == mem.OpAtomic {
			if r.directAdmitDMC(o.req, o.wb) {
				continue
			}
		}
		if !r.enqueueDMC(pipe, o.req, o.wb) {
			c.pendingOut = append(c.pendingOut, o)
		}
	}
}

// directAdmitDMC mirrors Runner.directAdmit.
func (r *Runner) directAdmitDMC(req mem.Request, wb bool) bool {
	r.m.nextID++
	pkt := mem.Coalesced{
		ID:        r.m.nextID,
		Addr:      mem.BlockAlign(req.Addr),
		Size:      mem.BlockSize,
		Op:        req.Op,
		Parents:   append(r.scratch.parents.Get(), req),
		Assembled: r.now,
		Bypassed:  true,
	}
	if !r.admitDMC(pkt) {
		r.scratch.parents.Put(pkt.Parents)
		return false
	}
	r.res.DirectDispatches++
	r.countRaw(req, wb)
	return true
}

// enqueueDMC mirrors Runner.enqueue including the
// DMC arrival-time MSHR probe.
func (r *Runner) enqueueDMC(pipe *coalesce.Passthrough, req mem.Request, wb bool) bool {
	if req.Op.IsAccess() && req.Op != mem.OpAtomic {
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
	if !pipe.Enqueue(req, wb) {
		return false
	}
	r.countRaw(req, wb)
	return true
}

// runEventsPAC is the monomorphic event driver for PAC.
func (r *Runner) runEventsPAC(ctx context.Context, pipe *core.PAC) error {
	done := ctx.Done()
	r.coreWake = r.coresWake(r.now)
	for iter := int64(0); !r.finishedPAC(pipe); iter++ {
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
		next := r.nextEventPAC(pipe)
		if next > r.cfg.MaxCycles {
			next = r.cfg.MaxCycles
		}
		if next > r.now+1 {
			r.skipToPAC(pipe, next-1)
		}
		r.stepPAC(pipe)
	}
	return nil
}

// finishedPAC mirrors Runner.finished with direct calls, cheapest
// check first: the device is busy for almost the whole run.
func (r *Runner) finishedPAC(pipe *core.PAC) bool {
	if r.dev.Outstanding() != 0 || !pipe.Drained() || r.file.Available() != r.file.Size() {
		return false
	}
	for i := range r.cores {
		c := &r.cores[i]
		if !c.done || c.outstanding.Len() > 0 || c.blocked() {
			return false
		}
	}
	return true
}

// nextEventPAC is the engine.Scheduler min-wake loop specialized
// to this mode's component set. The prefetcher never self-schedules
// (NextWake ≡ Never), so it drops out; the per-core minimum was fused
// into stepPAC and arrives precomputed in r.coreWake.
func (r *Runner) nextEventPAC(pipe *core.PAC) int64 {
	now := r.now
	next := r.coreWake
	if next <= now+1 {
		return now + 1
	}
	if w := pipe.NextWake(now); w < next {
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
	if w := r.dispatchWakePAC(pipe, now); w < next {
		if w <= now+1 {
			return now + 1
		}
		next = w
	}
	if r.faults != nil {
		if w := r.faults.NextWake(now); w < next {
			next = w
		}
	}
	if next < now+1 {
		next = now + 1
	}
	return next
}

// dispatchWakePAC mirrors Runner.dispatchWake, peeking at the
// head packet instead of a Pop/PushFront round trip and memoizing the
// ProbeMerge verdict on (MSHR generation, packet ID).
func (r *Runner) dispatchWakePAC(pipe *core.PAC, now int64) int64 {
	if pipe.MAQLen() == 0 {
		return engine.Never
	}
	if !r.file.Full() {
		return now + 1
	}
	if pkt, ok := pipe.FrontMAQ(); ok {
		if mergeable, _, _ := r.headProbe(pkt); mergeable {
			return now + 1
		}
	}
	return engine.Never
}

// skipToPAC mirrors Runner.skipTo.
func (r *Runner) skipToPAC(pipe *core.PAC, t int64) {
	k := t - r.now
	if k <= 0 {
		return
	}
	for i := range r.cores {
		c := &r.cores[i]
		if c.hasPending && c.pending.Op != mem.OpFence {
			r.res.CoreStallCycles += k
		}
	}
	if pkt, ok := pipe.FrontMAQ(); ok {
		_, cmp, fails := r.headProbe(pkt)
		r.file.Comparisons += k * cmp
		r.file.MergeFails += k * fails
	}
	pipe.SkipTo(t)
	if r.faults != nil {
		r.faults.SkipTo(t)
	}
	r.res.SkippedCycles += k
	r.now = t
}

// stepPAC mirrors Runner.step, fusing the next cycle's per-core
// wake into the issue loop: issueCore(i) is the last mutation of core i
// within a cycle (completions land in phase 1, the pipeline tick never
// touches cores), so the wake computed right after it equals coresWake
// evaluated at the top of the next iteration.
func (r *Runner) stepPAC(pipe *core.PAC) {
	r.now++

	if r.faults != nil {
		for {
			vault, until, ok := r.faults.PopWindow(r.now)
			if !ok {
				break
			}
			r.dev.FreezeVault(vault, until)
		}
	}

	r.drainCompletions()

	if pipe.MAQLen() > 0 {
		pkt, _ := pipe.PopMAQ()
		if !r.admitPAC(pkt) {
			pipe.PushFrontMAQ(pkt)
		}
	}

	now := r.now
	wake := engine.Never
	for i := range r.cores {
		c := &r.cores[i]
		if c.wake > now {
			// The core provably does nothing this cycle: its cached
			// wake is either Never (budget-blocked or done) or a
			// future nextIssue, and completions that could change
			// that zero the cache. The one side effect the skipped
			// call would have had is the per-cycle stall count of a
			// budget-blocked access.
			if c.hasPending && c.pending.Op != mem.OpFence {
				r.res.CoreStallCycles++
			}
		} else {
			r.issueCorePAC(pipe, i)
			c.wake = r.coreWakeOf(c, now)
		}
		if c.wake < wake {
			wake = c.wake
		}
	}
	r.coreWake = wake

	pipe.Tick()
}

// admitPAC mirrors Runner.admit.
func (r *Runner) admitPAC(pkt mem.Coalesced) bool {
	if _, ok := r.file.TryMerge(pkt); ok {
		r.res.MSHRMergedRaw += int64(len(pkt.Parents))
		r.scratch.parents.Put(pkt.Parents)
		return true
	}
	if _, ok := r.file.Allocate(pkt); !ok {
		return false
	}
	r.res.MemPackets++
	r.dev.Submit(pkt, r.now)
	r.scratch.parents.Put(pkt.Parents)
	return true
}

// issueCorePAC mirrors Runner.issueCore.
func (r *Runner) issueCorePAC(pipe *core.PAC, i int) {
	c := &r.cores[i]

	for c.outHead < len(c.pendingOut) {
		o := c.pendingOut[c.outHead]
		if !r.enqueuePAC(pipe, o.req, o.wb) {
			r.res.CoreStallCycles++
			return
		}
		c.outHead++
	}
	if c.outHead > 0 {
		c.pendingOut = c.pendingOut[:0]
		c.outHead = 0
	}

	var a workload.Access
	if c.hasPending {
		a = c.pending
		c.hasPending = false
	} else {
		if c.done {
			return
		}
		if c.issued >= r.cfg.AccessesPerCore {
			c.done = true
			return
		}
		if r.now < c.nextIssue {
			return
		}
		a = r.nextAccess(c)
		c.issued++
		c.nextIssue = r.now + int64(r.cfg.IssueInterval)
	}

	if !r.issueAccessPAC(pipe, i, a) {
		c.pending = a
		c.hasPending = true
		r.res.CoreStallCycles++
	}
}

// issueAccessPAC mirrors Runner.issueAccess.
func (r *Runner) issueAccessPAC(pipe *core.PAC, coreIdx int, a workload.Access) bool {
	c := &r.cores[coreIdx]

	if a.Op == mem.OpFence {
		return r.enqueuePAC(pipe, mem.Request{Op: mem.OpFence, Core: coreIdx, Issue: r.now}, false)
	}

	if c.outstanding.Len() >= r.cfg.MaxOutstandingLoads {
		return false
	}

	addr := a.Addr
	if r.spaces != nil {
		addr = r.spaces[c.proc].Translate(addr)
	}
	out := &r.outcome
	r.hier.AccessInto(out, coreIdx, addr, a.Op, c.proc, r.now, &r.m.nextID)

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
		if miss.Op != mem.OpAtomic {
			for _, blk := range r.pf.Observe(coreIdx, mem.BlockNumber(miss.Addr)) {
				group = r.appendPrefetch(group, coreIdx, c, blk)
			}
		}
	}
	r.routePAC(pipe, c, group)
	r.groupBuf = group[:0]
	return true
}

// routePAC mirrors Runner.route including the
// network-controller bypass, which only exists in PAC mode.
func (r *Runner) routePAC(pipe *core.PAC, c *coreState, group []outReq) {
	lone := len(group) == 1 && !r.cfg.DisableNetworkCtrl &&
		pipe.MAQEmpty() && pipe.InputBacklog() == 0 && !r.file.Full()
	for _, o := range group {
		r.observe(o.req)
		if o.req.Op == mem.OpAtomic || (lone && o.req.Op != mem.OpFence) {
			if r.directAdmitPAC(o.req, o.wb) {
				continue
			}
		}
		if !r.enqueuePAC(pipe, o.req, o.wb) {
			c.pendingOut = append(c.pendingOut, o)
		}
	}
}

// directAdmitPAC mirrors Runner.directAdmit.
func (r *Runner) directAdmitPAC(req mem.Request, wb bool) bool {
	r.m.nextID++
	pkt := mem.Coalesced{
		ID:        r.m.nextID,
		Addr:      mem.BlockAlign(req.Addr),
		Size:      mem.BlockSize,
		Op:        req.Op,
		Parents:   append(r.scratch.parents.Get(), req),
		Assembled: r.now,
		Bypassed:  true,
	}
	if !r.admitPAC(pkt) {
		r.scratch.parents.Put(pkt.Parents)
		return false
	}
	r.res.DirectDispatches++
	r.countRaw(req, wb)
	return true
}

// enqueuePAC mirrors Runner.enqueue.
func (r *Runner) enqueuePAC(pipe *core.PAC, req mem.Request, wb bool) bool {
	if !pipe.Enqueue(req, wb) {
		return false
	}
	r.countRaw(req, wb)
	return true
}

// runEventsSortNet is the monomorphic event driver for SortNet.
func (r *Runner) runEventsSortNet(ctx context.Context, pipe *coalesce.SortingCoalescer) error {
	done := ctx.Done()
	r.coreWake = r.coresWake(r.now)
	for iter := int64(0); !r.finishedSortNet(pipe); iter++ {
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
		next := r.nextEventSortNet(pipe)
		if next > r.cfg.MaxCycles {
			next = r.cfg.MaxCycles
		}
		if next > r.now+1 {
			r.skipToSortNet(pipe, next-1)
		}
		r.stepSortNet(pipe)
	}
	return nil
}

// finishedSortNet mirrors Runner.finished with direct calls, cheapest
// check first: the device is busy for almost the whole run.
func (r *Runner) finishedSortNet(pipe *coalesce.SortingCoalescer) bool {
	if r.dev.Outstanding() != 0 || !pipe.Drained() || r.file.Available() != r.file.Size() {
		return false
	}
	for i := range r.cores {
		c := &r.cores[i]
		if !c.done || c.outstanding.Len() > 0 || c.blocked() {
			return false
		}
	}
	return true
}

// nextEventSortNet is the engine.Scheduler min-wake loop specialized
// to this mode's component set. The prefetcher never self-schedules
// (NextWake ≡ Never), so it drops out; the per-core minimum was fused
// into stepSortNet and arrives precomputed in r.coreWake.
func (r *Runner) nextEventSortNet(pipe *coalesce.SortingCoalescer) int64 {
	now := r.now
	next := r.coreWake
	if next <= now+1 {
		return now + 1
	}
	if w := pipe.NextWake(now); w < next {
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
	if w := r.dispatchWakeSortNet(pipe, now); w < next {
		if w <= now+1 {
			return now + 1
		}
		next = w
	}
	if r.faults != nil {
		if w := r.faults.NextWake(now); w < next {
			next = w
		}
	}
	if next < now+1 {
		next = now + 1
	}
	return next
}

// dispatchWakeSortNet mirrors Runner.dispatchWake, peeking at the
// head packet instead of a Pop/PushFront round trip and memoizing the
// ProbeMerge verdict on (MSHR generation, packet ID).
func (r *Runner) dispatchWakeSortNet(pipe *coalesce.SortingCoalescer, now int64) int64 {
	if pipe.OutLen() == 0 {
		return engine.Never
	}
	if !r.file.Full() {
		return now + 1
	}
	if pkt, ok := pipe.Front(); ok {
		if mergeable, _, _ := r.headProbe(pkt); mergeable {
			return now + 1
		}
	}
	return engine.Never
}

// skipToSortNet mirrors Runner.skipTo.
func (r *Runner) skipToSortNet(pipe *coalesce.SortingCoalescer, t int64) {
	k := t - r.now
	if k <= 0 {
		return
	}
	for i := range r.cores {
		c := &r.cores[i]
		if c.hasPending && c.pending.Op != mem.OpFence {
			r.res.CoreStallCycles += k
		}
	}
	if pkt, ok := pipe.Front(); ok {
		_, cmp, fails := r.headProbe(pkt)
		r.file.Comparisons += k * cmp
		r.file.MergeFails += k * fails
	}
	pipe.SkipTo(t)
	if r.faults != nil {
		r.faults.SkipTo(t)
	}
	r.res.SkippedCycles += k
	r.now = t
}

// stepSortNet mirrors Runner.step, fusing the next cycle's per-core
// wake into the issue loop: issueCore(i) is the last mutation of core i
// within a cycle (completions land in phase 1, the pipeline tick never
// touches cores), so the wake computed right after it equals coresWake
// evaluated at the top of the next iteration.
func (r *Runner) stepSortNet(pipe *coalesce.SortingCoalescer) {
	r.now++

	if r.faults != nil {
		for {
			vault, until, ok := r.faults.PopWindow(r.now)
			if !ok {
				break
			}
			r.dev.FreezeVault(vault, until)
		}
	}

	r.drainCompletions()

	if pipe.OutLen() > 0 {
		pkt, _ := pipe.Pop()
		if !r.admitSortNet(pkt) {
			pipe.PushFront(pkt)
		}
	}

	now := r.now
	wake := engine.Never
	for i := range r.cores {
		c := &r.cores[i]
		if c.wake > now {
			// The core provably does nothing this cycle: its cached
			// wake is either Never (budget-blocked or done) or a
			// future nextIssue, and completions that could change
			// that zero the cache. The one side effect the skipped
			// call would have had is the per-cycle stall count of a
			// budget-blocked access.
			if c.hasPending && c.pending.Op != mem.OpFence {
				r.res.CoreStallCycles++
			}
		} else {
			r.issueCoreSortNet(pipe, i)
			c.wake = r.coreWakeOf(c, now)
		}
		if c.wake < wake {
			wake = c.wake
		}
	}
	r.coreWake = wake

	pipe.Tick()
}

// admitSortNet mirrors Runner.admit.
func (r *Runner) admitSortNet(pkt mem.Coalesced) bool {
	if _, ok := r.file.TryMerge(pkt); ok {
		r.res.MSHRMergedRaw += int64(len(pkt.Parents))
		r.scratch.parents.Put(pkt.Parents)
		return true
	}
	if _, ok := r.file.Allocate(pkt); !ok {
		return false
	}
	r.res.MemPackets++
	r.dev.Submit(pkt, r.now)
	r.scratch.parents.Put(pkt.Parents)
	return true
}

// issueCoreSortNet mirrors Runner.issueCore.
func (r *Runner) issueCoreSortNet(pipe *coalesce.SortingCoalescer, i int) {
	c := &r.cores[i]

	for c.outHead < len(c.pendingOut) {
		o := c.pendingOut[c.outHead]
		if !r.enqueueSortNet(pipe, o.req, o.wb) {
			r.res.CoreStallCycles++
			return
		}
		c.outHead++
	}
	if c.outHead > 0 {
		c.pendingOut = c.pendingOut[:0]
		c.outHead = 0
	}

	var a workload.Access
	if c.hasPending {
		a = c.pending
		c.hasPending = false
	} else {
		if c.done {
			return
		}
		if c.issued >= r.cfg.AccessesPerCore {
			c.done = true
			return
		}
		if r.now < c.nextIssue {
			return
		}
		a = r.nextAccess(c)
		c.issued++
		c.nextIssue = r.now + int64(r.cfg.IssueInterval)
	}

	if !r.issueAccessSortNet(pipe, i, a) {
		c.pending = a
		c.hasPending = true
		r.res.CoreStallCycles++
	}
}

// issueAccessSortNet mirrors Runner.issueAccess.
func (r *Runner) issueAccessSortNet(pipe *coalesce.SortingCoalescer, coreIdx int, a workload.Access) bool {
	c := &r.cores[coreIdx]

	if a.Op == mem.OpFence {
		return r.enqueueSortNet(pipe, mem.Request{Op: mem.OpFence, Core: coreIdx, Issue: r.now}, false)
	}

	if c.outstanding.Len() >= r.cfg.MaxOutstandingLoads {
		return false
	}

	addr := a.Addr
	if r.spaces != nil {
		addr = r.spaces[c.proc].Translate(addr)
	}
	out := &r.outcome
	r.hier.AccessInto(out, coreIdx, addr, a.Op, c.proc, r.now, &r.m.nextID)

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
		if miss.Op != mem.OpAtomic {
			for _, blk := range r.pf.Observe(coreIdx, mem.BlockNumber(miss.Addr)) {
				group = r.appendPrefetch(group, coreIdx, c, blk)
			}
		}
	}
	r.routeSortNet(pipe, c, group)
	r.groupBuf = group[:0]
	return true
}

// routeSortNet mirrors Runner.route; the
// network-controller bypass is PAC-only and folds away here.
func (r *Runner) routeSortNet(pipe *coalesce.SortingCoalescer, c *coreState, group []outReq) {
	for _, o := range group {
		r.observe(o.req)
		if o.req.Op == mem.OpAtomic {
			if r.directAdmitSortNet(o.req, o.wb) {
				continue
			}
		}
		if !r.enqueueSortNet(pipe, o.req, o.wb) {
			c.pendingOut = append(c.pendingOut, o)
		}
	}
}

// directAdmitSortNet mirrors Runner.directAdmit.
func (r *Runner) directAdmitSortNet(req mem.Request, wb bool) bool {
	r.m.nextID++
	pkt := mem.Coalesced{
		ID:        r.m.nextID,
		Addr:      mem.BlockAlign(req.Addr),
		Size:      mem.BlockSize,
		Op:        req.Op,
		Parents:   append(r.scratch.parents.Get(), req),
		Assembled: r.now,
		Bypassed:  true,
	}
	if !r.admitSortNet(pkt) {
		r.scratch.parents.Put(pkt.Parents)
		return false
	}
	r.res.DirectDispatches++
	r.countRaw(req, wb)
	return true
}

// enqueueSortNet mirrors Runner.enqueue.
func (r *Runner) enqueueSortNet(pipe *coalesce.SortingCoalescer, req mem.Request, wb bool) bool {
	if !pipe.Enqueue(req, wb) {
		return false
	}
	r.countRaw(req, wb)
	return true
}

// runEventsRowBuf is the monomorphic event driver for RowBuf.
func (r *Runner) runEventsRowBuf(ctx context.Context, pipe *coalesce.RowBufferCoalescer) error {
	done := ctx.Done()
	r.coreWake = r.coresWake(r.now)
	for iter := int64(0); !r.finishedRowBuf(pipe); iter++ {
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
		next := r.nextEventRowBuf(pipe)
		if next > r.cfg.MaxCycles {
			next = r.cfg.MaxCycles
		}
		if next > r.now+1 {
			r.skipToRowBuf(pipe, next-1)
		}
		r.stepRowBuf(pipe)
	}
	return nil
}

// finishedRowBuf mirrors Runner.finished with direct calls, cheapest
// check first: the device is busy for almost the whole run.
func (r *Runner) finishedRowBuf(pipe *coalesce.RowBufferCoalescer) bool {
	if r.dev.Outstanding() != 0 || !pipe.Drained() || r.file.Available() != r.file.Size() {
		return false
	}
	for i := range r.cores {
		c := &r.cores[i]
		if !c.done || c.outstanding.Len() > 0 || c.blocked() {
			return false
		}
	}
	return true
}

// nextEventRowBuf is the engine.Scheduler min-wake loop specialized
// to this mode's component set. The prefetcher never self-schedules
// (NextWake ≡ Never), so it drops out; the per-core minimum was fused
// into stepRowBuf and arrives precomputed in r.coreWake.
func (r *Runner) nextEventRowBuf(pipe *coalesce.RowBufferCoalescer) int64 {
	now := r.now
	next := r.coreWake
	if next <= now+1 {
		return now + 1
	}
	if w := pipe.NextWake(now); w < next {
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
	if w := r.dispatchWakeRowBuf(pipe, now); w < next {
		if w <= now+1 {
			return now + 1
		}
		next = w
	}
	if r.faults != nil {
		if w := r.faults.NextWake(now); w < next {
			next = w
		}
	}
	if next < now+1 {
		next = now + 1
	}
	return next
}

// dispatchWakeRowBuf mirrors Runner.dispatchWake, peeking at the
// head packet instead of a Pop/PushFront round trip and memoizing the
// ProbeMerge verdict on (MSHR generation, packet ID).
func (r *Runner) dispatchWakeRowBuf(pipe *coalesce.RowBufferCoalescer, now int64) int64 {
	if pipe.OutLen() == 0 {
		return engine.Never
	}
	if !r.file.Full() {
		return now + 1
	}
	if pkt, ok := pipe.Front(); ok {
		if mergeable, _, _ := r.headProbe(pkt); mergeable {
			return now + 1
		}
	}
	return engine.Never
}

// skipToRowBuf mirrors Runner.skipTo.
func (r *Runner) skipToRowBuf(pipe *coalesce.RowBufferCoalescer, t int64) {
	k := t - r.now
	if k <= 0 {
		return
	}
	for i := range r.cores {
		c := &r.cores[i]
		if c.hasPending && c.pending.Op != mem.OpFence {
			r.res.CoreStallCycles += k
		}
	}
	if pkt, ok := pipe.Front(); ok {
		_, cmp, fails := r.headProbe(pkt)
		r.file.Comparisons += k * cmp
		r.file.MergeFails += k * fails
	}
	pipe.SkipTo(t)
	if r.faults != nil {
		r.faults.SkipTo(t)
	}
	r.res.SkippedCycles += k
	r.now = t
}

// stepRowBuf mirrors Runner.step, fusing the next cycle's per-core
// wake into the issue loop: issueCore(i) is the last mutation of core i
// within a cycle (completions land in phase 1, the pipeline tick never
// touches cores), so the wake computed right after it equals coresWake
// evaluated at the top of the next iteration.
func (r *Runner) stepRowBuf(pipe *coalesce.RowBufferCoalescer) {
	r.now++

	if r.faults != nil {
		for {
			vault, until, ok := r.faults.PopWindow(r.now)
			if !ok {
				break
			}
			r.dev.FreezeVault(vault, until)
		}
	}

	r.drainCompletions()

	if pipe.OutLen() > 0 {
		pkt, _ := pipe.Pop()
		if !r.admitRowBuf(pkt) {
			pipe.PushFront(pkt)
		}
	}

	now := r.now
	wake := engine.Never
	for i := range r.cores {
		c := &r.cores[i]
		if c.wake > now {
			// The core provably does nothing this cycle: its cached
			// wake is either Never (budget-blocked or done) or a
			// future nextIssue, and completions that could change
			// that zero the cache. The one side effect the skipped
			// call would have had is the per-cycle stall count of a
			// budget-blocked access.
			if c.hasPending && c.pending.Op != mem.OpFence {
				r.res.CoreStallCycles++
			}
		} else {
			r.issueCoreRowBuf(pipe, i)
			c.wake = r.coreWakeOf(c, now)
		}
		if c.wake < wake {
			wake = c.wake
		}
	}
	r.coreWake = wake

	pipe.Tick()
}

// admitRowBuf mirrors Runner.admit.
func (r *Runner) admitRowBuf(pkt mem.Coalesced) bool {
	if _, ok := r.file.TryMerge(pkt); ok {
		r.res.MSHRMergedRaw += int64(len(pkt.Parents))
		r.scratch.parents.Put(pkt.Parents)
		return true
	}
	if _, ok := r.file.Allocate(pkt); !ok {
		return false
	}
	r.res.MemPackets++
	r.dev.Submit(pkt, r.now)
	r.scratch.parents.Put(pkt.Parents)
	return true
}

// issueCoreRowBuf mirrors Runner.issueCore.
func (r *Runner) issueCoreRowBuf(pipe *coalesce.RowBufferCoalescer, i int) {
	c := &r.cores[i]

	for c.outHead < len(c.pendingOut) {
		o := c.pendingOut[c.outHead]
		if !r.enqueueRowBuf(pipe, o.req, o.wb) {
			r.res.CoreStallCycles++
			return
		}
		c.outHead++
	}
	if c.outHead > 0 {
		c.pendingOut = c.pendingOut[:0]
		c.outHead = 0
	}

	var a workload.Access
	if c.hasPending {
		a = c.pending
		c.hasPending = false
	} else {
		if c.done {
			return
		}
		if c.issued >= r.cfg.AccessesPerCore {
			c.done = true
			return
		}
		if r.now < c.nextIssue {
			return
		}
		a = r.nextAccess(c)
		c.issued++
		c.nextIssue = r.now + int64(r.cfg.IssueInterval)
	}

	if !r.issueAccessRowBuf(pipe, i, a) {
		c.pending = a
		c.hasPending = true
		r.res.CoreStallCycles++
	}
}

// issueAccessRowBuf mirrors Runner.issueAccess.
func (r *Runner) issueAccessRowBuf(pipe *coalesce.RowBufferCoalescer, coreIdx int, a workload.Access) bool {
	c := &r.cores[coreIdx]

	if a.Op == mem.OpFence {
		return r.enqueueRowBuf(pipe, mem.Request{Op: mem.OpFence, Core: coreIdx, Issue: r.now}, false)
	}

	if c.outstanding.Len() >= r.cfg.MaxOutstandingLoads {
		return false
	}

	addr := a.Addr
	if r.spaces != nil {
		addr = r.spaces[c.proc].Translate(addr)
	}
	out := &r.outcome
	r.hier.AccessInto(out, coreIdx, addr, a.Op, c.proc, r.now, &r.m.nextID)

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
		if miss.Op != mem.OpAtomic {
			for _, blk := range r.pf.Observe(coreIdx, mem.BlockNumber(miss.Addr)) {
				group = r.appendPrefetch(group, coreIdx, c, blk)
			}
		}
	}
	r.routeRowBuf(pipe, c, group)
	r.groupBuf = group[:0]
	return true
}

// routeRowBuf mirrors Runner.route; the
// network-controller bypass is PAC-only and folds away here.
func (r *Runner) routeRowBuf(pipe *coalesce.RowBufferCoalescer, c *coreState, group []outReq) {
	for _, o := range group {
		r.observe(o.req)
		if o.req.Op == mem.OpAtomic {
			if r.directAdmitRowBuf(o.req, o.wb) {
				continue
			}
		}
		if !r.enqueueRowBuf(pipe, o.req, o.wb) {
			c.pendingOut = append(c.pendingOut, o)
		}
	}
}

// directAdmitRowBuf mirrors Runner.directAdmit.
func (r *Runner) directAdmitRowBuf(req mem.Request, wb bool) bool {
	r.m.nextID++
	pkt := mem.Coalesced{
		ID:        r.m.nextID,
		Addr:      mem.BlockAlign(req.Addr),
		Size:      mem.BlockSize,
		Op:        req.Op,
		Parents:   append(r.scratch.parents.Get(), req),
		Assembled: r.now,
		Bypassed:  true,
	}
	if !r.admitRowBuf(pkt) {
		r.scratch.parents.Put(pkt.Parents)
		return false
	}
	r.res.DirectDispatches++
	r.countRaw(req, wb)
	return true
}

// enqueueRowBuf mirrors Runner.enqueue.
func (r *Runner) enqueueRowBuf(pipe *coalesce.RowBufferCoalescer, req mem.Request, wb bool) bool {
	if !pipe.Enqueue(req, wb) {
		return false
	}
	r.countRaw(req, wb)
	return true
}
