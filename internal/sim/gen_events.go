//go:build ignore

// gen_events.go emits events_gen.go: one monomorphic copy of the
// event-kernel driver chain per coalesce.Mode, so the hot loop calls the
// concrete pipeline, device, MSHR file and fault injector directly with
// zero interface dispatch.
//
// Why text generation instead of type parameters: Go generics stencil by
// GC shape, and every pointer-shaped type argument shares one
// dictionary-dispatched instantiation — a Runner[P coalesce.ConcretePipeline]
// would pay the same indirect-call cost as the interface it replaced
// (measured in DESIGN.md §12). Separate concrete functions are the only
// way to get true monomorphization, so we generate them from one
// template and commit the output.
//
// Regenerate with: go generate ./internal/sim
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"text/template"
)

// mode describes one specialization of the driver chain.
type mode struct {
	// Suffix is appended to every generated identifier.
	Suffix string
	// PipeType is the concrete pipeline type the loop calls into.
	PipeType string
	// Pop, PushFront, Front and OutLen are the pipeline's output-queue
	// method names (the PAC exposes its MAQ under different names).
	Pop, PushFront, Front, OutLen string
	// Merges mirrors Mode.MergesInMSHR() as a compile-time constant.
	Merges bool
	// DMCProbe folds in the ModeDMC arrival-time MSHR probe.
	DMCProbe bool
	// IsPAC folds in the PAC-only network-controller bypass in route.
	IsPAC bool
}

var modes = []mode{
	{Suffix: "None", PipeType: "*coalesce.Passthrough",
		Pop: "Pop", PushFront: "PushFront", Front: "Front", OutLen: "OutLen"},
	{Suffix: "DMC", PipeType: "*coalesce.Passthrough",
		Pop: "Pop", PushFront: "PushFront", Front: "Front", OutLen: "OutLen",
		Merges: true, DMCProbe: true},
	{Suffix: "PAC", PipeType: "*core.PAC",
		Pop: "PopMAQ", PushFront: "PushFrontMAQ", Front: "FrontMAQ", OutLen: "MAQLen",
		Merges: true, IsPAC: true},
	{Suffix: "SortNet", PipeType: "*coalesce.SortingCoalescer",
		Pop: "Pop", PushFront: "PushFront", Front: "Front", OutLen: "OutLen",
		Merges: true},
	{Suffix: "RowBuf", PipeType: "*coalesce.RowBufferCoalescer",
		Pop: "Pop", PushFront: "PushFront", Front: "Front", OutLen: "OutLen",
		Merges: true},
}

const header = `// Code generated by gen_events.go; DO NOT EDIT.

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
`

const body = `
// runEvents{{.Suffix}} is the monomorphic event driver for {{.Suffix}}.
func (r *Runner) runEvents{{.Suffix}}(ctx context.Context, pipe {{.PipeType}}) error {
	done := ctx.Done()
	r.coreWake = r.coresWake(r.now)
	for iter := int64(0); !r.finished{{.Suffix}}(pipe); iter++ {
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
		next := r.nextEvent{{.Suffix}}(pipe)
		if next > r.cfg.MaxCycles {
			next = r.cfg.MaxCycles
		}
		if next > r.now+1 {
			r.skipTo{{.Suffix}}(pipe, next-1)
		}
		r.step{{.Suffix}}(pipe)
	}
	return nil
}

// finished{{.Suffix}} mirrors Runner.finished with direct calls, cheapest
// check first: the device is busy for almost the whole run.
func (r *Runner) finished{{.Suffix}}(pipe {{.PipeType}}) bool {
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

// nextEvent{{.Suffix}} is the engine.Scheduler min-wake loop specialized
// to this mode's component set. The prefetcher never self-schedules
// (NextWake ≡ Never), so it drops out; the per-core minimum was fused
// into step{{.Suffix}} and arrives precomputed in r.coreWake.
func (r *Runner) nextEvent{{.Suffix}}(pipe {{.PipeType}}) int64 {
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
	if w := r.dispatchWake{{.Suffix}}(pipe, now); w < next {
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

// dispatchWake{{.Suffix}} mirrors Runner.dispatchWake, peeking at the
// head packet instead of a Pop/PushFront round trip and memoizing the
// ProbeMerge verdict on (MSHR generation, packet ID).
func (r *Runner) dispatchWake{{.Suffix}}(pipe {{.PipeType}}, now int64) int64 {
	if pipe.{{.OutLen}}() == 0 {
		return engine.Never
	}
	if !r.file.Full() {
		return now + 1
	}
{{- if .Merges}}
	if pkt, ok := pipe.{{.Front}}(); ok {
		if mergeable, _, _ := r.headProbe(pkt); mergeable {
			return now + 1
		}
	}
{{- end}}
	return engine.Never
}

// skipTo{{.Suffix}} mirrors Runner.skipTo.
func (r *Runner) skipTo{{.Suffix}}(pipe {{.PipeType}}, t int64) {
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
{{- if .Merges}}
	if pkt, ok := pipe.{{.Front}}(); ok {
		_, cmp, fails := r.headProbe(pkt)
		r.file.Comparisons += k * cmp
		r.file.MergeFails += k * fails
	}
{{- end}}
	pipe.SkipTo(t)
	if r.faults != nil {
		r.faults.SkipTo(t)
	}
	r.res.SkippedCycles += k
	r.now = t
}

// step{{.Suffix}} mirrors Runner.step, fusing the next cycle's per-core
// wake into the issue loop: issueCore(i) is the last mutation of core i
// within a cycle (completions land in phase 1, the pipeline tick never
// touches cores), so the wake computed right after it equals coresWake
// evaluated at the top of the next iteration.
func (r *Runner) step{{.Suffix}}(pipe {{.PipeType}}) {
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

	if pipe.{{.OutLen}}() > 0 {
		pkt, _ := pipe.{{.Pop}}()
		if !r.admit{{.Suffix}}(pkt) {
			pipe.{{.PushFront}}(pkt)
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
			r.issueCore{{.Suffix}}(pipe, i)
			c.wake = r.coreWakeOf(c, now)
		}
		if c.wake < wake {
			wake = c.wake
		}
	}
	r.coreWake = wake

	pipe.Tick()
}

// admit{{.Suffix}} mirrors Runner.admit.
func (r *Runner) admit{{.Suffix}}(pkt mem.Coalesced) bool {
{{- if .Merges}}
	if _, ok := r.file.TryMerge(pkt); ok {
		r.res.MSHRMergedRaw += int64(len(pkt.Parents))
		r.scratch.parents.Put(pkt.Parents)
		return true
	}
{{- end}}
	if _, ok := r.file.Allocate(pkt); !ok {
		return false
	}
	r.res.MemPackets++
	r.dev.Submit(pkt, r.now)
	r.scratch.parents.Put(pkt.Parents)
	return true
}

// issueCore{{.Suffix}} mirrors Runner.issueCore.
func (r *Runner) issueCore{{.Suffix}}(pipe {{.PipeType}}, i int) {
	c := &r.cores[i]

	for c.outHead < len(c.pendingOut) {
		o := c.pendingOut[c.outHead]
		if !r.enqueue{{.Suffix}}(pipe, o.req, o.wb) {
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

	if !r.issueAccess{{.Suffix}}(pipe, i, a) {
		c.pending = a
		c.hasPending = true
		r.res.CoreStallCycles++
	}
}

// issueAccess{{.Suffix}} mirrors Runner.issueAccess.
func (r *Runner) issueAccess{{.Suffix}}(pipe {{.PipeType}}, coreIdx int, a workload.Access) bool {
	c := &r.cores[coreIdx]

	if a.Op == mem.OpFence {
		return r.enqueue{{.Suffix}}(pipe, mem.Request{Op: mem.OpFence, Core: coreIdx, Issue: r.now}, false)
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
	r.route{{.Suffix}}(pipe, c, group)
	r.groupBuf = group[:0]
	return true
}

// route{{.Suffix}} mirrors Runner.route{{if .IsPAC}} including the
// network-controller bypass, which only exists in PAC mode{{else}}; the
// network-controller bypass is PAC-only and folds away here{{end}}.
func (r *Runner) route{{.Suffix}}(pipe {{.PipeType}}, c *coreState, group []outReq) {
{{- if .IsPAC}}
	lone := len(group) == 1 && !r.cfg.DisableNetworkCtrl &&
		pipe.MAQEmpty() && pipe.InputBacklog() == 0 && !r.file.Full()
{{- end}}
	for _, o := range group {
		r.observe(o.req)
		if o.req.Op == mem.OpAtomic{{if .IsPAC}} || (lone && o.req.Op != mem.OpFence){{end}} {
			if r.directAdmit{{.Suffix}}(o.req, o.wb) {
				continue
			}
		}
		if !r.enqueue{{.Suffix}}(pipe, o.req, o.wb) {
			c.pendingOut = append(c.pendingOut, o)
		}
	}
}

// directAdmit{{.Suffix}} mirrors Runner.directAdmit.
func (r *Runner) directAdmit{{.Suffix}}(req mem.Request, wb bool) bool {
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
	if !r.admit{{.Suffix}}(pkt) {
		r.scratch.parents.Put(pkt.Parents)
		return false
	}
	r.res.DirectDispatches++
	r.countRaw(req, wb)
	return true
}

// enqueue{{.Suffix}} mirrors Runner.enqueue{{if .DMCProbe}} including the
// DMC arrival-time MSHR probe{{end}}.
func (r *Runner) enqueue{{.Suffix}}(pipe {{.PipeType}}, req mem.Request, wb bool) bool {
{{- if .DMCProbe}}
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
{{- end}}
	if !pipe.Enqueue(req, wb) {
		return false
	}
	r.countRaw(req, wb)
	return true
}
`

func main() {
	tmpl := template.Must(template.New("events").Parse(body))
	var buf bytes.Buffer
	buf.WriteString(header)
	for _, m := range modes {
		if err := tmpl.Execute(&buf, m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	src, err := format.Source(buf.Bytes())
	if err != nil {
		// Emit the unformatted source so the error is debuggable.
		os.WriteFile("events_gen.go", buf.Bytes(), 0o644)
		fmt.Fprintln(os.Stderr, "gofmt:", err)
		os.Exit(1)
	}
	if err := os.WriteFile("events_gen.go", src, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
