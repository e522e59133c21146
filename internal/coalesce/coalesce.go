// Package coalesce defines the common interface between the simulation
// driver and the coalescing layer, and implements the paper's baselines:
// a passthrough "standard HMC controller" (no request aggregation), the
// conventional MSHR-based dynamic memory coalescer (DMC), whose merging
// happens in the MSHR file itself at fixed 64B granularity, and the
// sorting-network and row-buffer coalescers of prior work (sortpipe.go).
//
// The PAC from internal/core is adapted to the same interface
// (PACAdapter), so each Mode is one Pipeline value and both simulation
// drivers in internal/sim call every coalescer through the interface.
package coalesce

import (
	"strings"

	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/engine"
	"github.com/pacsim/pac/internal/mem"
)

// Pipeline is the coalescing layer as seen by the simulation driver: LLC
// traffic goes in via Enqueue, coalesced packets come out via Pop, and
// Tick advances one cycle.
//
// Every pipeline is also an engine.Clocked component: NextWake lets the
// event kernel skip the stretches where Tick would only advance the
// pipeline's internal clock, and SkipTo performs that advance in one
// step. The contract mirrors the engine's determinism rules — NextWake
// is a lower bound on the next productive Tick, and SkipTo must be
// byte-equivalent to that many inert Ticks.
type Pipeline interface {
	engine.Clocked
	// Enqueue offers one LLC request; wb marks write-back traffic.
	// A false return means the stage is full and the caller must stall.
	Enqueue(r mem.Request, wb bool) bool
	// Tick advances the pipeline one cycle.
	Tick()
	// Pop removes the next ready packet, if any.
	Pop() (mem.Coalesced, bool)
	// Front peeks at the next ready packet without removing it, so the
	// event kernel's wake probes need no Pop/PushFront round trip.
	Front() (mem.Coalesced, bool)
	// PushFront returns a popped packet to the head of the output queue.
	// The driver holds packets back this way when the MSHR file cannot
	// admit them, so order is preserved; every pipeline must support it.
	PushFront(pkt mem.Coalesced)
	// SkipTo fast-forwards the pipeline clock over ticks NextWake
	// reported as inert.
	SkipTo(now int64)
	// Drained reports whether no request remains inside the pipeline.
	Drained() bool
	// OutLen returns the number of packets currently waiting in the
	// output queue (the MAQ for PAC).
	OutLen() int
}

// Mode selects the coalescing configuration of a simulation run.
type Mode int

const (
	// ModeNone is the baseline standard HMC controller: every 64B LLC
	// request is dispatched as-is and MSHRs do not merge.
	ModeNone Mode = iota
	// ModeDMC is the conventional MSHR-based dynamic memory coalescer:
	// requests pass through unchanged but the (standard) MSHR file
	// merges requests hitting the same cache line.
	ModeDMC
	// ModePAC is the paper's paged adaptive coalescer with adaptive
	// MSHRs.
	ModePAC
	// ModeSortNet is the sorting-network DMC of Wang et al. (ICPP'18),
	// the prior 3D-stacked-memory coalescer of paper §2.2 / Fig. 11a.
	ModeSortNet
	// ModeRowBuf is the row-buffer-width coalescer of Wang et al.
	// (ICPP'19, "MAC"), the second prior design of paper §2.2.
	ModeRowBuf
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "baseline"
	case ModeDMC:
		return "MSHR-DMC"
	case ModePAC:
		return "PAC"
	case ModeSortNet:
		return "sortnet"
	case ModeRowBuf:
		return "rowbuf"
	default:
		return "unknown"
	}
}

// ParseMode resolves a mode name as accepted by the pacd API and the
// CLI: the String form of each mode plus lowercase aliases ("none",
// "baseline", "dmc", "pac", "sortnet", "rowbuf"). Matching is
// case-insensitive; ok is false for unknown names.
func ParseMode(s string) (Mode, bool) {
	switch strings.ToLower(s) {
	case "none", "baseline":
		return ModeNone, true
	case "dmc", "mshr-dmc":
		return ModeDMC, true
	case "pac":
		return ModePAC, true
	case "sortnet":
		return ModeSortNet, true
	case "rowbuf", "mac":
		return ModeRowBuf, true
	}
	return ModeNone, false
}

// MergesInMSHR reports whether this mode's MSHR file merges requests.
func (m Mode) MergesInMSHR() bool { return m != ModeNone }

// AdaptiveMSHR reports whether this mode needs the extended MSHRs that
// hold variable-size coalesced requests.
func (m Mode) AdaptiveMSHR() bool {
	return m == ModePAC || m == ModeSortNet || m == ModeRowBuf
}

// PACAdapter adapts *core.PAC to the Pipeline interface.
type PACAdapter struct{ *core.PAC }

// Pop drains the PAC's memory access queue.
func (a PACAdapter) Pop() (mem.Coalesced, bool) { return a.PopMAQ() }

// Front peeks at the MAQ head.
func (a PACAdapter) Front() (mem.Coalesced, bool) { return a.FrontMAQ() }

// PushFront returns a popped packet to the MAQ head.
func (a PACAdapter) PushFront(pkt mem.Coalesced) { a.PushFrontMAQ(pkt) }

// OutLen returns the MAQ depth.
func (a PACAdapter) OutLen() int { return a.MAQLen() }

// Passthrough is the non-aggregating pipeline used by both baselines: each
// LLC request becomes one 64B packet after a single-cycle latency, at one
// request per cycle (mirroring PAC's intake rate so timing comparisons are
// apples-to-apples).
type Passthrough struct {
	depth   int
	inQ     arena.Deque[mem.Request]
	outQ    arena.Deque[mem.Coalesced]
	parents *arena.SlicePool[mem.Request]
	nextID  func() uint64
	PassthroughState
}

// PassthroughState is the mutable state of a Passthrough. InQ and OutQ
// hold the queues' contents in a saved state only: a running pipeline
// keeps its queues in ring deques, whose layout is not state, and leaves
// both nil.
type PassthroughState struct {
	InQ  []mem.Request
	OutQ []mem.Coalesced
	Now  int64
	// RawIn and PacketsOut mirror the PAC counters.
	RawIn, PacketsOut int64
	// InputStalls counts rejected Enqueues.
	InputStalls int64
}

// NewPassthrough builds a passthrough pipeline with the given input queue
// depth. ids mints packet IDs.
func NewPassthrough(depth int, ids func() uint64) *Passthrough {
	if depth <= 0 {
		panic("coalesce: passthrough depth must be positive")
	}
	return &Passthrough{depth: depth, nextID: ids}
}

// UseParentPool installs the free-list backing emitted packets' Parents
// slices. The driver recycles a packet's Parents into the same pool once
// the packet is admitted to the MSHR file, closing the loop.
func (p *Passthrough) UseParentPool(pool *arena.SlicePool[mem.Request]) {
	p.parents = pool
}

// Enqueue implements Pipeline.
func (p *Passthrough) Enqueue(r mem.Request, wb bool) bool {
	if p.inQ.Len() >= p.depth {
		p.InputStalls++
		return false
	}
	p.inQ.PushBack(r)
	return true
}

// Tick implements Pipeline: move one request per cycle to the output.
func (p *Passthrough) Tick() {
	p.Now++
	r, ok := p.inQ.PopFront()
	if !ok {
		return
	}
	if r.Op == mem.OpFence {
		return // nothing buffered; fences are no-ops here
	}
	p.RawIn++
	p.PacketsOut++
	r.Issue = p.Now
	p.outQ.PushBack(mem.Coalesced{
		ID:        p.nextID(),
		Addr:      mem.BlockAlign(r.Addr),
		Size:      mem.BlockSize,
		Op:        r.Op,
		Parents:   append(p.parents.Get(), r),
		Assembled: p.Now,
	})
}

// Pop implements Pipeline.
func (p *Passthrough) Pop() (mem.Coalesced, bool) {
	return p.outQ.PopFront()
}

// Front implements Pipeline.
func (p *Passthrough) Front() (mem.Coalesced, bool) {
	return p.outQ.Front()
}

// PushFront returns a popped packet to the head of the output queue (used
// by the driver when the MSHR file is full).
func (p *Passthrough) PushFront(pkt mem.Coalesced) {
	p.outQ.PushFront(pkt)
}

// Drained implements Pipeline.
func (p *Passthrough) Drained() bool { return p.inQ.Len()+p.outQ.Len() == 0 }

// OutLen implements Pipeline.
func (p *Passthrough) OutLen() int { return p.outQ.Len() }

// NextWake implements Pipeline: Tick only ever moves input-queue entries,
// so an empty input queue means every tick is inert. Output packets wait
// for the driver's dispatcher and need no wake.
func (p *Passthrough) NextWake(now int64) int64 {
	if p.inQ.Len() > 0 {
		return now + 1
	}
	return engine.Never
}

// SkipTo implements Pipeline.
func (p *Passthrough) SkipTo(now int64) {
	if p.inQ.Len() > 0 {
		panic("coalesce: SkipTo over a backlogged passthrough")
	}
	if now > p.Now {
		p.Now = now
	}
}
