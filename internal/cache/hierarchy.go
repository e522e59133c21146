package cache

import (
	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/telemetry"
)

// HierarchyConfig describes the two-level hierarchy of the simulated
// machine (paper Table 1: 8-way, 16K L1 per core, 8MB shared L2/LLC).
type HierarchyConfig struct {
	// Cores is the number of private L1 caches.
	Cores int
	// L1 and LLC describe the two levels.
	L1, LLC Config
}

// DefaultHierarchyConfig returns the paper's Table 1 cache configuration
// for the given core count.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1:    Config{Size: 16 << 10, Ways: 8},
		LLC:   Config{Size: 8 << 20, Ways: 8},
	}
}

// Hierarchy is the simulated L1+LLC stack shared by all cores. It converts
// raw CPU accesses into the LLC miss stream and write-back stream consumed
// by the coalescing layer.
type Hierarchy struct {
	l1  []*Cache
	llc *Cache
	// pending tracks LLC blocks whose memory fill is still in flight.
	// An access from another core that reaches the LLC while its block
	// is pending must still emit a memory request — downstream MSHR
	// merging (or PAC coalescing) is what absorbs it, exactly the
	// behaviour the paper's MSHR-based DMC baseline relies on.
	pending *arena.U64Set
	// wbBuf backs Outcome.WriteBacks; it is reused by the next Access or
	// Prefetch call, so callers must consume (or copy) the slice before
	// driving the hierarchy again.
	wbBuf []mem.Request
	Stats
}

// Stats are the hierarchy's counters.
type Stats struct {
	// Accesses counts CPU data accesses (fences excluded).
	Accesses int64
	// L1Hits, LLCHits and LLCMisses partition cacheable accesses;
	// PendingHits are LLC hits on blocks whose fill was in flight
	// (they emit mergeable requests).
	L1Hits, LLCHits, LLCMisses, PendingHits int64
	// Uncached counts atomics routed around the hierarchy.
	Uncached int64
	// WriteBacks counts dirty LLC evictions sent to memory.
	WriteBacks int64
}

// Record emits the hierarchy's aggregate counters into the telemetry
// hooks as one KindCacheStats event labelled with the workload name. The
// simulation driver calls it once per finished run; a nil hooks drops
// the event.
func (h *Hierarchy) Record(hooks *telemetry.Hooks, bench string) {
	hooks.Emit(telemetry.Event{
		Kind:      telemetry.KindCacheStats,
		Bench:     bench,
		Accesses:  h.Accesses,
		LLCMisses: h.LLCMisses,
	})
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores <= 0 {
		panic("cache: hierarchy needs at least one core")
	}
	h := &Hierarchy{llc: New(cfg.LLC), pending: arena.NewU64Set(0)}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, New(cfg.L1))
	}
	return h
}

// UseScratch installs a recycled pending-fill set (cleared for use), so a
// fresh hierarchy can reuse a previous run's table instead of growing its
// own. Must be called before the first access.
func (h *Hierarchy) UseScratch(pending *arena.U64Set) {
	if pending != nil {
		pending.Clear()
		h.pending = pending
	}
}

// TakeScratch surrenders the pending set for recycling; the hierarchy
// must not be used afterwards.
func (h *Hierarchy) TakeScratch() *arena.U64Set {
	s := h.pending
	h.pending = nil
	return s
}

// Prefetch installs the block containing addr in the LLC as an in-flight
// fill, unless it is already resident or pending. It returns the memory
// request to dispatch (marked Prefetch) and any dirty eviction it caused;
// the wbs slice is reused by the next Access or Prefetch call.
func (h *Hierarchy) Prefetch(addr uint64, core, proc int, cycle int64, ids *uint64) (miss mem.Request, wbs []mem.Request, ok bool) {
	blk := mem.BlockNumber(addr)
	if h.pending.Contains(blk) || h.llc.Contains(addr) {
		return mem.Request{}, nil, false
	}
	h.wbBuf = h.wbBuf[:0]
	if _, ev := h.llc.Access(addr, false); ev.Valid && ev.Dirty {
		h.WriteBacks++
		h.wbBuf = append(h.wbBuf, mem.Request{
			ID: mint(ids), Addr: ev.Addr, Size: mem.BlockSize,
			Op: mem.OpStore, Core: core, Proc: proc, Issue: cycle,
		})
	}
	wbs = h.wbBuf
	if len(wbs) == 0 {
		wbs = nil
	}
	h.pending.Add(blk)
	return mem.Request{
		ID: mint(ids), Addr: mem.BlockAlign(addr), Size: mem.BlockSize,
		Op: mem.OpLoad, Core: core, Proc: proc, Issue: cycle, Prefetch: true,
	}, wbs, true
}

// FillDone signals that the memory fill for the block with the given
// block number completed; subsequent LLC hits on it are plain hits. It is
// idempotent.
func (h *Hierarchy) FillDone(blockNumber uint64) {
	h.pending.Remove(blockNumber)
}

// PendingFills returns the number of blocks with in-flight fills.
func (h *Hierarchy) PendingFills() int { return h.pending.Len() }

// mint increments the shared ID counter and returns the fresh ID.
func mint(ids *uint64) uint64 { *ids++; return *ids }

// L1 returns core i's private cache (for tests and stats).
func (h *Hierarchy) L1(i int) *Cache { return h.l1[i] }

// LLC returns the shared last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// Outcome reports what one CPU access did to the hierarchy.
type Outcome struct {
	// Level is 1 for an L1 hit, 2 for an LLC hit, 0 for an LLC miss
	// or uncached access.
	Level int
	// Miss, when Valid, is the block-granular request that must go to
	// memory: an LLC load/store miss, or the access itself for
	// atomics (uncached).
	Miss mem.Request
	// MissValid reports whether Miss is populated.
	MissValid bool
	// WriteBacks are dirty LLC evictions (block-granular stores) that
	// must also go to memory. The slice is reused by the hierarchy's
	// next Access or Prefetch call; consume it before driving it again.
	WriteBacks []mem.Request
}

// Access runs one CPU data access (1..64B, load/store/atomic) through the
// hierarchy. Fences must be handled by the caller; passing one panics.
// The ids counter mints unique request IDs for generated memory traffic
// (incremented in place: passing a pointer instead of a closure keeps the
// hot path free of per-call closure allocations).
func (h *Hierarchy) Access(core int, addr uint64, size uint32, op mem.Op, proc int, cycle int64, ids *uint64) Outcome {
	var out Outcome
	h.AccessInto(&out, core, addr, op, proc, cycle, ids)
	return out
}

// AccessInto is Access writing its result into out, so the per-access
// driver loop reuses one Outcome instead of copying the ~100-byte struct
// through every return. out is fully overwritten.
func (h *Hierarchy) AccessInto(out *Outcome, core int, addr uint64, op mem.Op, proc int, cycle int64, ids *uint64) {
	if op == mem.OpFence {
		panic("cache: fence passed to Hierarchy.Access")
	}
	h.Accesses++
	*out = Outcome{}

	// Atomics bypass the hierarchy entirely: the paper routes them
	// directly to the memory controller to preserve atomicity.
	if op == mem.OpAtomic {
		h.Uncached++
		out.MissValid = true
		out.Miss = mem.Request{
			ID: mint(ids), Addr: mem.BlockAlign(addr), Size: mem.BlockSize,
			Op: mem.OpAtomic, Core: core, Proc: proc, Issue: cycle,
		}
		return
	}

	write := op == mem.OpStore
	l1 := h.l1[core]
	if hit, ev := l1.Access(addr, write); hit {
		h.L1Hits++
		out.Level = 1
		return
	} else if ev.Valid && ev.Dirty {
		// Dirty L1 victim is installed in the LLC. A full-line
		// write needs no memory fetch; but if the LLC displaces a
		// dirty line of its own, that one goes to memory.
		if _, llcEv := h.llc.Access(ev.Addr, true); llcEv.Valid && llcEv.Dirty {
			h.WriteBacks++
			h.wbBuf = append(h.wbBuf[:0], mem.Request{
				ID: mint(ids), Addr: llcEv.Addr, Size: mem.BlockSize,
				Op: mem.OpStore, Core: core, Proc: proc, Issue: cycle,
			})
			h.fill(out, core, addr, proc, cycle, ids, h.wbBuf)
			return
		}
	}
	h.fill(out, core, addr, proc, cycle, ids, h.wbBuf[:0])
}

// L1Hit applies a load (write=false) or store (write=true) by core to
// addr when it hits that core's private L1, with exactly the effects
// AccessInto would have for it, and reports true. On an L1 miss it
// changes nothing and reports false; the caller then runs the access
// through AccessInto.
func (h *Hierarchy) L1Hit(core int, addr uint64, write bool) bool {
	if !h.l1[core].AccessIfHit(addr, write) {
		return false
	}
	h.Accesses++
	h.L1Hits++
	return true
}

// fill services an L1 miss from the LLC, recording an LLC miss request
// when the block is absent there too.
func (h *Hierarchy) fill(out *Outcome, core int, addr uint64, proc int, cycle int64, ids *uint64, wbs []mem.Request) {
	hit, ev := h.llc.Access(addr, false) // L1 owns the dirty bit until eviction
	if ev.Valid && ev.Dirty {
		h.WriteBacks++
		wbs = append(wbs, mem.Request{
			ID: mint(ids), Addr: ev.Addr, Size: mem.BlockSize,
			Op: mem.OpStore, Core: core, Proc: proc, Issue: cycle,
		})
	}
	h.wbBuf = wbs[:0] // retain any growth for the next access
	if len(wbs) == 0 {
		wbs = nil
	}
	out.WriteBacks = wbs
	blk := mem.BlockNumber(addr)
	// Write-allocate: a store miss fetches its line with a READ; the
	// store itself reaches memory later as a write-back when the dirty
	// line is evicted. The ST requests of the paper's Figure 5 example
	// correspond to the write-back stream here. Fills therefore always
	// carry OpLoad, which also lets them coalesce with prefetches.
	op := mem.OpLoad
	if hit {
		if !h.pending.Contains(blk) {
			h.LLCHits++
			out.Level = 2
			return
		}
		// The block's fill is still in flight: this access must emit
		// its own request, to be merged downstream.
		h.PendingHits++
	} else {
		h.LLCMisses++
		h.pending.Add(blk)
	}
	out.MissValid = true
	out.Miss = mem.Request{
		ID: mint(ids), Addr: mem.BlockAlign(addr), Size: mem.BlockSize,
		Op: op, Core: core, Proc: proc, Issue: cycle,
	}
}
