package experiments

import (
	"runtime"
	"sync"

	"github.com/pacsim/pac/internal/sim"
)

// scratches is the process-wide free list of idle sim.Scratch arenas,
// shared by every session so a long-lived process (the pacd worker
// pool) reaches a steady state where simulations reuse buffers instead
// of allocating, even across session eviction. It is a bounded LIFO:
// the most recently returned arena has the warmest buffers. Each arena
// is owned by exactly one run at a time; arenas never affect results.
//
// It is deliberately not a sync.Pool: that drops its contents at every
// GC, and the rebuilt arenas would show up as allocations.
var scratches struct {
	mu   sync.Mutex
	free []*sim.Scratch
}

// scratchRetention bounds the idle arenas kept: twice GOMAXPROCS is
// enough for every concurrent run plus hand-off slack. Returns beyond it
// are dropped to the GC.
func scratchRetention() int { return 2 * runtime.GOMAXPROCS(0) }

// getScratch hands out the most recently returned idle arena, or a
// fresh one when none is idle. The caller owns it until putScratch.
func getScratch() *sim.Scratch {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	if n := len(scratches.free); n > 0 {
		sc := scratches.free[n-1]
		scratches.free[n-1] = nil
		scratches.free = scratches.free[:n-1]
		return sc
	}
	return sim.NewScratch()
}

// putScratch returns an idle arena to the free list; arenas beyond the
// retention bound are dropped.
func putScratch(sc *sim.Scratch) {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	if len(scratches.free) < scratchRetention() {
		scratches.free = append(scratches.free, sc)
	}
}
