package experiments

import (
	"testing"

	"github.com/pacsim/pac/internal/sim"
)

// TestScratchFreeListBound proves putScratch drops arenas beyond the
// retention bound instead of growing without bound, and that getScratch
// hands back the most recently returned arena first.
func TestScratchFreeListBound(t *testing.T) {
	// Drain whatever earlier tests left idle.
	for {
		scratches.mu.Lock()
		n := len(scratches.free)
		scratches.mu.Unlock()
		if n == 0 {
			break
		}
		getScratch()
	}
	limit := scratchRetention()
	var last *sim.Scratch
	for i := 0; i < limit+3; i++ {
		last = sim.NewScratch()
		putScratch(last)
	}
	scratches.mu.Lock()
	n := len(scratches.free)
	scratches.mu.Unlock()
	if n != limit {
		t.Fatalf("idle arenas = %d, want %d (retention bound)", n, limit)
	}
	if got := getScratch(); got == last {
		t.Fatal("an arena returned beyond the bound was retained")
	}
	sc := sim.NewScratch()
	putScratch(sc)
	if got := getScratch(); got != sc {
		t.Fatal("getScratch did not hand back the most recently returned arena")
	}
}
