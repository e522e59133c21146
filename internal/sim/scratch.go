package sim

import (
	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/mem"
)

// Scratch is the reusable-buffer arena of one simulation run: the parent
// free-list shared by every pipeline stage and the driver, the recycled
// outstanding/pending-fill sets, and the cores' parked-output buffers.
// Passing the same Scratch to successive runs (Config.Scratch) lets a
// long-lived worker — an experiments.Session goroutine, a pacd job —
// build each run's machine from buffers the previous run returned, so
// the whole simulation loop allocates nothing in steady state.
//
// A Scratch is NOT safe for concurrent use: it must be owned by exactly
// one running simulation at a time. Hand-off between sequential runs is
// the caller's job.
type Scratch struct {
	parents  *arena.SlicePool[mem.Request]
	sets     []*arena.SmallSet
	fillSets []*arena.U64Set
	outBufs  [][]outReq

	// histHint is the high-water LoadLatencyHist capacity across runs on
	// this Scratch; pre-sizing the next run's histogram to it collapses
	// the append-driven growth reallocations into one.
	histHint int
}

// NewScratch returns an empty arena. The parent pool's poison value is an
// obviously-invalid request (out-of-range core, absurd ID), so a retained
// alias read after free either panics the run or corrupts a statistic the
// differential oracles check — never silently passes.
func NewScratch() *Scratch {
	return &Scratch{
		parents: arena.NewSlicePool[mem.Request](mem.Request{
			ID:   ^uint64(0),
			Addr: ^uint64(0),
			Core: 1 << 30,
			Proc: 1 << 30,
		}),
	}
}

// MachineCacheStats always reports zeros. Scratch no longer parks built
// machines between runs; the method stays only so existing callers that
// read the old hit/miss/eviction counters keep compiling.
func (s *Scratch) MachineCacheStats() (hits, misses, evictions uint64) {
	return 0, 0, 0
}

// getSet hands out a cleared uint64 set.
func (s *Scratch) getSet() *arena.SmallSet {
	if n := len(s.sets); n > 0 {
		set := s.sets[n-1]
		s.sets[n-1] = nil
		s.sets = s.sets[:n-1]
		return set
	}
	return &arena.SmallSet{}
}

// putSet takes a set back for the next run; nil is ignored.
func (s *Scratch) putSet(set *arena.SmallSet) {
	if set == nil {
		return
	}
	set.Clear()
	s.sets = append(s.sets, set)
}

// getFillSet hands out a cleared hashed set for the hierarchy's
// pending-fill table, which can hold hundreds of in-flight blocks.
func (s *Scratch) getFillSet() *arena.U64Set {
	if n := len(s.fillSets); n > 0 {
		set := s.fillSets[n-1]
		s.fillSets[n-1] = nil
		s.fillSets = s.fillSets[:n-1]
		return set
	}
	return arena.NewU64Set(0)
}

// putFillSet takes a hashed set back for the next run; nil is ignored.
func (s *Scratch) putFillSet(set *arena.U64Set) {
	if set == nil {
		return
	}
	set.Clear()
	s.fillSets = append(s.fillSets, set)
}

// getOutBuf hands out an empty parked-output buffer.
func (s *Scratch) getOutBuf() []outReq {
	if n := len(s.outBufs); n > 0 {
		b := s.outBufs[n-1]
		s.outBufs[n-1] = nil
		s.outBufs = s.outBufs[:n-1]
		return b
	}
	return nil
}

// putOutBuf takes a buffer back for the next run.
func (s *Scratch) putOutBuf(b []outReq) {
	if cap(b) == 0 {
		return
	}
	s.outBufs = append(s.outBufs, b[:0])
}
