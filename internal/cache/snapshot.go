package cache

import (
	"fmt"
	"slices"
)

// SaveState copies the cache's state. The returned state shares nothing
// with the cache, so it stays valid while the run continues.
func (c *Cache) SaveState() CacheState {
	st := c.CacheState
	st.Tags = slices.Clone(c.Tags)
	return st
}

// RestoreState overwrites the cache's state from a snapshot taken on an
// identically configured cache.
func (c *Cache) RestoreState(st CacheState) error {
	if len(st.Tags) != len(c.Tags) {
		return fmt.Errorf("cache: restoring %d tag words into a %d-line cache", len(st.Tags), len(c.Tags))
	}
	copy(c.Tags, st.Tags)
	st.Tags = c.Tags
	c.CacheState = st
	return nil
}

// HierarchyState is the mutable state of the whole L1+LLC stack: the
// state of each cache, the in-flight fills and the counters. Pending
// holds the contents of the hierarchy's pending-fill set only: the set's
// probe-table layout depends on its insertion history, not on the
// simulated state, so SaveState sorts the block numbers to keep the
// encoding canonical.
type HierarchyState struct {
	L1      []CacheState
	LLC     CacheState
	Pending []uint64
	Stats
}

// SaveState copies the hierarchy's state. The write-back buffer is
// transient (consumed before the next access) and is not part of it.
func (h *Hierarchy) SaveState() HierarchyState {
	st := HierarchyState{
		L1:      make([]CacheState, len(h.l1)),
		LLC:     h.llc.SaveState(),
		Pending: h.pending.AppendKeys(nil),
		Stats:   h.Stats,
	}
	slices.Sort(st.Pending)
	for i, c := range h.l1 {
		st.L1[i] = c.SaveState()
	}
	return st
}

// RestoreState overwrites the hierarchy's state from a snapshot taken on
// an identically configured hierarchy.
func (h *Hierarchy) RestoreState(st HierarchyState) error {
	if len(st.L1) != len(h.l1) {
		return fmt.Errorf("cache: restoring %d L1 states into %d-core hierarchy", len(st.L1), len(h.l1))
	}
	for i, c := range h.l1 {
		if err := c.RestoreState(st.L1[i]); err != nil {
			return err
		}
	}
	if err := h.llc.RestoreState(st.LLC); err != nil {
		return err
	}
	h.pending.Clear()
	for _, blk := range st.Pending {
		h.pending.Add(blk)
	}
	h.wbBuf = h.wbBuf[:0]
	h.Stats = st.Stats
	return nil
}
