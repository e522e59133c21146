package coalesce

import (
	"fmt"
	"slices"

	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/core"
)

// Each pipeline's state type holds every field that influences future
// behaviour: internal clocks, buffered requests, queued packets, batching
// state, and the public counters. Construction parameters (depths,
// widths, timeouts) are not part of it; RestoreState targets must
// already be built with the same parameters. Per-flush scratch buffers
// (sortnet BatchScratch, the row bitmap) are consumed within a single
// call and are never live at a step boundary, so they are excluded.

// SaveState copies the pipeline's state.
func (p *Passthrough) SaveState() PassthroughState {
	st := p.PassthroughState
	st.InQ = arena.SaveDeque(&p.inQ)
	st.OutQ = core.SavePackets(&p.outQ)
	return st
}

// RestoreState overwrites the pipeline's state from a snapshot taken on
// an identically configured pipeline.
func (p *Passthrough) RestoreState(st PassthroughState) error {
	arena.RestoreDeque(&p.inQ, st.InQ)
	core.RestorePackets(&p.outQ, st.OutQ, p.parents)
	st.InQ, st.OutQ = nil, nil
	p.PassthroughState = st
	return nil
}

// SaveState copies the coalescer's state.
func (s *SortingCoalescer) SaveState() SortingState {
	st := s.SortingState
	st.Batch = slices.Clone(s.Batch)
	st.OutQ = core.SavePackets(&s.outQ)
	return st
}

// RestoreState overwrites the coalescer's state from a snapshot taken on
// an identically configured coalescer.
func (s *SortingCoalescer) RestoreState(st SortingState) error {
	if len(st.Batch) > s.width {
		return fmt.Errorf("coalesce: restoring %d-request batch into width-%d sorter", len(st.Batch), s.width)
	}
	st.Batch = append(s.Batch[:0], st.Batch...)
	core.RestorePackets(&s.outQ, st.OutQ, s.parents)
	st.OutQ = nil
	s.net.Comparisons = st.NetComparisons
	s.SortingState = st
	return nil
}

// SaveState copies the coalescer's state.
func (r *RowBufferCoalescer) SaveState() RowBufState {
	st := r.RowBufState
	st.Rows = slices.Clone(r.Rows)
	for i := range st.Rows {
		st.Rows[i].Reqs = slices.Clone(st.Rows[i].Reqs)
	}
	st.OutQ = core.SavePackets(&r.outQ)
	return st
}

// RestoreState overwrites the coalescer's state from a snapshot taken on
// an identically configured coalescer. Slot request buffers are drawn
// from the parent pool so flushSlot's Put stays balanced.
func (r *RowBufferCoalescer) RestoreState(st RowBufState) error {
	if len(st.Rows) != len(r.Rows) {
		return fmt.Errorf("coalesce: restoring %d row slots into a %d-slot coalescer", len(st.Rows), len(r.Rows))
	}
	rows := r.Rows
	for i, slot := range st.Rows {
		if slot.Valid {
			slot.Reqs = append(r.parents.Get(), slot.Reqs...)
		}
		rows[i] = slot
	}
	core.RestorePackets(&r.outQ, st.OutQ, r.parents)
	st.Rows, st.OutQ = rows, nil
	r.RowBufState = st
	return nil
}
