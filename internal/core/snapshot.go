package core

import (
	"fmt"
	"slices"

	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/mem"
)

// SavePackets copies a packet queue's contents front to back, Parents
// included, so the copy shares no pooled buffer with the live queue.
func SavePackets(q *arena.Deque[mem.Coalesced]) []mem.Coalesced {
	out := arena.SaveDeque(q)
	for i := range out {
		out[i].Parents = slices.Clone(out[i].Parents)
	}
	return out
}

// RestorePackets refills a packet queue from saved contents, drawing each
// packet's Parents from the pool so the pipeline's recycling Puts stay
// balanced.
func RestorePackets(q *arena.Deque[mem.Coalesced], pkts []mem.Coalesced, pool *arena.SlicePool[mem.Request]) {
	q.Clear()
	for _, p := range pkts {
		p.Parents = append(pool.Get(), p.Parents...)
		q.PushBack(p)
	}
}

// saveChunks copies a chunk queue's contents, request buffers included.
func saveChunks(q *arena.Deque[Chunk]) []Chunk {
	out := arena.SaveDeque(q)
	for i := range out {
		out[i].Reqs = slices.Clone(out[i].Reqs)
	}
	return out
}

// SaveState copies the coalescer's state. Every request slice is
// deep-copied, so the snapshot stays valid while the run continues (the
// live pipeline recycles those buffers through its parent pool).
func (c *PAC) SaveState() PACState {
	st := c.PACState
	st.MissQ = arena.SaveDeque(&c.missQ)
	st.WbQ = arena.SaveDeque(&c.wbQ)
	st.Streams = slices.Clone(c.Streams)
	for i := range st.Streams {
		st.Streams[i].Reqs = slices.Clone(st.Streams[i].Reqs)
	}
	st.Stage2 = slices.Clone(c.Stage2)
	for i := range st.Stage2 {
		st.Stage2[i].Reqs = slices.Clone(st.Stage2[i].Reqs)
	}
	st.StoreQ = saveChunks(&c.storeQ)
	st.SeqBuf = saveChunks(&c.seqBuf)
	st.Asm.Item.Reqs = slices.Clone(c.Asm.Item.Reqs)
	st.Asm.runs = nil
	st.BypassQ = SavePackets(&c.bypassQ)
	st.MAQ = SavePackets(&c.maq)
	st.Stats = c.Stats.Clone()
	return st
}

// RestoreState overwrites the coalescer's state from a snapshot taken on
// a PAC built with the same Params. Request buffers are drawn from the
// parent pool so the pipeline's recycling Puts stay balanced, and the
// assembler's run list is rebuilt with a fresh table lookup.
func (c *PAC) RestoreState(st PACState) error {
	if len(st.Streams) != len(c.Streams) {
		return fmt.Errorf("core: restoring %d streams into a %d-stream PAC", len(st.Streams), len(c.Streams))
	}
	arena.RestoreDeque(&c.missQ, st.MissQ)
	arena.RestoreDeque(&c.wbQ, st.WbQ)
	streams := c.Streams
	for i, s := range st.Streams {
		if s.Valid {
			s.Reqs = c.pooled(s.Reqs)
		}
		streams[i] = s
	}
	stage2 := c.Stage2[:0]
	for _, f := range st.Stage2 {
		f.Reqs = c.pooled(f.Reqs)
		stage2 = append(stage2, f)
	}
	c.restoreChunks(&c.storeQ, st.StoreQ)
	c.restoreChunks(&c.seqBuf, st.SeqBuf)
	if st.AsmActive {
		st.Asm.Item.Reqs = c.pooled(st.Asm.Item.Reqs)
		st.Asm.runs = c.table.Lookup(st.Asm.Item.Bits)
	}
	RestorePackets(&c.bypassQ, st.BypassQ, c.parents)
	RestorePackets(&c.maq, st.MAQ, c.parents)
	st.Streams, st.Stage2 = streams, stage2
	st.MissQ, st.WbQ, st.StoreQ, st.SeqBuf, st.BypassQ, st.MAQ = nil, nil, nil, nil, nil, nil
	st.Stats = st.Stats.Clone()
	c.PACState = st
	return nil
}

// pooled copies reqs into a buffer from the parent pool.
func (c *PAC) pooled(reqs []mem.Request) []mem.Request {
	return append(c.parents.Get(), reqs...)
}

// restoreChunks refills a chunk queue, drawing request buffers from the
// parent pool.
func (c *PAC) restoreChunks(q *arena.Deque[Chunk], items []Chunk) {
	q.Clear()
	for _, it := range items {
		it.Reqs = c.pooled(it.Reqs)
		q.PushBack(it)
	}
}
