package coalesce

import (
	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/engine"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/sortnet"
)

// SortingCoalescer implements the sorting-network DMC of Wang et al.
// (ICPP'18), the design PAC is compared against in the paper's Figure 11a
// and §2.2.2: raw requests are collected into a fixed-width batch, run
// through a parallel sorting network keyed by (op, block address), and
// merged into adaptive-size packets by scanning the sorted order for
// contiguous blocks.
//
// Its §2.2.2 limitations are visible in the model: the comparator count
// scales as N·log²N (Figure 11a), and a batch must fill — or a timeout
// must expire — before anything is emitted, so sparse traffic pays the
// full batching latency without any coalescing payoff.
type SortingCoalescer struct {
	width     int
	timeout   int64
	maxBlocks int
	net       *sortnet.Network
	nextID    func() uint64
	outQ      arena.Deque[mem.Coalesced]
	parents   *arena.SlicePool[mem.Request]
	scratch   *sortnet.BatchScratch
	SortingState
}

// SortingState is the mutable state of a SortingCoalescer. OutQ holds the
// output queue's contents in a saved state only (see PassthroughState).
type SortingState struct {
	Now        int64
	Batch      []mem.Request
	BatchStart int64
	OutQ       []mem.Coalesced
	// NetComparisons counts compare-exchange activations in the sorting
	// network; flush copies it from the network, the one piece of
	// network state that outlives a flush.
	NetComparisons int64

	// RawIn, PacketsOut and InputStalls mirror the PAC counters.
	RawIn, PacketsOut, InputStalls int64
}

// NewSortingCoalescer builds a sorting-network coalescer with the given
// batch width (a power of two; the paper's Figure 11a sweeps 4..64),
// batching timeout in cycles, and device request limit in blocks.
func NewSortingCoalescer(width int, timeout int64, maxBlocks int, ids func() uint64) *SortingCoalescer {
	if width < 2 || width&(width-1) != 0 {
		panic("coalesce: sorting batch width must be a power of two >= 2")
	}
	if timeout <= 0 || maxBlocks < 1 {
		panic("coalesce: bad sorting coalescer parameters")
	}
	return &SortingCoalescer{
		width:     width,
		timeout:   timeout,
		maxBlocks: maxBlocks,
		net:       sortnet.NewBitonic(),
		nextID:    ids,
		scratch:   sortnet.NewBatchScratch(nil),
	}
}

// UseParentPool installs the free-list backing emitted packets' Parents
// slices; the driver recycles Parents there once packets are admitted.
func (s *SortingCoalescer) UseParentPool(pool *arena.SlicePool[mem.Request]) {
	s.parents = pool
	s.scratch = sortnet.NewBatchScratch(pool)
}

// Enqueue implements Pipeline.
func (s *SortingCoalescer) Enqueue(r mem.Request, wb bool) bool {
	if len(s.Batch) >= s.width {
		s.InputStalls++
		return false
	}
	if r.Op == mem.OpFence {
		s.flush() // a fence forces the partial batch out
		return true
	}
	if r.Op == mem.OpAtomic {
		// Atomics pass through unaggregated.
		s.RawIn++
		s.PacketsOut++
		s.outQ.PushBack(mem.Coalesced{
			ID:        s.nextID(),
			Addr:      mem.BlockAlign(r.Addr),
			Size:      mem.BlockSize,
			Op:        mem.OpAtomic,
			Parents:   append(s.parents.Get(), r),
			Assembled: s.Now,
			Bypassed:  true,
		})
		return true
	}
	if len(s.Batch) == 0 {
		s.BatchStart = s.Now
	}
	s.RawIn++
	r.Issue = s.Now
	s.Batch = append(s.Batch, r)
	return true
}

// Tick implements Pipeline: a full batch sorts and merges; a partial one
// flushes on timeout.
func (s *SortingCoalescer) Tick() {
	s.Now++
	if len(s.Batch) == 0 {
		return
	}
	if len(s.Batch) >= s.width || s.Now-s.BatchStart >= s.timeout {
		s.flush()
	}
}

// flush sorts and merges the current batch. The scratch-built packets
// are copied into the output deque before the next flush reuses the
// scratch, so the aliasing window stays inside this method.
func (s *SortingCoalescer) flush() {
	if len(s.Batch) == 0 {
		return
	}
	pkts := sortnet.CoalesceBatchInto(s.net, s.Batch, s.maxBlocks, s.nextID, s.scratch)
	for i := range pkts {
		pkts[i].Assembled = s.Now
		s.outQ.PushBack(pkts[i])
	}
	s.PacketsOut += int64(len(pkts))
	s.NetComparisons = s.net.Comparisons
	s.Batch = s.Batch[:0]
}

// Pop implements Pipeline.
func (s *SortingCoalescer) Pop() (mem.Coalesced, bool) {
	return s.outQ.PopFront()
}

// Front implements Pipeline.
func (s *SortingCoalescer) Front() (mem.Coalesced, bool) {
	return s.outQ.Front()
}

// PushFront returns a popped packet to the head of the output queue.
func (s *SortingCoalescer) PushFront(pkt mem.Coalesced) {
	s.outQ.PushFront(pkt)
}

// Drained implements Pipeline.
func (s *SortingCoalescer) Drained() bool { return len(s.Batch)+s.outQ.Len() == 0 }

// OutLen implements Pipeline.
func (s *SortingCoalescer) OutLen() int { return s.outQ.Len() }

// NextWake implements Pipeline: a full batch sorts on the next tick, a
// partial batch waits out its timeout, and an empty batch makes every
// tick inert.
func (s *SortingCoalescer) NextWake(now int64) int64 {
	switch {
	case len(s.Batch) == 0:
		return engine.Never
	case len(s.Batch) >= s.width:
		return now + 1
	default:
		return s.BatchStart + s.timeout
	}
}

// SkipTo implements Pipeline. A partial batch may legally sit across the
// skipped stretch — the per-cycle timeout check is pure until it fires —
// but skipping past the flush point would lose the flush.
func (s *SortingCoalescer) SkipTo(now int64) {
	if len(s.Batch) > 0 && now >= s.BatchStart+s.timeout {
		panic("coalesce: SkipTo past a sorting batch timeout")
	}
	if now > s.Now {
		s.Now = now
	}
}

// Comparisons returns the compare-exchange activations so far.
func (s *SortingCoalescer) Comparisons() int64 { return s.NetComparisons }

// RowBufferCoalescer implements the row-buffer-width coalescer of
// Wang et al. (ICPP'19, "MAC"), the second prior design of paper §2.2:
// raw requests aggregate into slots keyed by the device row (256B for
// HMC) rather than by physical page. §2.2.2 names its limitations — the
// fixed row width is not portable across device generations, and
// irregular footprints across many rows exhaust the aggregation queue —
// both of which fall out of the model (slots = rows; slot pressure
// flushes the oldest).
type RowBufferCoalescer struct {
	rowBytes int
	slots    int
	timeout  int64
	nextID   func() uint64
	outQ     arena.Deque[mem.Coalesced]
	parents  *arena.SlicePool[mem.Request]
	present  []bool // per-flush block bitmap, reused
	RowBufState
}

// RowBufState is the mutable state of a RowBufferCoalescer. OutQ holds the
// output queue's contents in a saved state only (see PassthroughState).
type RowBufState struct {
	Now   int64
	Rows  []RowSlot
	Live  int // count of valid slots; 0 means every tick is inert
	OutQ  []mem.Coalesced
	Order uint64

	// RawIn, PacketsOut and InputStalls mirror the PAC counters.
	RawIn, PacketsOut, InputStalls int64
}

// RowSlot is one aggregation slot. Slots are positional: Enqueue scans
// for the first free slot, so indexes are state.
type RowSlot struct {
	Valid bool
	Row   uint64
	Op    mem.Op
	Reqs  []mem.Request
	Start int64
	Birth uint64
}

// NewRowBufferCoalescer builds a row-granular coalescer with the given
// row width in bytes, slot count, and timeout.
func NewRowBufferCoalescer(rowBytes, slots int, timeout int64, ids func() uint64) *RowBufferCoalescer {
	if rowBytes < mem.BlockSize || slots < 1 || timeout <= 0 {
		panic("coalesce: bad row-buffer coalescer parameters")
	}
	return &RowBufferCoalescer{
		rowBytes:    rowBytes,
		slots:       slots,
		timeout:     timeout,
		nextID:      ids,
		present:     make([]bool, rowBytes/mem.BlockSize),
		RowBufState: RowBufState{Rows: make([]RowSlot, slots)},
	}
}

// UseParentPool installs the free-list backing emitted packets' Parents
// slices and the per-slot request buffers.
func (r *RowBufferCoalescer) UseParentPool(pool *arena.SlicePool[mem.Request]) {
	r.parents = pool
}

// Enqueue implements Pipeline.
func (r *RowBufferCoalescer) Enqueue(q mem.Request, wb bool) bool {
	if q.Op == mem.OpFence {
		for i := range r.Rows {
			r.flushSlot(i)
		}
		return true
	}
	if q.Op == mem.OpAtomic {
		// Atomics pass through unaggregated.
		r.RawIn++
		r.outQ.PushBack(r.single(q))
		r.PacketsOut++
		return true
	}
	row := q.Addr / uint64(r.rowBytes)
	free, oldest := -1, 0
	for i := range r.Rows {
		s := &r.Rows[i]
		if !s.Valid {
			if free < 0 {
				free = i
			}
			continue
		}
		if s.Row == row && s.Op == q.Op {
			r.RawIn++
			q.Issue = r.Now
			s.Reqs = append(s.Reqs, q)
			return true
		}
		if r.Rows[oldest].Valid && s.Birth < r.Rows[oldest].Birth {
			oldest = i
		}
	}
	if free < 0 {
		// Queue exhausted by requests across disparate rows — the
		// §2.2.2 pressure case. Evict the oldest slot.
		r.flushSlot(oldest)
		free = oldest
	}
	r.RawIn++
	q.Issue = r.Now
	r.Order++
	r.Live++
	r.Rows[free] = RowSlot{Valid: true, Row: row, Op: q.Op, Reqs: append(r.parents.Get(), q), Start: r.Now, Birth: r.Order}
	return true
}

// single wraps one request as a 64B packet.
func (r *RowBufferCoalescer) single(q mem.Request) mem.Coalesced {
	return mem.Coalesced{
		ID:        r.nextID(),
		Addr:      mem.BlockAlign(q.Addr),
		Size:      mem.BlockSize,
		Op:        q.Op,
		Parents:   append(r.parents.Get(), q),
		Assembled: r.Now,
		Bypassed:  true,
	}
}

// flushSlot merges one slot's requests into row-confined packets.
func (r *RowBufferCoalescer) flushSlot(i int) {
	s := &r.Rows[i]
	if !s.Valid {
		return
	}
	r.Live--
	// Build the block bitmap of the row and emit contiguous runs. The
	// bitmap is reused across flushes, so clear it first.
	blocksPerRow := r.rowBytes / mem.BlockSize
	present := r.present
	for b := range present {
		present[b] = false
	}
	rowBase := s.Row * uint64(r.rowBytes)
	for _, q := range s.Reqs {
		present[(q.Addr-rowBase)/mem.BlockSize] = true
	}
	for b := 0; b < blocksPerRow; {
		if !present[b] {
			b++
			continue
		}
		run := 0
		for b+run < blocksPerRow && present[b+run] {
			run++
		}
		pkt := mem.Coalesced{
			ID:        r.nextID(),
			Addr:      rowBase + uint64(b*mem.BlockSize),
			Size:      uint32(run * mem.BlockSize),
			Op:        s.Op,
			Parents:   r.parents.Get(),
			Assembled: r.Now,
		}
		for _, q := range s.Reqs {
			blk := int((q.Addr - rowBase) / mem.BlockSize)
			if blk >= b && blk < b+run {
				pkt.Parents = append(pkt.Parents, q)
			}
		}
		pkt.Bypassed = len(pkt.Parents) == 1 && run == 1
		r.outQ.PushBack(pkt)
		r.PacketsOut++
		b += run
	}
	r.parents.Put(s.Reqs)
	*s = RowSlot{}
}

// Tick implements Pipeline: timed-out slots flush.
func (r *RowBufferCoalescer) Tick() {
	r.Now++
	if r.Live == 0 {
		return
	}
	for i := range r.Rows {
		if r.Rows[i].Valid && r.Now-r.Rows[i].Start >= r.timeout {
			r.flushSlot(i)
		}
	}
}

// Pop implements Pipeline.
func (r *RowBufferCoalescer) Pop() (mem.Coalesced, bool) {
	return r.outQ.PopFront()
}

// Front implements Pipeline.
func (r *RowBufferCoalescer) Front() (mem.Coalesced, bool) {
	return r.outQ.Front()
}

// PushFront returns a popped packet to the head of the output queue.
func (r *RowBufferCoalescer) PushFront(pkt mem.Coalesced) {
	r.outQ.PushFront(pkt)
}

// Drained implements Pipeline.
func (r *RowBufferCoalescer) Drained() bool {
	return r.outQ.Len() == 0 && r.Live == 0
}

// OutLen implements Pipeline.
func (r *RowBufferCoalescer) OutLen() int { return r.outQ.Len() }

// NextWake implements Pipeline: the only self-scheduled work is flushing
// aggregation slots whose timeout expires.
func (r *RowBufferCoalescer) NextWake(now int64) int64 {
	if r.Live == 0 {
		return engine.Never
	}
	wake := engine.Never
	for i := range r.Rows {
		if !r.Rows[i].Valid {
			continue
		}
		if t := r.Rows[i].Start + r.timeout; t < wake {
			wake = t
		}
	}
	return wake
}

// SkipTo implements Pipeline.
func (r *RowBufferCoalescer) SkipTo(now int64) {
	if w := r.NextWake(r.Now); now >= w {
		panic("coalesce: SkipTo past a row-slot timeout")
	}
	if now > r.Now {
		r.Now = now
	}
}
