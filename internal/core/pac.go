package core

import (
	"math/bits"

	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/engine"
	"github.com/pacsim/pac/internal/mem"
)

// Stream is one stage-1 aggregation slot (paper Figure 4): a tagged
// physical page, a 64-bit block-map, the C bit, and the buffered raw
// requests. Slots are positional: the aggregator's free/oldest scans are
// index-ordered, so slot indexes are state.
type Stream struct {
	Valid bool
	// Tag is mem.TaggedPPN(addr, op): the PPN with the T (type) bit
	// packed above it so one comparison covers page and operation.
	Tag   uint64
	Op    mem.Op
	Bmap  uint64
	First int64 // cycle the stream was allocated (timeout base)
	Reqs  []mem.Request
}

// cBit reports whether the stream holds more than one request and should
// therefore traverse stages 2-3 (paper §3.3.1).
func (s *Stream) cBit() bool { return len(s.Reqs) > 1 }

// FlushedStream is a stage-2 work item: a block-map waiting to be decoded.
type FlushedStream struct {
	Op    mem.Op
	PPN   uint64
	Bmap  uint64
	Reqs  []mem.Request
	Enter int64 // cycle the stream entered stage 2
}

// Chunk is one non-zero partitioned chunk of a block-map, queued for the
// shared-bus write into the block sequence buffer and then for the
// request assembler.
type Chunk struct {
	Op         mem.Op
	PPN        uint64
	Chunk      int  // chunk index within the page
	Bits       uint // the partitioned block sequence (width = MaxReqBlocks)
	Reqs       []mem.Request
	FlushEnter int64 // when the parent stream entered stage 2
	SeqEnter   int64 // when the chunk was stored into the sequence buffer
}

// AsmJob is the request assembler's in-flight state: one popped sequence
// being turned into coalesced packets, one table lookup cycle plus one
// cycle per emitted packet (paper §3.3.3). The run list is not state:
// Lookup(Bits) is deterministic for a table built from the same Params,
// so RestoreState repeats the lookup.
type AsmJob struct {
	Item     Chunk
	runs     []Run
	Next     int  // next run to emit
	LookedUp bool // table lookup cycle consumed
}

// PACState is the mutable state of the paged adaptive coalescer.
// Construction parameters (Params, the coalescing table) are not part of
// it; a restore target must be built with the same Params. The queue
// fields (MissQ, WbQ, StoreQ, SeqBuf, BypassQ, MAQ) hold the queues'
// contents in a saved state only: a running PAC keeps its queues in ring
// deques, whose layout is not state, and leaves them nil.
type PACState struct {
	Now int64

	MissQ  []mem.Request
	WbQ    []mem.Request
	TakeWB bool // round-robin pointer between the input queues

	Streams []Stream
	// Live counts valid streams, letting the per-tick scans (timeout
	// flush, wake computation, the idle fast path) skip an empty stage 1
	// without walking all slots.
	Live int
	// TmoAt is the earliest cycle any live stream's timeout can fire —
	// min over valid streams of First+Timeout, engine.Never when none.
	// Maintained exactly: creation can only lower it (min update) and
	// flushing the minimum holder triggers a recompute, so the per-tick
	// timeout scan and NextWake read it instead of walking the slots.
	TmoAt int64

	Stage2 []FlushedStream // decoding (1 cycle, parallel across streams)
	StoreQ []Chunk
	SeqBuf []Chunk

	Asm       AsmJob
	AsmActive bool

	BypassQ []mem.Coalesced
	MAQ     []mem.Coalesced

	// MAQ fill-latency measurement state: a window opens when a packet
	// enters an empty production window and closes after MAQDepth
	// packets have been produced.
	FillStart  int64
	FillPushes int
	FillActive bool

	LastSample int64

	// Stats holds the accumulated counters; read it after (or during)
	// a run.
	Stats Stats
}

// PAC is the paged adaptive coalescer: input queues, the three-stage
// pipelined coalescing network, and the memory access queue.
//
// Usage per simulated cycle: push LLC traffic with Enqueue, advance the
// pipeline with Tick, and drain packets with PopMAQ. PAC never drops a
// request; backpressure propagates through Enqueue returning false.
type PAC struct {
	p         Params
	table     *Table
	chunkBits int
	nextID    func() uint64

	missQ, wbQ arena.Deque[mem.Request]
	storeQ     arena.Deque[Chunk]         // chunks awaiting the shared-bus buffer write
	seqBuf     arena.Deque[Chunk]         // the block sequence buffer (FIFO)
	bypassQ    arena.Deque[mem.Coalesced] // C=0 singles and atomics heading to the MAQ
	maq        arena.Deque[mem.Coalesced]

	// parents backs every request-holding slice in the pipeline (stream
	// buffers, chunk items, packet Parents); the driver recycles admitted
	// packets' Parents into the same pool.
	parents *arena.SlicePool[mem.Request]

	PACState
}

// New constructs a PAC. ids mints unique packet IDs (shared with the rest
// of the memory system so responses can be routed).
func New(p Params, ids func() uint64) *PAC {
	p.validate()
	if p.SampleInterval == 0 {
		p.SampleInterval = p.Timeout
	}
	w := p.Device.MaxReqBlocks()
	if w > 16 {
		w = 16 // the decoder partitions into at most 16-bit sequences (§4.1)
	}
	return &PAC{
		p:         p,
		table:     NewTable(w, p.PadRuns),
		chunkBits: w,
		nextID:    ids,
		PACState:  PACState{Streams: make([]Stream, p.Streams), TmoAt: engine.Never},
	}
}

// UseParentPool installs the free-list backing the pipeline's request
// slices and emitted packets' Parents.
func (c *PAC) UseParentPool(pool *arena.SlicePool[mem.Request]) { c.parents = pool }

// Params returns the configuration the PAC was built with.
func (c *PAC) Params() Params { return c.p }

// Enqueue offers one LLC request (miss or write-back) to the coalescer's
// input queues. It returns false when the corresponding queue is full, in
// which case the caller must stall and retry (the cache blocks, §3.2).
// Write-backs are stores flagged by wb; fences may arrive on the miss path.
func (c *PAC) Enqueue(r mem.Request, wb bool) bool {
	q := &c.missQ
	if wb {
		q = &c.wbQ
	}
	if q.Len() >= c.p.InputQueueDepth {
		c.Stats.InputStalls++
		return false
	}
	q.PushBack(r)
	return true
}

// InputBacklog returns the number of requests waiting in the input queues.
func (c *PAC) InputBacklog() int { return c.missQ.Len() + c.wbQ.Len() }

// MAQLen returns the current memory access queue depth.
func (c *PAC) MAQLen() int { return c.maq.Len() }

// MAQEmpty reports whether the MAQ holds no packets.
func (c *PAC) MAQEmpty() bool { return c.maq.Len() == 0 }

// PopMAQ removes and returns the packet at the head of the MAQ.
func (c *PAC) PopMAQ() (mem.Coalesced, bool) {
	return c.maq.PopFront()
}

// FrontMAQ peeks at the packet at the head of the MAQ without removing
// it; the event kernel's wake probes use it to avoid pop/push round
// trips.
func (c *PAC) FrontMAQ() (mem.Coalesced, bool) {
	return c.maq.Front()
}

// PushFrontMAQ returns a popped packet to the head of the MAQ, used by
// the driver when the MSHR file is full and the packet must wait without
// losing its place. It bypasses the capacity check (the packet was just
// popped, so the queue has room conceptually).
func (c *PAC) PushFrontMAQ(pkt mem.Coalesced) {
	c.maq.PushFront(pkt)
}

// Drained reports whether no request is anywhere inside the coalescer
// (input queues, streams, pipeline, MAQ). Used to terminate simulations.
func (c *PAC) Drained() bool {
	if c.missQ.Len()+c.wbQ.Len()+len(c.Stage2)+c.storeQ.Len()+c.seqBuf.Len()+c.bypassQ.Len()+c.maq.Len() > 0 {
		return false
	}
	if c.AsmActive {
		return false
	}
	return c.Live == 0
}

// backlogged reports whether any pipeline stage holds buffered work, in
// which case the very next Tick is productive (it moves a datum, or at
// least records a stall counter the cycle-accurate loop would have
// recorded too).
func (c *PAC) backlogged() bool {
	return c.missQ.Len()+c.wbQ.Len()+len(c.Stage2)+c.storeQ.Len()+c.seqBuf.Len()+c.bypassQ.Len() > 0 ||
		c.AsmActive
}

// NextWake implements the engine.Clocked contract for the coalescing
// network: the earliest cycle at which Tick would do more than advance
// the pipeline clock. Buffered work in any stage makes the next cycle
// productive; an otherwise empty pipeline whose stage-1 streams are
// still aggregating wakes at the earliest timeout flush or occupancy
// sample, and a fully drained pipeline sleeps forever. Packets already
// in the MAQ need no wake — draining them is the driver's dispatcher.
func (c *PAC) NextWake(now int64) int64 {
	if c.backlogged() {
		return now + 1
	}
	if c.Live == 0 {
		return engine.Never
	}
	wake := c.TmoAt
	{
		// Occupancy samples observe valid streams (Figure 11b), so the
		// next sample point is a real event while any stream lives.
		if t := c.LastSample + c.p.SampleInterval; t < wake {
			wake = t
		}
	}
	return wake
}

// SkipTo fast-forwards the pipeline clock to the given cycle, standing
// in for the run of inert Ticks the cycle-accurate loop would execute
// while the pipeline has nothing to move. The caller must only skip over
// cycles NextWake reported as dead time; the one piece of time-keeping
// those ticks perform — advancing the occupancy-sampling origin when no
// stream is valid to observe — is reproduced in closed form.
func (c *PAC) SkipTo(now int64) {
	if now <= c.Now {
		return
	}
	if c.backlogged() {
		panic("core: SkipTo over a backlogged pipeline")
	}
	// The input round-robin pointer flips every tick even when both
	// queues are empty (nextInput toggles before popping), so a skipped
	// stretch of odd length leaves it inverted.
	if (now-c.Now)&1 == 1 {
		c.TakeWB = !c.TakeWB
	}
	// Empty samples record nothing but still reset the sampling origin;
	// with valid streams NextWake bounds the skip before the next sample
	// point, making this a no-op. SampleInterval is almost always a
	// power of two (paper: 16), so round down with a mask, not a divide.
	if s := c.p.SampleInterval; now-c.LastSample >= s {
		if s&(s-1) == 0 {
			c.LastSample += (now - c.LastSample) &^ (s - 1)
		} else {
			c.LastSample += (now - c.LastSample) / s * s
		}
	}
	c.Now = now
}

// Tick advances the pipeline one cycle. Stages run back-to-front so a
// datum moves at most one stage per cycle.
//
// An idle pipeline (no buffered work, no live streams — the machine is
// stepping for the device's sake) short-circuits to the two pieces of
// time-keeping an inert tick performs: the input round-robin pointer
// flips (nextInput toggles before popping) and an elapsed sampling
// interval resets the occupancy origin without recording (no streams to
// observe). This is exactly the closed form SkipTo applies per skipped
// cycle, so the fast path cannot diverge from the stage-by-stage walk.
func (c *PAC) Tick() {
	c.Now++
	if c.Live == 0 && !c.AsmActive && len(c.Stage2) == 0 &&
		c.missQ.Len()|c.wbQ.Len()|c.storeQ.Len()|c.seqBuf.Len()|c.bypassQ.Len() == 0 {
		c.TakeWB = !c.TakeWB
		if c.Now-c.LastSample >= c.p.SampleInterval {
			c.LastSample = c.Now
		}
		return
	}
	c.tickMAQIntake()
	c.tickAssembler()
	c.tickStore()
	c.tickDecode()
	c.tickAggregator()
	c.sampleOccupancy()
}

// pushMAQ appends a packet if space remains, maintaining the fill-latency
// measurement. Returns false when the MAQ is full.
func (c *PAC) pushMAQ(pkt mem.Coalesced) bool {
	if c.maq.Len() >= c.p.MAQDepth {
		return false
	}
	if !c.FillActive {
		c.FillStart = c.Now
		c.FillPushes = 0
		c.FillActive = true
	}
	c.maq.PushBack(pkt)
	c.FillPushes++
	if c.FillPushes >= c.p.MAQDepth {
		c.Stats.MAQFill.Add(float64(c.Now - c.FillStart))
		c.FillActive = false
	}
	c.Stats.PacketsOut++
	c.Stats.SizeHist.Add(pkt.Blocks())
	for _, r := range pkt.Parents {
		c.Stats.OverallLat.Add(float64(c.Now - r.Issue))
	}
	return true
}

// tickMAQIntake moves waiting bypass packets (C=0 singles, atomics) into
// the MAQ.
func (c *PAC) tickMAQIntake() {
	for {
		pkt, ok := c.bypassQ.Front()
		if !ok {
			return
		}
		if !c.pushMAQ(pkt) {
			c.Stats.MAQStallCycles++
			return
		}
		c.bypassQ.PopFront()
	}
}

// tickAssembler advances stage 3: pop a block sequence, spend one cycle on
// the coalescing-table lookup, then emit one packet per cycle.
func (c *PAC) tickAssembler() {
	if !c.AsmActive {
		item, ok := c.seqBuf.PopFront()
		if !ok {
			return
		}
		c.Asm = AsmJob{Item: item, runs: c.table.Lookup(item.Bits)}
		c.AsmActive = true
		// The table lookup consumes this cycle.
		return
	}
	j := &c.Asm
	if !j.LookedUp {
		j.LookedUp = true
	}
	if j.Next >= len(j.runs) {
		c.finishAsmJob()
		c.tickAssembler() // pop the next sequence this cycle
		return
	}
	run := j.runs[j.Next]
	pkt := c.assemble(j.Item, run)
	if !c.pushMAQ(pkt) {
		c.Stats.MAQStallCycles++
		return // stall; retry next cycle
	}
	c.Stats.Stage3Lat.Add(float64(c.Now - j.Item.SeqEnter))
	j.Next++
	if j.Next >= len(j.runs) {
		c.finishAsmJob()
	}
}

// finishAsmJob retires the assembler job, recycling the chunk's request
// buffer (every packet's Parents were copied out by assemble).
func (c *PAC) finishAsmJob() {
	c.parents.Put(c.Asm.Item.Reqs)
	c.Asm = AsmJob{}
	c.AsmActive = false
}

// assemble builds the coalesced packet for one run of a chunk.
func (c *PAC) assemble(item Chunk, run Run) mem.Coalesced {
	firstBlock := uint(item.Chunk*c.chunkBits + run.Off)
	addr := mem.BlockAddr(item.PPN, firstBlock)
	parents := c.parents.Get()
	for _, r := range item.Reqs {
		b := int(mem.BlockID(r.Addr))
		rel := b - item.Chunk*c.chunkBits
		if rel >= run.Off && rel < run.Off+run.Len {
			parents = append(parents, r)
		}
	}
	return mem.Coalesced{
		ID:        c.nextID(),
		Addr:      addr,
		Size:      uint32(run.Len * mem.BlockSize),
		Op:        item.Op,
		Parents:   parents,
		Assembled: c.Now,
	}
}

// tickStore advances the shared-bus write of decoded chunks into the block
// sequence buffer: one chunk per cycle (paper §3.3.2).
func (c *PAC) tickStore() {
	item, ok := c.storeQ.PopFront()
	if !ok {
		return
	}
	item.SeqEnter = c.Now
	c.seqBuf.PushBack(item)
	// Stage-2 latency is flush-to-stored for the stream's last chunk;
	// record per chunk, which weights streams by their chunk count.
	c.Stats.Stage2Lat.Add(float64(c.Now - item.FlushEnter))
}

// tickDecode advances stage 2: every flushed stream decodes in one cycle
// (16 parallel OR gates per the paper), after which its non-zero chunks
// join the store queue.
func (c *PAC) tickDecode() {
	// Filter in place: kept streams stay in order, decoded ones leave.
	keep := c.Stage2[:0]
	for i := range c.Stage2 {
		f := c.Stage2[i]
		if c.Now <= f.Enter {
			keep = append(keep, f) // decode happens the cycle after entry
			continue
		}
		c.decodeChunks(f)
	}
	for i := len(keep); i < len(c.Stage2); i++ {
		c.Stage2[i] = FlushedStream{} // drop recycled-buffer references
	}
	c.Stage2 = keep
}

// decodeChunks partitions a flushed stream's block-map into chunkBits-wide
// sequences and queues the non-zero ones.
func (c *PAC) decodeChunks(f FlushedStream) {
	nChunks := mem.BlocksPerPage / c.chunkBits
	mask := uint64(1)<<uint(c.chunkBits) - 1
	for ch := 0; ch < nChunks; ch++ {
		bits := uint((f.Bmap >> (uint(ch) * uint(c.chunkBits))) & mask)
		if bits == 0 {
			continue
		}
		item := Chunk{
			Op:         f.Op,
			PPN:        f.PPN,
			Chunk:      ch,
			Bits:       bits,
			FlushEnter: f.Enter,
		}
		lo, hi := ch*c.chunkBits, (ch+1)*c.chunkBits
		item.Reqs = c.parents.Get()
		for _, r := range f.Reqs {
			if b := int(mem.BlockID(r.Addr)); b >= lo && b < hi {
				item.Reqs = append(item.Reqs, r)
			}
		}
		c.storeQ.PushBack(item)
	}
	c.parents.Put(f.Reqs)
}

// flushStream sends stream i down the pipeline (or around it, when its C
// bit is clear) and frees the slot.
func (c *PAC) flushStream(i int) {
	s := &c.Streams[i]
	if !s.Valid {
		return
	}
	c.Live--
	wasMin := s.First+c.p.Timeout == c.TmoAt
	if s.cBit() {
		c.Stage2 = append(c.Stage2, FlushedStream{
			Op:    s.Op,
			PPN:   s.Tag &^ (1 << (mem.TagTBit - mem.PageShift)),
			Bmap:  s.Bmap,
			Reqs:  s.Reqs,
			Enter: c.Now,
		})
	} else {
		// Single-request streams skip stages 2-3 (C bit = 0). The
		// stream's one-element buffer moves into the packet as-is.
		r := s.Reqs[0]
		c.Stats.Bypassed++
		c.bypassQ.PushBack(mem.Coalesced{
			ID:        c.nextID(),
			Addr:      mem.BlockAlign(r.Addr),
			Size:      mem.BlockSize,
			Op:        s.Op,
			Parents:   s.Reqs,
			Assembled: c.Now,
			Bypassed:  true,
		})
	}
	*s = Stream{}
	if wasMin {
		c.recomputeTimeout()
	}
}

// recomputeTimeout rescans the stream slots for the earliest timeout;
// called only when the previous minimum holder was flushed.
func (c *PAC) recomputeTimeout() {
	t := int64(engine.Never)
	for i := range c.Streams {
		if s := &c.Streams[i]; s.Valid {
			if w := s.First + c.p.Timeout; w < t {
				t = w
			}
		}
	}
	c.TmoAt = t
}

// tickAggregator advances stage 1: timeout flushes, then intake of one
// request per cycle from the input queues (the paper's single-cycle
// parallel comparison).
func (c *PAC) tickAggregator() {
	// Timeout: streams older than the window are forced downstream so
	// waiting raw requests have a bounded latency. tmoAt bounds the
	// earliest possible firing, so most ticks skip the slot walk.
	if c.Live > 0 && c.Now >= c.TmoAt {
		for i := range c.Streams {
			s := &c.Streams[i]
			if s.Valid && c.Now-s.First >= c.p.Timeout {
				c.Stats.TimeoutFlushes++
				c.flushStream(i)
			}
		}
	}

	r, ok := c.nextInput()
	if !ok {
		return
	}

	switch r.Op {
	case mem.OpFence:
		// A fence monopolises stage 1 and pushes all previous
		// requests into stage 2 to preserve the boundary.
		c.Stats.Fences++
		for i := range c.Streams {
			if c.Streams[i].Valid {
				c.Stats.FenceFlushes++
				c.flushStream(i)
			}
		}
		return
	case mem.OpAtomic:
		// Atomics are routed directly to the memory controller.
		c.Stats.RawIn++
		c.Stats.Atomics++
		r.Issue = c.Now
		c.bypassQ.PushBack(mem.Coalesced{
			ID:        c.nextID(),
			Addr:      mem.BlockAlign(r.Addr),
			Size:      mem.BlockSize,
			Op:        mem.OpAtomic,
			Parents:   append(c.parents.Get(), r),
			Assembled: c.Now,
			Bypassed:  true,
		})
		return
	}

	c.Stats.RawIn++
	r.Issue = c.Now
	tag := mem.TaggedPPN(r.Addr, r.Op)

	// Parallel comparison against every active stream (one comparator
	// per stream; all fire simultaneously in one cycle). Alongside the
	// hardware count we keep the Figure 7 sequential-scan models: the
	// paged scan stops at the matching stream; the unpaged
	// counterfactual scans buffered raw requests one by one.
	match := -1
	free := -1
	oldest := -1
	validSeen, bufferedSeen := int64(0), int64(0)
	var pagedScan, unpagedScan int64
	for i := range c.Streams {
		s := &c.Streams[i]
		if !s.Valid {
			if free < 0 {
				free = i
			}
			continue
		}
		c.Stats.Comparisons++
		validSeen++
		if s.Tag == tag && match < 0 {
			match = i
			pagedScan = validSeen
			unpagedScan = bufferedSeen + 1
		}
		bufferedSeen += int64(len(s.Reqs))
		if oldest < 0 || s.First < c.Streams[oldest].First {
			oldest = i
		}
	}
	if match < 0 {
		pagedScan = validSeen
		unpagedScan = bufferedSeen
	}
	c.Stats.PagedScans += pagedScan
	c.Stats.UnpagedScans += unpagedScan

	if match >= 0 {
		s := &c.Streams[match]
		s.Bmap |= 1 << mem.BlockID(r.Addr)
		s.Reqs = append(s.Reqs, r)
		return
	}
	if free < 0 {
		// Stream pressure: evict the oldest stream to make room.
		c.Stats.PressureFlushes++
		c.flushStream(oldest)
		free = oldest
	}
	c.Live++
	if t := c.Now + c.p.Timeout; t < c.TmoAt {
		c.TmoAt = t
	}
	c.Streams[free] = Stream{
		Valid: true,
		Tag:   tag,
		Op:    r.Op,
		Bmap:  1 << mem.BlockID(r.Addr),
		First: c.Now,
		Reqs:  append(c.parents.Get(), r),
	}
}

// nextInput pops the next request, round-robin between the miss and
// write-back queues so neither starves.
func (c *PAC) nextInput() (mem.Request, bool) {
	if c.TakeWB {
		c.TakeWB = false
		if r, ok := c.wbQ.PopFront(); ok {
			return r, true
		}
		return c.missQ.PopFront()
	}
	c.TakeWB = true
	if r, ok := c.missQ.PopFront(); ok {
		return r, true
	}
	return c.wbQ.PopFront()
}

// sampleOccupancy records the number of valid coalescing streams once per
// sampling interval, while the aggregator is active (paper Figure 11b:
// "we accumulate the number of occupied coalescing streams every 16
// cycles").
func (c *PAC) sampleOccupancy() {
	if c.Now-c.LastSample < c.p.SampleInterval {
		return
	}
	c.LastSample = c.Now
	if c.Live > 0 {
		c.Stats.Occupancy.Add(c.Live)
	}
}

// PopCount reports how many blocks are set in a stream's map; exposed for
// white-box tests.
func popCount(bmap uint64) int { return bits.OnesCount64(bmap) }
