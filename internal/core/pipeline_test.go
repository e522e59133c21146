package core

// White-box tests of the pipeline internals: decode partitioning,
// fence/timeout interleavings, holdback, and property-based conservation.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pacsim/pac/internal/mem"
)

func TestDecodeChunksPartitioning(t *testing.T) {
	c := newTestPAC(nil)
	// Blocks 0,1 (chunk 0), 5 (chunk 1), 62,63 (chunk 15) of one page.
	var bmap uint64
	var reqs []mem.Request
	for i, b := range []uint{0, 1, 5, 62, 63} {
		bmap |= 1 << b
		reqs = append(reqs, req(uint64(i+1), mem.BlockAddr(0x33, b), mem.OpLoad))
	}
	c.decodeChunks(FlushedStream{Op: mem.OpLoad, PPN: 0x33, Bmap: bmap, Reqs: reqs})
	if c.storeQ.Len() != 3 {
		t.Fatalf("decoded %d chunks, want 3", c.storeQ.Len())
	}
	wantBits := map[int]uint{0: 0b0011, 1: 0b0010, 15: 0b1100}
	wantReqs := map[int]int{0: 2, 1: 1, 15: 2}
	for i := 0; i < c.storeQ.Len(); i++ {
		item := c.storeQ.At(i)
		if item.Bits != wantBits[item.Chunk] {
			t.Errorf("chunk %d bits = %04b, want %04b", item.Chunk, item.Bits, wantBits[item.Chunk])
		}
		if len(item.Reqs) != wantReqs[item.Chunk] {
			t.Errorf("chunk %d carries %d reqs, want %d", item.Chunk, len(item.Reqs), wantReqs[item.Chunk])
		}
	}
}

func TestAssembleParentsFiltered(t *testing.T) {
	c := newTestPAC(nil)
	item := Chunk{
		Op:    mem.OpLoad,
		PPN:   0x9,
		Chunk: 1, // blocks 4..7
		Bits:  0b0110,
		Reqs: []mem.Request{
			req(1, mem.BlockAddr(0x9, 5), mem.OpLoad),
			req(2, mem.BlockAddr(0x9, 6), mem.OpLoad),
		},
	}
	pkt := c.assemble(item, Run{Off: 1, Len: 2})
	if pkt.Addr != mem.BlockAddr(0x9, 5) || pkt.Size != 128 {
		t.Fatalf("assembled %+v", pkt)
	}
	if len(pkt.Parents) != 2 {
		t.Fatalf("parents = %d, want 2", len(pkt.Parents))
	}
	// A run covering only block 5 must exclude request 2.
	pkt = c.assemble(item, Run{Off: 1, Len: 1})
	if len(pkt.Parents) != 1 || pkt.Parents[0].ID != 1 {
		t.Fatalf("narrow run parents = %+v", pkt.Parents)
	}
}

func TestFenceBetweenDistinctPagePairs(t *testing.T) {
	// A fence must separate aggregation before/after it: blocks on the
	// same page offered before and after a fence may not merge if the
	// fence flushed the stream first.
	c := newTestPAC(nil)
	c.Enqueue(req(1, mem.BlockAddr(0x5, 0), mem.OpLoad), false)
	c.Enqueue(mem.Request{ID: 2, Op: mem.OpFence}, false)
	c.Enqueue(req(3, mem.BlockAddr(0x5, 1), mem.OpLoad), false)
	out := drain(c, 300)
	if len(out) != 2 {
		t.Fatalf("fence boundary violated: %d packets (%v)", len(out), out)
	}
}

func TestPushFrontMAQPreservesOrder(t *testing.T) {
	c := newTestPAC(nil)
	c.Enqueue(req(1, mem.BlockAddr(0x1, 0), mem.OpLoad), false)
	c.Enqueue(req(2, mem.BlockAddr(0x2, 0), mem.OpLoad), false)
	var first mem.Coalesced
	for i := 0; i < 100; i++ {
		c.Tick()
		if pkt, ok := c.PopMAQ(); ok {
			first = pkt
			break
		}
	}
	if first.ID == 0 {
		t.Fatal("no packet")
	}
	c.PushFrontMAQ(first)
	pkt, ok := c.PopMAQ()
	if !ok || pkt.ID != first.ID {
		t.Fatalf("holdback lost ordering: %+v vs %+v", pkt, first)
	}
}

func TestTimeoutAppliesPerStream(t *testing.T) {
	// Stream A allocated at t=1, stream B at t=9: A must flush ~8
	// cycles before B.
	c := newTestPAC(nil)
	c.Enqueue(req(1, mem.BlockAddr(0xA, 0), mem.OpLoad), false)
	for i := 0; i < 8; i++ {
		c.Tick()
	}
	c.Enqueue(req(2, mem.BlockAddr(0xB, 0), mem.OpLoad), false)
	var times []int64
	for i := 0; i < 60 && len(times) < 2; i++ {
		c.Tick()
		for {
			if _, ok := c.PopMAQ(); ok {
				times = append(times, c.Now)
			} else {
				break
			}
		}
	}
	if len(times) != 2 {
		t.Fatalf("got %d packets", len(times))
	}
	gap := times[1] - times[0]
	if gap < 6 || gap > 10 {
		t.Errorf("flush gap = %d cycles, want ~8 (per-stream timeout)", gap)
	}
}

// Property: under random load/store traffic across random pages, every
// packet is block-aligned, within the device limit, chunk-confined, and
// op-homogeneous with its parents.
func TestPacketWellFormedness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newTestPAC(nil)
		var id uint64
		for i := 0; i < 200; i++ {
			id++
			op := mem.OpLoad
			switch rng.Intn(4) {
			case 0:
				op = mem.OpStore
			case 1:
				if rng.Intn(4) == 0 {
					op = mem.OpAtomic
				}
			}
			r := req(id, mem.BlockAddr(uint64(rng.Intn(5)+1), uint(rng.Intn(64))), op)
			for !c.Enqueue(r, op == mem.OpStore) {
				c.Tick()
				drainOnce(c)
			}
			if rng.Intn(3) == 0 {
				c.Tick()
				drainOnce(c)
			}
		}
		for i := 0; i < 2000 && !c.Drained(); i++ {
			c.Tick()
			for {
				pkt, ok := c.PopMAQ()
				if !ok {
					break
				}
				if !wellFormed(pkt) {
					return false
				}
			}
		}
		return c.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func drainOnce(c *PAC) {
	for {
		if _, ok := c.PopMAQ(); !ok {
			return
		}
	}
}

func wellFormed(pkt mem.Coalesced) bool {
	if pkt.Addr%mem.BlockSize != 0 {
		return false
	}
	if pkt.Size == 0 || pkt.Size > 256 || pkt.Size%mem.BlockSize != 0 {
		return false
	}
	if len(pkt.Parents) == 0 {
		return false
	}
	// Chunk confinement: the packet must not straddle a 256B boundary.
	if pkt.Addr/256 != (pkt.Addr+uint64(pkt.Size)-1)/256 {
		return false
	}
	for _, p := range pkt.Parents {
		if p.Op != pkt.Op {
			return false
		}
		if mem.BlockNumber(p.Addr) < mem.BlockNumber(pkt.Addr) ||
			mem.BlockNumber(p.Addr) >= mem.BlockNumber(pkt.Addr)+uint64(pkt.Blocks()) {
			return false
		}
	}
	return true
}

func TestScanCountsMonotonic(t *testing.T) {
	// UnpagedScans >= PagedScans always (each stream holds >= 1 request).
	c := newTestPAC(nil)
	var id uint64
	for p := uint64(1); p < 12; p++ {
		for b := uint(0); b < 3; b++ {
			id++
			c.Enqueue(req(id, mem.BlockAddr(p, b), mem.OpLoad), false)
			c.Tick()
		}
	}
	drain(c, 400)
	if c.Stats.PagedScans > c.Stats.UnpagedScans {
		t.Errorf("PagedScans %d > UnpagedScans %d", c.Stats.PagedScans, c.Stats.UnpagedScans)
	}
	if c.Stats.ComparisonReduction() < 0 {
		t.Errorf("negative comparison reduction: %.2f", c.Stats.ComparisonReduction())
	}
}
