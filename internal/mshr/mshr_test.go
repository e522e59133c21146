package mshr

import (
	"testing"
	"testing/quick"

	"github.com/pacsim/pac/internal/mem"
)

func pkt(id uint64, addr uint64, blocks int, op mem.Op, parents ...mem.Request) mem.Coalesced {
	return mem.Coalesced{
		ID:      id,
		Addr:    addr,
		Size:    uint32(blocks * mem.BlockSize),
		Op:      op,
		Parents: parents,
	}
}

func raw(id, addr uint64, op mem.Op) mem.Request {
	return mem.Request{ID: id, Addr: addr, Size: mem.BlockSize, Op: op}
}

func TestNewPanicsOnZeroEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Entries: 0})
}

func TestAllocateAndRelease(t *testing.T) {
	f := New(Config{Entries: 2, Adaptive: true})
	p := pkt(1, 0x1000, 2, mem.OpLoad, raw(10, 0x1000, mem.OpLoad), raw(11, 0x1040, mem.OpLoad))
	i, ok := f.Allocate(p)
	if !ok {
		t.Fatal("allocation failed on empty file")
	}
	if f.Available() != 1 {
		t.Fatalf("Available = %d, want 1", f.Available())
	}
	e := f.Entry(i)
	if !e.Valid || e.Base != mem.BlockNumber(0x1000) || e.Blocks != 2 || e.Op != mem.OpLoad {
		t.Fatalf("bad entry: %+v", e)
	}
	subs := e.Subs
	if len(subs) != 2 || subs[0].Index != 0 || subs[1].Index != 1 {
		t.Fatalf("bad subentries: %+v", subs)
	}
	got := f.Release(i)
	if len(got) != 2 || got[0].Req.ID != 10 {
		t.Fatalf("Release returned %+v", got)
	}
	if f.Available() != 2 || f.Entry(i).Valid {
		t.Fatal("entry not freed")
	}
}

func TestAllocateFull(t *testing.T) {
	f := New(Config{Entries: 1, Adaptive: true})
	if _, ok := f.Allocate(pkt(1, 0x1000, 1, mem.OpLoad)); !ok {
		t.Fatal("first allocation failed")
	}
	if _, ok := f.Allocate(pkt(2, 0x2000, 1, mem.OpLoad)); ok {
		t.Fatal("allocation succeeded on full file")
	}
	if !f.Full() {
		t.Fatal("Full() = false on full file")
	}
}

func TestMergeInSpanSameOp(t *testing.T) {
	f := New(Config{Entries: 4, Adaptive: true})
	// 256B entry covering blocks N..N+3.
	f.Allocate(pkt(1, 0x4000, 4, mem.OpLoad, raw(1, 0x4000, mem.OpLoad)))
	// A 64B packet at block N+2 merges.
	i, ok := f.TryMerge(pkt(2, 0x4080, 1, mem.OpLoad, raw(2, 0x4080, mem.OpLoad)))
	if !ok {
		t.Fatal("in-span same-op merge refused")
	}
	subs := f.Entry(i).Subs
	if len(subs) != 2 || subs[1].Index != 2 {
		t.Fatalf("merged subentry index wrong: %+v", subs)
	}
	if f.Merges != 1 {
		t.Fatalf("Merges = %d, want 1", f.Merges)
	}
	// A 128B packet covering N+2..N+3 also merges.
	if _, ok := f.TryMerge(pkt(3, 0x4080, 2, mem.OpLoad, raw(3, 0x4080, mem.OpLoad), raw(4, 0x40c0, mem.OpLoad))); !ok {
		t.Fatal("128B in-span merge refused")
	}
}

func TestMergeRejectsOpMismatch(t *testing.T) {
	f := New(Config{Entries: 4, Adaptive: true})
	f.Allocate(pkt(1, 0x4000, 4, mem.OpLoad))
	if _, ok := f.TryMerge(pkt(2, 0x4000, 1, mem.OpStore, raw(2, 0x4000, mem.OpStore))); ok {
		t.Fatal("store merged into load entry (OP bit ignored)")
	}
}

func TestMergeRejectsOutOfSpan(t *testing.T) {
	f := New(Config{Entries: 4, Adaptive: true})
	f.Allocate(pkt(1, 0x4000, 2, mem.OpLoad)) // covers N..N+1
	cases := []mem.Coalesced{
		pkt(2, 0x4080, 1, mem.OpLoad, raw(2, 0x4080, mem.OpLoad)), // N+2: outside
		pkt(3, 0x4040, 2, mem.OpLoad, raw(3, 0x4040, mem.OpLoad)), // N+1..N+2: straddles end
		pkt(4, 0x3fc0, 1, mem.OpLoad, raw(4, 0x3fc0, mem.OpLoad)), // N-1: before
	}
	for _, c := range cases {
		if _, ok := f.TryMerge(c); ok {
			t.Errorf("out-of-span packet 0x%x+%d merged", c.Addr, c.Size)
		}
	}
}

func TestMergeNeverForAtomics(t *testing.T) {
	f := New(Config{Entries: 4, Adaptive: true})
	f.Allocate(pkt(1, 0x4000, 4, mem.OpAtomic))
	if _, ok := f.TryMerge(pkt(2, 0x4000, 1, mem.OpAtomic, raw(2, 0x4000, mem.OpAtomic))); ok {
		t.Fatal("atomic was merged")
	}
}

func TestMergeSubentryCapacity(t *testing.T) {
	f := New(Config{Entries: 2, MaxSubentries: 2, Adaptive: true})
	f.Allocate(pkt(1, 0x4000, 4, mem.OpLoad, raw(1, 0x4000, mem.OpLoad)))
	if _, ok := f.TryMerge(pkt(2, 0x4040, 1, mem.OpLoad, raw(2, 0x4040, mem.OpLoad))); !ok {
		t.Fatal("merge within capacity refused")
	}
	if _, ok := f.TryMerge(pkt(3, 0x4080, 1, mem.OpLoad, raw(3, 0x4080, mem.OpLoad))); ok {
		t.Fatal("merge beyond MaxSubentries accepted")
	}
	if f.MergeFails != 1 {
		t.Fatalf("MergeFails = %d, want 1", f.MergeFails)
	}
}

func TestConventionalRejectsMultiBlock(t *testing.T) {
	f := New(Config{Entries: 2, Adaptive: false})
	defer func() {
		if recover() == nil {
			t.Error("conventional file must panic on multi-block packet")
		}
	}()
	f.Allocate(pkt(1, 0x1000, 2, mem.OpLoad))
}

func TestAdaptiveRejectsOversizedSpan(t *testing.T) {
	f := New(Config{Entries: 2, Adaptive: true})
	defer func() {
		if recover() == nil {
			t.Error("adaptive file must panic on >4 block packet")
		}
	}()
	f.Allocate(pkt(1, 0x1000, 5, mem.OpLoad))
}

func TestConventionalExactBlockMerge(t *testing.T) {
	f := New(Config{Entries: 2, Adaptive: false})
	f.Allocate(pkt(1, 0x1000, 1, mem.OpLoad, raw(1, 0x1000, mem.OpLoad)))
	if _, ok := f.TryMerge(pkt(2, 0x1000, 1, mem.OpLoad, raw(2, 0x1010, mem.OpLoad))); !ok {
		t.Fatal("same-block merge refused by conventional file")
	}
	if _, ok := f.TryMerge(pkt(3, 0x1040, 1, mem.OpLoad, raw(3, 0x1040, mem.OpLoad))); ok {
		t.Fatal("adjacent-block packet merged by conventional file")
	}
}

func TestFindByPacket(t *testing.T) {
	f := New(Config{Entries: 4, Adaptive: true})
	f.Allocate(pkt(101, 0x1000, 1, mem.OpLoad))
	i2, _ := f.Allocate(pkt(102, 0x2000, 2, mem.OpLoad))
	if i, ok := f.FindByPacket(102); !ok || i != i2 {
		t.Fatalf("FindByPacket(102) = %d,%v", i, ok)
	}
	if _, ok := f.FindByPacket(999); ok {
		t.Fatal("found nonexistent packet")
	}
}

func TestReleaseInvalidPanics(t *testing.T) {
	f := New(Config{Entries: 2, Adaptive: true})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on releasing invalid entry")
		}
	}()
	f.Release(0)
}

func TestComparisonsCounted(t *testing.T) {
	f := New(Config{Entries: 8, Adaptive: true})
	f.Allocate(pkt(1, 0x1000, 1, mem.OpLoad))
	f.Allocate(pkt(2, 0x2000, 1, mem.OpLoad))
	before := f.Comparisons
	f.TryMerge(pkt(3, 0x9000, 1, mem.OpLoad, raw(3, 0x9000, mem.OpLoad)))
	if f.Comparisons-before != 2 {
		t.Fatalf("comparisons = %d, want 2 (one per valid entry)", f.Comparisons-before)
	}
}

// Property: Available() always equals entries minus valid count, across
// random allocate/release sequences.
func TestAvailableInvariant(t *testing.T) {
	f := New(Config{Entries: 8, Adaptive: true})
	var live []int
	var nextID uint64
	step := func(allocate bool, addr uint64) bool {
		if allocate {
			nextID++
			if i, ok := f.Allocate(pkt(nextID, mem.BlockAlign(addr&mem.PhysAddrMask), 1+int(addr%4), mem.OpLoad)); ok {
				live = append(live, i)
			}
		} else if len(live) > 0 {
			f.Release(live[len(live)-1])
			live = live[:len(live)-1]
		}
		valid := 0
		for i := 0; i < f.Size(); i++ {
			if f.Entry(i).Valid {
				valid++
			}
		}
		return f.Available() == f.Size()-valid && valid == len(live)
	}
	if err := quick.Check(step, nil); err != nil {
		t.Error(err)
	}
}
