// Package mshr implements miss status holding register (MSHR) files: the
// standard Kroft-style file used by the conventional MSHR-based DMC
// baseline, and the paper's *adaptive* MSHRs (§3.1.3) extended with a
// 2-bit subentry block index and an OP bit so that variable-size coalesced
// requests (1..4 cache blocks for HMC) can be merged.
package mshr

import (
	"fmt"

	"github.com/pacsim/pac/internal/mem"
)

// Subentry records one raw request waiting on an outstanding entry.
type Subentry struct {
	// Req is the raw LLC miss being held.
	Req mem.Request
	// Index is the block offset of the requested block relative to
	// the entry's base block N — the paper's 2-bit subentry index
	// (0b00..0b11 map to N..N+3 for HMC; 4 bits for HBM spans).
	Index uint8
}

// Entry is one MSHR: an outstanding memory request plus the raw misses it
// will satisfy.
type Entry struct {
	valid bool
	// base is the first cache-block number covered by the entry.
	base uint64
	// blocks is the span in cache blocks (1 for the standard file,
	// 1..4 for adaptive entries backing coalesced HMC requests).
	blocks int
	// op is the OP bit: loads and stores are never merged (§3.1.3).
	op mem.Op
	// pktID is the coalesced packet ID dispatched for this entry, used
	// to route the memory response back.
	pktID uint64
	// reissues counts how many times the entry's request was re-sent
	// after a poisoned response.
	reissues int
	subs     []Subentry
}

// Valid reports whether the entry holds an outstanding request.
func (e *Entry) Valid() bool { return e.valid }

// Base returns the entry's first covered block number.
func (e *Entry) Base() uint64 { return e.base }

// Blocks returns the entry's span in cache blocks.
func (e *Entry) Blocks() int { return e.blocks }

// Op returns the entry's operation.
func (e *Entry) Op() mem.Op { return e.op }

// PacketID returns the dispatched packet's ID.
func (e *Entry) PacketID() uint64 { return e.pktID }

// ReissueCount returns how many times the entry re-issued its request
// after poisoned responses.
func (e *Entry) ReissueCount() int { return e.reissues }

// Subentries returns the held raw requests.
func (e *Entry) Subentries() []Subentry { return e.subs }

// Config parameterises an MSHR file.
type Config struct {
	// Entries is the number of MSHRs (Table 1: 16).
	Entries int
	// MaxSubentries bounds the raw misses held per entry; a merge into
	// a full entry is refused. 0 means a generous default of 8.
	MaxSubentries int
	// Adaptive selects the paper's extended MSHRs. When false the file
	// behaves like a conventional one: every entry spans exactly one
	// cache block and merging requires an exact block match.
	Adaptive bool
	// MaxBlocks bounds an adaptive entry's span in cache blocks. The
	// paper's HMC design uses 4 (a 2-bit subentry index); the HBM
	// profile widens it to 16 (4 bits). 0 defaults to 4.
	MaxBlocks int
}

// File is a set of MSHRs.
type File struct {
	cfg     Config
	entries []Entry
	free    int
	// gen counts mutations that can change a lookupMerge outcome (entry
	// allocation, release, re-keying, subentry absorption). Callers use
	// it to memoize ProbeMerge results: a probe of the same packet at
	// the same generation must return the same verdict.
	gen uint64
	// nvalid counts valid entries and sigCnt is a counting Bloom filter
	// over every (covered block, op) pair of those entries (incremented
	// on allocate, decremented on release — never rebuilt). A probe
	// whose base block's counter is zero cannot merge anywhere, and the
	// scan it skips would have compared exactly nvalid entries — so the
	// fast path returns the same counter deltas as the walk. False
	// positives just fall through to the scan. uint16 cannot saturate:
	// at most Entries*MaxBlocks increments can share one slot.
	nvalid int
	sigCnt [64]uint16
	// Stats.
	Merges      int64 // raw requests absorbed into existing entries
	Allocations int64 // entries allocated (each implies a memory dispatch)
	MergeFails  int64 // merges refused because the target entry was full
	Comparisons int64 // entry comparisons performed during lookups
	Reissues    int64 // entries re-keyed after a poisoned response
}

// New constructs an MSHR file.
func New(cfg Config) *File {
	if cfg.Entries <= 0 {
		panic(fmt.Sprintf("mshr: bad entry count %d", cfg.Entries))
	}
	if cfg.MaxSubentries <= 0 {
		cfg.MaxSubentries = 8
	}
	if cfg.MaxBlocks <= 0 {
		cfg.MaxBlocks = 4
	}
	return &File{cfg: cfg, entries: make([]Entry, cfg.Entries), free: cfg.Entries}
}

// Size returns the number of MSHRs.
func (f *File) Size() int { return len(f.entries) }

// Available returns the number of free MSHRs.
func (f *File) Available() int { return f.free }

// Full reports whether every MSHR is occupied.
func (f *File) Full() bool { return f.free == 0 }

// Gen returns the file's mutation generation; it changes whenever a
// future lookupMerge could answer differently than it would have before.
func (f *File) Gen() uint64 { return f.gen }

// Entry exposes entry i for inspection.
func (f *File) Entry(i int) *Entry { return &f.entries[i] }

// spanContains reports whether entry e covers every block of [base,
// base+blocks).
func (e *Entry) spanContains(base uint64, blocks int) bool {
	return base >= e.base && base+uint64(blocks) <= e.base+uint64(e.blocks)
}

// sigSlot hashes one (block, op) pair to its filter slot.
func sigSlot(block uint64, op mem.Op) int {
	return int((block ^ uint64(op)<<56) * 0x9e3779b97f4a7c15 >> 58)
}

// addSig registers entry e's covered blocks in the counting filter
// (delta +1) or withdraws them (delta -1).
func (f *File) addSig(e *Entry, delta int) {
	for b := e.base; b < e.base+uint64(e.blocks); b++ {
		f.sigCnt[sigSlot(b, e.op)] += uint16(delta)
	}
}

// lookupMerge finds the entry a packet would merge into without mutating
// any state. It returns the candidate entry, the number of entry
// comparisons the scan performed, and whether a span-matching entry had
// to refuse the merge for a full subentry list — exactly the counter
// deltas one TryMerge attempt records, so TryMerge and ProbeMerge cannot
// drift apart.
func (f *File) lookupMerge(pkt mem.Coalesced) (entry int, cmp, fails int64, ok bool) {
	if pkt.Op == mem.OpAtomic || pkt.Op == mem.OpFence {
		return 0, 0, 0, false // atomics are never merged
	}
	base := mem.BlockNumber(pkt.Addr)
	blocks := pkt.Blocks()
	if f.sigCnt[sigSlot(base, pkt.Op)] == 0 {
		// No valid entry covers the packet's base block under this op,
		// so nothing can span-contain it: the walk below would have
		// compared every valid entry and matched none.
		return 0, int64(f.nvalid), 0, false
	}
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid {
			continue
		}
		cmp++
		if e.op != pkt.Op || !e.spanContains(base, blocks) {
			continue
		}
		if len(e.subs)+len(pkt.Parents) > f.cfg.MaxSubentries {
			return 0, cmp, 1, false
		}
		return i, cmp, 0, true
	}
	return 0, cmp, 0, false
}

// TryMerge attempts to absorb a coalesced packet into an existing entry:
// the packet must be fully contained in the entry's block span and match
// its OP bit. On success the packet's parent requests become subentries
// and NO new memory request is needed. The comparison count models the
// parallel hardware comparators.
func (f *File) TryMerge(pkt mem.Coalesced) (entry int, ok bool) {
	i, cmp, fails, ok := f.lookupMerge(pkt)
	f.Comparisons += cmp
	f.MergeFails += fails
	if !ok {
		return 0, false
	}
	e := &f.entries[i]
	for _, r := range pkt.Parents {
		e.subs = append(e.subs, Subentry{
			Req:   r,
			Index: uint8(mem.BlockNumber(r.Addr) - e.base),
		})
	}
	f.Merges += int64(len(pkt.Parents))
	f.gen++
	return i, true
}

// ProbeMerge reports, without mutating file state or counters, whether
// TryMerge would currently absorb the packet, together with the
// comparison and merge-fail deltas one attempt would record. The event
// kernel uses it both to decide whether a held-back packet can make
// progress and to account, in closed form, for the retry the
// cycle-accurate loop would perform on every skipped cycle while the
// file is full.
func (f *File) ProbeMerge(pkt mem.Coalesced) (ok bool, comparisons, mergeFails int64) {
	_, cmp, fails, ok := f.lookupMerge(pkt)
	return ok, cmp, fails
}

// Allocate claims a free MSHR for the packet, which the caller must then
// dispatch to memory. Returns ok=false when the file is full (the cache
// blocks, per the paper's workflow §3.2).
func (f *File) Allocate(pkt mem.Coalesced) (entry int, ok bool) {
	if f.free == 0 {
		return 0, false
	}
	blocks := pkt.Blocks()
	if f.cfg.Adaptive {
		if blocks < 1 || blocks > f.cfg.MaxBlocks {
			panic(fmt.Sprintf("mshr: adaptive entry span %d exceeds %d blocks", blocks, f.cfg.MaxBlocks))
		}
	} else if blocks != 1 {
		panic(fmt.Sprintf("mshr: conventional MSHR cannot hold %d-block request", blocks))
	}
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid {
			continue
		}
		base := mem.BlockNumber(pkt.Addr)
		*e = Entry{
			valid:  true,
			base:   base,
			blocks: blocks,
			op:     pkt.Op,
			pktID:  pkt.ID,
			subs:   e.subs[:0], // recycle the subentry backing array
		}
		for _, r := range pkt.Parents {
			e.subs = append(e.subs, Subentry{
				Req:   r,
				Index: uint8(mem.BlockNumber(r.Addr) - base),
			})
		}
		f.free--
		f.nvalid++
		f.addSig(e, 1)
		f.Allocations++
		f.gen++
		return i, true
	}
	panic("mshr: free count inconsistent with entries")
}

// Release frees entry i when its memory response arrives and returns the
// raw requests it satisfied. The returned slice shares the entry's
// recycled backing array: it is valid only until the file next allocates
// an entry, so callers must consume (or copy) it before driving the file
// again.
func (f *File) Release(entry int) []Subentry {
	e := &f.entries[entry]
	if !e.valid {
		panic(fmt.Sprintf("mshr: releasing invalid entry %d", entry))
	}
	f.addSig(e, -1)
	subs := e.subs
	*e = Entry{subs: subs[:0]}
	f.free++
	f.nvalid--
	f.gen++
	return subs
}

// Reissue re-keys entry i to a fresh packet ID after its response came
// back poisoned: the entry stays allocated with its subentries intact,
// and the retransmitted packet's response routes back to it. Returns
// the entry's updated re-issue count.
func (f *File) Reissue(entry int, pktID uint64) int {
	e := &f.entries[entry]
	if !e.valid {
		panic(fmt.Sprintf("mshr: re-issuing invalid entry %d", entry))
	}
	e.pktID = pktID
	e.reissues++
	f.Reissues++
	f.gen++
	return e.reissues
}

// FindByPacket returns the entry holding the given dispatched packet ID.
func (f *File) FindByPacket(pktID uint64) (entry int, ok bool) {
	for i := range f.entries {
		if f.entries[i].valid && f.entries[i].pktID == pktID {
			return i, true
		}
	}
	return 0, false
}
