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
// will satisfy. Entries are positional: Allocate takes the first invalid
// slot, so slot indexes — not just the set of valid entries — are part
// of the file's state.
type Entry struct {
	Valid bool
	// Base is the first cache-block number covered by the entry.
	Base uint64
	// Blocks is the span in cache blocks (1 for the standard file,
	// 1..4 for adaptive entries backing coalesced HMC requests).
	Blocks int
	// Op is the OP bit: loads and stores are never merged (§3.1.3).
	Op mem.Op
	// PktID is the coalesced packet ID dispatched for this entry, used
	// to route the memory response back.
	PktID uint64
	// Reissues counts how many times the entry's request was re-sent
	// after a poisoned response.
	Reissues int
	// Subs are the held raw requests.
	Subs []Subentry
}

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

// Stats are the MSHR file's counters.
type Stats struct {
	// Merges counts raw requests absorbed into outstanding entries.
	Merges int64
	// Allocations counts entries allocated (= memory dispatches).
	Allocations int64
	// MergeFails counts merges refused for full subentry lists.
	MergeFails int64
	// Comparisons counts entry comparisons during lookups.
	Comparisons int64
	// Reissues counts entries re-keyed after poisoned responses.
	Reissues int64
}

// FileState is the mutable state of an MSHR file: the File runs on it,
// and SaveState/RestoreState copy it whole.
type FileState struct {
	Entries []Entry
	Free    int
	// Gen counts mutations that can change a lookupMerge outcome (entry
	// allocation, release, re-keying, subentry absorption). Callers use
	// it to memoize ProbeMerge results: a probe of the same packet at
	// the same generation must return the same verdict.
	Gen uint64
	// NValid counts valid entries and SigCnt is a counting Bloom filter
	// over every (covered block, op) pair of those entries (incremented
	// on allocate, decremented on release — never rebuilt). A probe
	// whose base block's counter is zero cannot merge anywhere, and the
	// scan it skips would have compared exactly NValid entries — so the
	// fast path returns the same counter deltas as the walk. False
	// positives just fall through to the scan. uint16 cannot saturate:
	// at most Entries*MaxBlocks increments can share one slot.
	NValid int
	SigCnt [64]uint16
	Stats
}

// File is a set of MSHRs.
type File struct {
	cfg Config
	FileState
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
	return &File{cfg: cfg, FileState: FileState{Entries: make([]Entry, cfg.Entries), Free: cfg.Entries}}
}

// Size returns the number of MSHRs.
func (f *File) Size() int { return len(f.Entries) }

// Available returns the number of free MSHRs.
func (f *File) Available() int { return f.Free }

// Full reports whether every MSHR is occupied.
func (f *File) Full() bool { return f.Free == 0 }

// Entry exposes entry i for inspection.
func (f *File) Entry(i int) *Entry { return &f.Entries[i] }

// spanContains reports whether entry e covers every block of [base,
// base+blocks).
func (e *Entry) spanContains(base uint64, blocks int) bool {
	return base >= e.Base && base+uint64(blocks) <= e.Base+uint64(e.Blocks)
}

// sigSlot hashes one (block, op) pair to its filter slot.
func sigSlot(block uint64, op mem.Op) int {
	return int((block ^ uint64(op)<<56) * 0x9e3779b97f4a7c15 >> 58)
}

// addSig registers entry e's covered blocks in the counting filter
// (delta +1) or withdraws them (delta -1).
func (f *File) addSig(e *Entry, delta int) {
	for b := e.Base; b < e.Base+uint64(e.Blocks); b++ {
		f.SigCnt[sigSlot(b, e.Op)] += uint16(delta)
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
	if f.SigCnt[sigSlot(base, pkt.Op)] == 0 {
		// No valid entry covers the packet's base block under this op,
		// so nothing can span-contain it: the walk below would have
		// compared every valid entry and matched none.
		return 0, int64(f.NValid), 0, false
	}
	for i := range f.Entries {
		e := &f.Entries[i]
		if !e.Valid {
			continue
		}
		cmp++
		if e.Op != pkt.Op || !e.spanContains(base, blocks) {
			continue
		}
		if len(e.Subs)+len(pkt.Parents) > f.cfg.MaxSubentries {
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
	e := &f.Entries[i]
	for _, r := range pkt.Parents {
		e.Subs = append(e.Subs, Subentry{
			Req:   r,
			Index: uint8(mem.BlockNumber(r.Addr) - e.Base),
		})
	}
	f.Merges += int64(len(pkt.Parents))
	f.Gen++
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
	if f.Free == 0 {
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
	for i := range f.Entries {
		e := &f.Entries[i]
		if e.Valid {
			continue
		}
		base := mem.BlockNumber(pkt.Addr)
		*e = Entry{
			Valid:  true,
			Base:   base,
			Blocks: blocks,
			Op:     pkt.Op,
			PktID:  pkt.ID,
			Subs:   e.Subs[:0], // recycle the subentry backing array
		}
		for _, r := range pkt.Parents {
			e.Subs = append(e.Subs, Subentry{
				Req:   r,
				Index: uint8(mem.BlockNumber(r.Addr) - base),
			})
		}
		f.Free--
		f.NValid++
		f.addSig(e, 1)
		f.Allocations++
		f.Gen++
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
	e := &f.Entries[entry]
	if !e.Valid {
		panic(fmt.Sprintf("mshr: releasing invalid entry %d", entry))
	}
	f.addSig(e, -1)
	subs := e.Subs
	*e = Entry{Subs: subs[:0]}
	f.Free++
	f.NValid--
	f.Gen++
	return subs
}

// Reissue re-keys entry i to a fresh packet ID after its response came
// back poisoned: the entry stays allocated with its subentries intact,
// and the retransmitted packet's response routes back to it. Returns
// the entry's updated re-issue count.
func (f *File) Reissue(entry int, pktID uint64) int {
	e := &f.Entries[entry]
	if !e.Valid {
		panic(fmt.Sprintf("mshr: re-issuing invalid entry %d", entry))
	}
	e.PktID = pktID
	e.Reissues++
	f.Reissues++
	f.Gen++
	return e.Reissues
}

// FindByPacket returns the entry holding the given dispatched packet ID.
func (f *File) FindByPacket(pktID uint64) (entry int, ok bool) {
	for i := range f.Entries {
		if f.Entries[i].Valid && f.Entries[i].PktID == pktID {
			return i, true
		}
	}
	return 0, false
}
