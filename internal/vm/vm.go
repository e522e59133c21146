// Package vm provides a minimal virtual-memory substrate: per-process
// address spaces that map 4KB virtual pages onto pseudo-randomly scattered
// physical frames, the way long-running consolidated systems fragment
// their physical memory. The paper's introduction names exactly this
// effect ("increased system consolidation through memory virtualization
// further exacerbates these performance degradations") and PAC's
// page-granular design is what makes coalescing robust to it: adjacency
// *within* a page survives translation even though page-to-page
// contiguity does not.
//
// Frames are assigned deterministically from (seed, process, virtual page
// number) with open addressing, so simulations stay reproducible.
package vm

import "github.com/pacsim/pac/internal/mem"

// AddressSpace is one process's page table. Frames are allocated lazily
// on first touch.
type AddressSpace struct {
	proc   int
	seed   uint64
	frames uint64            // size of the physical frame pool
	base   uint64            // first frame of this process's pool
	table  map[uint64]uint64 // vpn -> pfn
	used   map[uint64]bool   // pfn in use
}

// New creates an address space for a process. poolFrames bounds the
// number of distinct physical frames the process may occupy; each process
// draws from a disjoint frame pool so processes never share page frames
// (the property behind the paper's Figure 6b).
func New(proc int, seed uint64, poolFrames uint64) *AddressSpace {
	if poolFrames == 0 {
		poolFrames = 1 << 22 // 16GB worth of 4KB frames
	}
	return &AddressSpace{
		proc:   proc,
		seed:   seed,
		frames: poolFrames,
		base:   (uint64(proc) + 1) * poolFrames,
		table:  make(map[uint64]uint64),
		used:   make(map[uint64]bool),
	}
}

// mix is a 64-bit finalizer (splitmix64-style).
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Translate maps a virtual address to its physical address, allocating a
// frame on first touch. Page offsets are preserved, so block adjacency
// within a page survives translation.
func (a *AddressSpace) Translate(va uint64) uint64 {
	vpn := mem.PPN(va)
	pfn, ok := a.table[vpn]
	if !ok {
		pfn = a.allocate(vpn)
		a.table[vpn] = pfn
	}
	return mem.PageBase(pfn) | mem.PageOff(va)
}

// Lookup is Translate without allocation: it maps va when its page is
// already mapped and reports false, changing nothing, when it is not.
func (a *AddressSpace) Lookup(va uint64) (uint64, bool) {
	pfn, ok := a.table[mem.PPN(va)]
	if !ok {
		return 0, false
	}
	return mem.PageBase(pfn) | mem.PageOff(va), true
}

// allocate picks a deterministic pseudo-random free frame for the page.
func (a *AddressSpace) allocate(vpn uint64) uint64 {
	h := mix(a.seed ^ mix(uint64(a.proc)+1) ^ mix(vpn))
	for probe := uint64(0); ; probe++ {
		pfn := a.base + (h+probe)%a.frames
		if !a.used[pfn] {
			a.used[pfn] = true
			return pfn
		}
	}
}

// Pages returns the number of pages mapped so far.
func (a *AddressSpace) Pages() int { return len(a.table) }
