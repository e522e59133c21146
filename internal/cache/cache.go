// Package cache implements the simulated cache hierarchy in front of the
// coalescer: a private L1 per core and a shared last-level cache (LLC),
// both set-associative with true-LRU replacement and write-back,
// write-allocate policy, matching the paper's Table 1 configuration
// (8-way, 16KB L1, 8MB L2, 64B blocks).
//
// The hierarchy classifies each CPU access and produces the LLC miss
// stream and write-back stream that feed the coalescing network. It is a
// tag-only model: no data is stored, only tags and dirty bits.
package cache

import (
	"fmt"

	"github.com/pacsim/pac/internal/mem"
)

// Config describes one cache level.
type Config struct {
	// Size is the capacity in bytes; must be a multiple of Ways*64.
	Size int
	// Ways is the set associativity.
	Ways int
}

// Each cache line's tag state packs into one uint64 tag word —
// blockNumber<<2 | valid<<1 | dirty — and the ways of a set are kept in
// MRU order (most recently used first). Ordering the array by recency
// makes explicit LRU stamps redundant: the victim is the last valid way.
// The choice is byte-identical to stamp-based true LRU, because stamps
// were unique within a set (one access, one stamp), so "smallest stamp"
// and "least recently touched" name the same line. An 8-way set is then
// 64 bytes — one host cache line — and the common hit-at-MRU case exits
// after a single compare.
const (
	tagValid = 1 << 1
	tagDirty = 1 << 0
)

// CacheState is the mutable state of one Cache: the raw tag words (which
// encode residency, dirty bits and the MRU ordering of every set) plus
// the counters. Geometry is not part of it — a restore target must
// already be built with the same Config.
type CacheState struct {
	// Tags holds sets*ways tag words, set-major, MRU-first per set.
	Tags                     []uint64
	Hits, Misses, WriteBacks int64
}

// Cache is a single set-associative, write-back, write-allocate cache.
type Cache struct {
	sets    int
	ways    int
	setMask uint64 // sets-1; the set count is a power of two
	CacheState
}

// New constructs a cache. It panics on a degenerate geometry, since that
// is a programming error in the simulator configuration.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	lines := cfg.Size / mem.BlockSize
	if lines%cfg.Ways != 0 || lines/cfg.Ways == 0 {
		panic(fmt.Sprintf("cache: size %d not divisible into %d ways", cfg.Size, cfg.Ways))
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	return &Cache{
		sets:       sets,
		ways:       cfg.Ways,
		setMask:    uint64(sets - 1),
		CacheState: CacheState{Tags: make([]uint64, sets*cfg.Ways)},
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Eviction describes a dirty line displaced by an allocation.
type Eviction struct {
	// Addr is the block-aligned address of the displaced line.
	Addr uint64
	// Dirty reports whether the line must be written back.
	Dirty bool
	// Valid reports whether any line was displaced at all.
	Valid bool
}

// Access performs a read or write of the block containing addr. On a miss
// the block is allocated (write-allocate) and the displaced line, if any,
// is returned. fetch=false allocates without counting a miss-fill (used
// for full-line write-backs arriving from an upper level, which need no
// memory read).
func (c *Cache) Access(addr uint64, write bool) (hit bool, ev Eviction) {
	blk := mem.BlockNumber(addr)
	base := int(blk&c.setMask) * c.ways
	ws := c.Tags[base : base+c.ways] // one slice header: bounds-checked once
	key := blk<<2 | tagValid

	// Lookup: compare ignoring the dirty bit.
	for w := range ws {
		if ws[w]&^uint64(tagDirty) == key {
			c.Hits++
			tw := ws[w]
			if write {
				tw |= tagDirty
			}
			copy(ws[1:w+1], ws[:w]) // move to front
			ws[0] = tw
			return true, Eviction{}
		}
	}
	c.Misses++

	// Allocate: prefer an invalid way, else the LRU (last) way. Valid
	// ways form a prefix — fills grow the prefix and hits permute it —
	// so the first invalid way is where the prefix ends.
	w := c.ways - 1
	for i := range ws {
		if ws[i]&tagValid == 0 {
			w = i
			break
		}
	}
	if tw := ws[w]; tw&tagValid != 0 {
		ev = Eviction{
			Addr:  tw >> 2 << mem.BlockShift,
			Dirty: tw&tagDirty != 0,
			Valid: true,
		}
		if ev.Dirty {
			c.WriteBacks++
		}
	}
	copy(ws[1:w+1], ws[:w])
	if write {
		key |= tagDirty
	}
	ws[0] = key
	return false, ev
}

// Contains reports whether the block holding addr is currently resident.
// It does not perturb LRU state; intended for tests and invariant checks.
func (c *Cache) Contains(addr uint64) bool {
	blk := mem.BlockNumber(addr)
	base := int(blk&c.setMask) * c.ways
	ws := c.Tags[base : base+c.ways]
	key := blk<<2 | tagValid
	for w := range ws {
		if ws[w]&^uint64(tagDirty) == key {
			return true
		}
	}
	return false
}

// Flush invalidates every line and returns the number of dirty lines that
// would have been written back.
func (c *Cache) Flush() (dirty int) {
	for i, tw := range c.Tags {
		if tw&tagValid != 0 && tw&tagDirty != 0 {
			dirty++
		}
		c.Tags[i] = 0
	}
	return dirty
}
