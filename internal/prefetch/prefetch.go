// Package prefetch implements a per-core stride prefetcher sitting at the
// last-level cache, the conventional companion of the coalescing layer:
// the paper (§4.2) points out that "stream or stride prefetchers issue
// requests with the granularity of cache lines (64B)" and that PAC
// "can coalesce not only raw requests but also the prefetch requests",
// lowering prefetch bandwidth overhead on 3D-stacked memory.
//
// The detector is the classic reference-prediction scheme: per core it
// tracks the last miss block and the current stride (in blocks); when the
// same stride repeats Threshold times, it emits Degree prefetch candidates
// ahead of the miss.
package prefetch

import "github.com/pacsim/pac/internal/engine"

// Config parameterises the prefetcher.
type Config struct {
	// Enabled turns the prefetcher on.
	Enabled bool
	// Degree is how many blocks ahead are prefetched once a stream is
	// confirmed.
	Degree int
	// Threshold is how many consecutive same-stride misses confirm a
	// stream.
	Threshold int
	// MaxStride bounds detected strides in blocks; larger jumps fall
	// outside every tracked stream.
	MaxStride int64
	// Streams is the per-core stream-table size.
	Streams int
}

// DefaultConfig returns a conservative next-line/stride prefetcher.
func DefaultConfig() Config {
	return Config{Enabled: true, Degree: 3, Threshold: 2, MaxStride: 4, Streams: 12}
}

// streamEntry is one tracked miss stream of one core. Real benchmarks
// interleave several concurrent streams (STREAM's three arrays, SP's five
// solution arrays), so each core gets a small table of entries matched by
// block proximity — the classic reference-prediction table.
type streamEntry struct {
	lastBlock  uint64
	stride     int64
	confidence int
	lru        uint64
	valid      bool
}

// Prefetcher detects per-core strided miss streams.
type Prefetcher struct {
	cfg    Config
	tables [][]streamEntry // [core][entry]
	clock  uint64
	outBuf []uint64 // backs Observe's result, reused per call
	// Issued counts prefetch candidates emitted.
	Issued int64
}

// sameSign reports whether two non-zero strides point the same way.
func sameSign(a, b int64) bool { return (a > 0) == (b > 0) && b != 0 }

// New builds a prefetcher for the given core count.
func New(cfg Config, cores int) *Prefetcher {
	if cfg.Degree <= 0 {
		cfg.Degree = 3
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 2
	}
	if cfg.MaxStride <= 0 {
		cfg.MaxStride = 4
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 12
	}
	p := &Prefetcher{
		cfg:    cfg,
		tables: make([][]streamEntry, cores),
		outBuf: make([]uint64, 0, cfg.Degree),
	}
	for i := range p.tables {
		p.tables[i] = make([]streamEntry, cfg.Streams)
	}
	return p
}

// NextWake implements the engine.Clocked contract: the prefetcher is
// purely reactive — it observes misses and emits candidates synchronously
// inside the issuing core's access, and its congestion throttle (the
// driver's PrefetchThrottle check against device occupancy) is
// re-evaluated at those same points — so it never schedules work of its
// own and can never delay an event-kernel skip.
func (p *Prefetcher) NextWake(now int64) int64 { return engine.Never }

// Observe records a demand miss on the given block number by a core and
// returns the block numbers to prefetch (possibly none). The returned
// slice is reused by the next Observe call, so the caller must consume it
// first. The caller is responsible for filtering out blocks already
// cached or in flight.
func (p *Prefetcher) Observe(core int, block uint64) []uint64 {
	if !p.cfg.Enabled {
		return nil
	}
	p.clock++
	table := p.tables[core]

	// Find the stream this miss belongs to: the entry whose last block
	// is within MaxStride of it.
	match := -1
	victim := 0
	for i := range table {
		e := &table[i]
		if !e.valid {
			victim = i
			continue
		}
		d := int64(block) - int64(e.lastBlock)
		if d >= -p.cfg.MaxStride && d <= p.cfg.MaxStride {
			match = i
			break
		}
		if table[victim].valid && e.lru < table[victim].lru {
			victim = i
		}
	}

	if match < 0 {
		table[victim] = streamEntry{lastBlock: block, lru: p.clock, valid: true}
		return nil
	}

	e := &table[match]
	e.lru = p.clock
	stride := int64(block) - int64(e.lastBlock)
	e.lastBlock = block
	if stride == 0 {
		return nil // same block: no direction information
	}
	switch {
	case stride == e.stride:
		e.confidence++
	case e.confidence >= p.cfg.Threshold && sameSign(stride, e.stride):
		// Confirmed stream jumping over prefetched blocks (the
		// demand stream hits what we fetched and next misses a few
		// blocks ahead): still the same stream. Keep the base
		// stride and keep streaming.
		e.confidence++
	default:
		e.stride = stride
		e.confidence = 1
	}
	if e.confidence < p.cfg.Threshold {
		return nil
	}
	step := e.stride
	out := p.outBuf[:0]
	next := int64(block)
	for i := 0; i < p.cfg.Degree; i++ {
		next += step
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	p.Issued += int64(len(out))
	p.outBuf = out
	return out
}
