package server

import (
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/store"
)

// Cache-source values carried in the X-Pac-Cache response header and the
// "cache" field of a simulate result: where the answer came from, in
// decreasing order of cheapness.
const (
	// CacheMemo: the in-memory session memo had the result.
	CacheMemo = "memo"
	// CacheDisk: the local durable store had it. The answer is the
	// entry's stored bytes and the session is not seeded, so a repeat is
	// a disk hit again.
	CacheDisk = "disk"
	// CachePeer names a source the daemon no longer produces: answers
	// fetched from a fleet peer's store. It is kept for readers that
	// still tally it.
	CachePeer = "peer"
	// CacheMiss: nobody had it; a fresh simulation ran.
	CacheMiss = "miss"
)

// CacheHeader reports the cache source of a completed simulate response
// (one of memo|disk|miss). Only synchronous responses (?wait= long
// enough for the job to finish) carry it; a 202 does not know the source
// yet.
const CacheHeader = "X-Pac-Cache"

// storeLookup reads the sim key's answer from the durable store,
// verifying that the stored identity matches the request before trusting
// it (a truncated hash collision must read as a miss, not a wrong
// answer).
func (s *Server) storeLookup(hash, optsKey, bench string, mode coalesce.Mode) (store.Answer, bool) {
	if s.store == nil {
		return store.Answer{}, false
	}
	a, ok := s.store.Answer(hash)
	if !ok {
		return store.Answer{}, false
	}
	if a.OptionsHash != optsKey || a.Benchmark != bench || a.Mode != mode.String() {
		return store.Answer{}, false
	}
	return a, true
}

// storeWrite persists a completed result (write-through) with rendered,
// its JSON rendering, as the entry's answer section. Memo-sourced results
// flow through here too, so a store attached to a warm daemon backfills
// from traffic. Write failures are non-fatal: the simulation answer is
// already in hand.
func (s *Server) storeWrite(hash, optsKey, bench string, mode coalesce.Mode, opts experiments.Options, res *sim.Result, rendered []byte) {
	if s.store == nil || s.store.Has(hash) {
		return
	}
	_ = s.store.PutAnswer(store.Entry{
		Key:         hash,
		OptionsHash: optsKey,
		Benchmark:   bench,
		Mode:        mode.String(),
		Options:     opts,
		Result:      res,
	}, rendered)
}
