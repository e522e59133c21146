package server

import (
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/store"
)

// Cache-source values carried in the X-Pac-Cache response header and the
// "cache" field of a simulate result: where the answer came from.
const (
	// CacheMemo: a memory-only store had the result.
	CacheMemo = "memo"
	// CacheDisk: the store, kept in a directory, had it. The answer is
	// the entry's stored bytes.
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

// storeLookup reads the sim key's answer from the store, verifying that
// the stored identity matches the request before trusting it (a
// truncated hash collision must read as a miss, not a wrong answer).
func (s *Server) storeLookup(hash, optsKey, bench string, mode coalesce.Mode) (store.Answer, bool) {
	a, ok := s.store.Answer(hash)
	if !ok {
		return store.Answer{}, false
	}
	if a.OptionsHash != optsKey || a.Benchmark != bench || a.Mode != mode.String() {
		return store.Answer{}, false
	}
	return a, true
}

// storeWrite stores a fresh simulation's result with rendered, its JSON
// rendering, as the entry's answer section; the job committer calls it
// before the job is done. A key already stored (another job of the same
// run wrote it) is left as it is. Write failures are non-fatal: the
// simulation answer is already in hand.
func (s *Server) storeWrite(hash, optsKey, bench string, mode coalesce.Mode, opts experiments.Options, res *sim.Result, rendered []byte) {
	if s.store.Has(hash) {
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
