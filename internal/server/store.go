package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

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
	// CachePeer: a ring peer's store had it; fetched, persisted locally,
	// and seeded.
	CachePeer = "peer"
	// CacheMiss: nobody had it; a fresh simulation ran.
	CacheMiss = "miss"
)

// Fleet cache headers shared between the daemon and the gateway.
const (
	// CacheHeader reports the cache source of a completed simulate
	// response (one of memo|disk|peer|miss). Only synchronous responses
	// (?wait= long enough for the job to finish) carry it; a 202 does
	// not know the source yet.
	CacheHeader = "X-Pac-Cache"
	// PeersHeader carries a comma-separated list of live ring-candidate
	// base URLs, set by the gateway on forwarded simulate requests. On a
	// local store miss the daemon asks these peers via GET
	// /v1/store/{key} before simulating.
	PeersHeader = "X-Pac-Peers"
)

// peerBlobLimit caps a fetched peer entry; anything bigger than this is
// not a plausible simulation result.
const peerBlobLimit = 64 << 20

// storeLookup reads the sim key's answer from the durable store,
// verifying that the stored identity matches the request before trusting
// it (a truncated hash collision or a foreign file must read as a miss,
// not a wrong answer).
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

// peerList merges the statically configured peers with the gateway's
// per-request hints, deduplicated in order.
func peerList(static []string, header string) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(p string) {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" || seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
	}
	for _, p := range static {
		add(p)
	}
	for _, p := range strings.Split(header, ",") {
		add(p)
	}
	return out
}

// peerLookup asks ring peers for the entry on a local store miss: one
// GET /v1/store/{key} per peer, first validated answer wins. The fetched
// envelope goes through store.Verify (checksum, key, identity, and this
// node's own rendering of the result against the answer section), must
// match the request's identity, and is persisted locally — verbatim, or
// rebuilt when Verify rebuilt it — so one node's cold miss becomes
// another's disk hit. Every failure mode falls through to the next peer;
// an empty result means the caller simulates.
func (s *Server) peerLookup(ctx context.Context, peers []string, hash, optsKey, bench string, mode coalesce.Mode) (store.Verified, bool) {
	if s.store == nil || len(peers) == 0 {
		return store.Verified{}, false
	}
	for _, peer := range peers {
		v, ok := s.fetchFromPeer(ctx, peer, hash, optsKey, bench, mode)
		if ok {
			s.peerHits.Inc()
			return v, true
		}
		if ctx.Err() != nil {
			break
		}
	}
	s.peerMisses.Inc()
	return store.Verified{}, false
}

// fetchFromPeer retrieves and verifies one peer's copy of the entry.
func (s *Server) fetchFromPeer(ctx context.Context, peer, hash, optsKey, bench string, mode coalesce.Mode) (store.Verified, bool) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/store/"+hash, nil)
	if err != nil {
		return store.Verified{}, false
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return store.Verified{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return store.Verified{}, false
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, peerBlobLimit+1))
	if err != nil || len(blob) > peerBlobLimit {
		return store.Verified{}, false
	}
	v, err := store.Verify(hash, blob)
	if err != nil {
		return store.Verified{}, false
	}
	if e := v.Entry; e.OptionsHash != optsKey || e.Benchmark != bench || e.Mode != mode.String() {
		return store.Verified{}, false
	}
	// Persist the verified envelope so the next restart (and the next
	// peer asking us) serves it from local disk.
	_ = s.store.PutVerified(v)
	return v, true
}

// handleStoreGet serves GET /v1/store/{key}: the raw entry envelope,
// checksum included, so the fetching peer can verify it independently.
// This is the fleet cache-exchange wire protocol.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no store configured")
		return
	}
	if !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "malformed store key")
		return
	}
	blob, ok := s.store.GetRaw(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no such entry")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(blob)))
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

// warmFromStore seeds the session pool from the durable index at boot,
// most recently used entries first, bounded by the -store-warm budget.
// Entries whose identity does not check out (foreign options hash, key
// mismatch, unparseable mode) are skipped silently — warm-up must never
// block a boot.
func (s *Server) warmFromStore(budget int) {
	start := time.Now()
	warmed := 0
	for _, key := range s.store.Keys() {
		if warmed >= budget {
			break
		}
		e, ok := s.store.Peek(key)
		if !ok {
			continue
		}
		mode, ok := coalesce.ParseMode(e.Mode)
		if !ok {
			continue
		}
		sess, optsKey := s.pool.session(e.Options)
		if optsKey != e.OptionsHash || configHash(optsKey, e.Benchmark, mode) != e.Key {
			continue
		}
		if sess.Seed(e.Benchmark, mode, e.Result, nil) {
			warmed++
		}
	}
	// Warming many distinct option sets can push the daemon's base
	// session out of the LRU pool; re-touch it so it stays resident.
	s.pool.session(s.defaultOptions())
	s.reg.Gauge("pac_store_warm_seconds",
		"Wall time the last store warm-up took at boot.").Set(time.Since(start).Seconds())
	s.reg.Counter("pac_store_warmed_total",
		"Sessions memo entries seeded from the store at boot.").Add(float64(warmed))
}
