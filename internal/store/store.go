// Package store is pacd's result cache: completed simulation results
// keyed by the canonical options-hash + sim-key address (server.SimKey),
// held in memory or as write-once entry files committed crash-safely by
// durable.WriteFile (temp file + fsync + rename). Identical
// configurations resolve to identical stored results — the property
// that lets a daemon answer repeat requests, across restarts when the
// store has a directory, instead of re-simulating.
//
// Open with an empty Dir returns a memory-only store: the same index,
// LRU, caps, counters and Has/Answer/PutAnswer API, each entry holding
// its identity and answer bytes, with no envelope, no gob and no file,
// fsync or scan. It forgets everything at exit.
//
// With a Dir, the directory is the whole index. Inside it:
//
//	<key>.res  one write-once entry envelope; committed by rename, never
//	           rewritten in place
//	.tmp-*     a staged write; swept by the next Open if a crash left it
//
// Open scans the directory: every valid <key>.res is an entry, sized by
// its file, and the LRU order starts as write order (file modification
// time, ties broken by key). Hit recency is kept in memory only and does
// not survive a restart.
//
// An envelope is a header (magic, version, key, payload length, payload
// SHA-256) and the checksummed payload. The payload (version 2) is
//
//	u16 len | options hash | u16 len | benchmark | u16 len | mode
//	u32 len | answer: the JSON rendering of the result
//	gob Entry
//
// so a hit is answered by Answer (read, verify the checksum, return the
// stored bytes) without decoding the gob. DecodeEntry still decodes the
// whole entry and checks the identity section against it. Any other
// version, the retired version 1 (the gob Entry alone) included, reads as
// corrupt.
//
// The store is one trust domain: it serves only envelopes this node's
// write path produced. An entry Put wrote in this process is trusted; an
// entry found at Open is verified on its first Answer (verifyOrphan): it
// must decode and its answer section must be the rendering of its own
// result. Corrupt, truncated or unverifiable entries are counted in
// pac_store_corrupt_total and removed — never fatal; the result is
// recomputed on the next miss.
//
// The store is safe for concurrent use. Entry files are immutable once
// renamed into place, so readers never see torn writes; concurrent
// writers of the same key each stage their own temp file and the last
// rename wins.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/pacsim/pac/internal/durable"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/gobenc"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/telemetry"
)

// Entry is one stored simulation result with the identity needed to
// verify it: the content address it lives under, the canonical options
// hash plus benchmark/mode it answers, and the full normalized options it
// ran under.
type Entry struct {
	// Key is the content address (server.SimKey) the entry is stored
	// under; DecodeEntry verifies it against the envelope header.
	Key string
	// OptionsHash is the canonical hash of Options
	// (server.OptionsHash); readers match it against their own resolved
	// request to guard against key collisions and stale foreign files.
	OptionsHash string
	// Benchmark and Mode name the simulation.
	Benchmark string
	Mode      string
	// Options are the fully-specified normalized options the result ran
	// under.
	Options experiments.Options
	// Result is the completed simulation result, fault stats and
	// skipped-cycle bookkeeping included.
	Result *sim.Result
}

// Config parameterises Open.
type Config struct {
	// Dir is the store directory; created if missing. Empty opens a
	// memory-only store.
	Dir string
	// MaxBytes caps the summed entry size (the entry file, or in memory
	// the answer bytes); the least recently used
	// entries are evicted beyond it (default 1 GiB, negative = no cap).
	MaxBytes int64
	// MaxEntries caps the entry count the same way (default 65536,
	// negative = no cap).
	MaxEntries int
	// Registry receives the pac_store_* metrics; nil creates a fresh
	// (unexposed) one.
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxBytes == 0 {
		c.MaxBytes = 1 << 30
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 1 << 16
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	return c
}

// ErrCorrupt marks an envelope that failed validation; callers treat it
// as a miss, never as a fatal condition.
var ErrCorrupt = errors.New("store: corrupt entry")

// Envelope constants: an 8-byte magic, a version, the key, the payload
// length, the payload's SHA-256, then the payload (see the package
// comment for its sections).
const (
	magic      = "PACSTOR1"
	version    = 2
	entryExt   = ".res"
	maxKeyLen  = 256
	maxPayload = 1 << 30 // decode guard against absurd length fields
)

// idxEntry is the in-memory index record of one stored entry.
type idxEntry struct {
	key  string
	size int64
	seq  int64 // LRU recency: larger = more recently used
	// verified: the file is known to be this node's rendering — Put wrote
	// it in this process, or verifyOrphan accepted it.
	verified bool
	// answer is a memory-only store's entry; with a Dir it lives in the
	// entry file.
	answer Answer
}

// Store is the result store; build with Open, close with Close.
type Store struct {
	cfg Config
	dir string // empty: memory-only
	fs  durable.FS

	mu      sync.Mutex
	entries map[string]*idxEntry
	bytes   int64
	seq     int64
	closed  bool

	hits       *telemetry.Counter
	misses     *telemetry.Counter
	writes     *telemetry.Counter
	writeFails *telemetry.Counter
	evictions  *telemetry.Counter
	corrupt    *telemetry.Counter
}

// Open creates or reopens the store at cfg.Dir. It scans the directory:
// staged temp files a crash left behind are removed, and every valid
// <key>.res file becomes an unverified entry, oldest write least recently
// used. Then it enforces the size caps. An empty Dir opens an empty
// memory-only store.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		dir:     cfg.Dir,
		fs:      durable.OS,
		entries: make(map[string]*idxEntry),
	}
	reg := cfg.Registry
	s.hits = reg.Counter("pac_store_hits_total", "Result-store reads served from the store.")
	s.misses = reg.Counter("pac_store_misses_total", "Result-store reads that found no usable entry.")
	s.writes = reg.Counter("pac_store_writes_total", "Result-store entries committed.")
	s.writeFails = reg.Counter("pac_store_write_failures_total", "Result-store writes that failed (the result is recomputed on a later miss).")
	s.evictions = reg.Counter("pac_store_evictions_total", "Result-store entries evicted by the size caps.")
	s.corrupt = reg.Counter("pac_store_corrupt_total", "Corrupt, truncated or unverifiable store entries discarded.")
	reg.GaugeFunc("pac_store_bytes", "Summed size of the stored entries.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.bytes)
	})
	reg.GaugeFunc("pac_store_entries", "Entries resident in the result store.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.entries))
	})
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	durable.SweepTemps(s.dir, "")
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type found struct {
		key  string
		size int64
		mod  time.Time
	}
	var files []found
	for _, de := range names {
		key, ok := strings.CutSuffix(de.Name(), entryExt)
		if !ok || !ValidKey(key) {
			continue
		}
		if info, err := de.Info(); err == nil {
			files = append(files, found{key, info.Size(), info.ModTime()})
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].key < files[j].key
	})
	for _, f := range files {
		s.seq++
		s.entries[f.key] = &idxEntry{key: f.key, size: f.size, seq: s.seq}
		s.bytes += f.size
	}
	s.evictLocked()
	return s, nil
}

// entryPath returns the entry file path for a key. Keys are hex strings
// (content addresses); anything else is rejected before it reaches the
// filesystem.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key+entryExt)
}

// ValidKey reports whether key is a plausible content address: non-empty
// lowercase hex, bounded length. It is the only key shape the store
// accepts, which keeps keys path-safe.
func ValidKey(key string) bool {
	if key == "" || len(key) > maxKeyLen {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Envelope encode/decode.

// Answer is the served form of one entry: the identity it answers and
// the JSON rendering (json.Marshal) of its result — the bytes a simulate
// reply embeds as its "result", verbatim.
type Answer struct {
	OptionsHash string
	Benchmark   string
	Mode        string
	JSON        []byte
}

// envelope is an entry file whose header and checksum verified, split
// into its sections.
type envelope struct {
	key string
	// answer holds the identity and answer sections.
	answer Answer
	// entry is the gob-encoded Entry.
	entry []byte
}

// EncodeEntry serializes an entry into its envelope, rendering the
// answer section from e.Result.
func EncodeEntry(e Entry) ([]byte, error) { return encodeEntry(e, nil) }

// entryEncoder sends the entry type descriptors once per process; every
// job committer shares it.
var entryEncoder gobenc.Encoder[Entry]

// render checks e's key and returns its answer section: answer, the
// rendering of e.Result the caller already holds, or when nil a fresh
// rendering.
func render(e Entry, answer []byte) ([]byte, error) {
	if !ValidKey(e.Key) {
		return nil, fmt.Errorf("store: invalid key %q", e.Key)
	}
	if answer != nil {
		return answer, nil
	}
	answer, err := json.Marshal(e.Result)
	if err != nil {
		return nil, fmt.Errorf("store: rendering answer: %w", err)
	}
	return answer, nil
}

// encodeEntry builds an envelope around answer (see render).
func encodeEntry(e Entry, answer []byte) ([]byte, error) {
	answer, err := render(e, answer)
	if err != nil {
		return nil, err
	}
	var payload bytes.Buffer
	var u16 [2]byte
	for _, field := range []string{e.OptionsHash, e.Benchmark, e.Mode} {
		if len(field) > math.MaxUint16 {
			return nil, fmt.Errorf("store: identity field of %d bytes", len(field))
		}
		binary.BigEndian.PutUint16(u16[:], uint16(len(field)))
		payload.Write(u16[:])
		payload.WriteString(field)
	}
	if len(answer) > maxPayload {
		return nil, fmt.Errorf("store: answer of %d bytes", len(answer))
	}
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(answer)))
	payload.Write(u32[:])
	payload.Write(answer)
	if err := entryEncoder.Encode(&payload, &e); err != nil {
		return nil, fmt.Errorf("store: encoding entry: %w", err)
	}
	return seal(e.Key, payload.Bytes()), nil
}

// seal frames a payload: magic, version, key, payload length, payload
// SHA-256, payload.
func seal(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(magic)+2+2+len(key)+8+len(sum)+len(payload))
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint16(out, version)
	out = binary.BigEndian.AppendUint16(out, uint16(len(key)))
	out = append(out, key...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// corrupt wraps ErrCorrupt with what failed.
func corrupt(msg string) error { return fmt.Errorf("%w: %s", ErrCorrupt, msg) }

// openEnvelope validates an envelope's header (magic, version, key
// match, length) and checksum, and splits the payload into its sections.
// It decodes no gob. An empty wantKey skips the key comparison.
func openEnvelope(wantKey string, blob []byte) (envelope, error) {
	if len(blob) < len(magic)+2+2 {
		return envelope{}, corrupt("short header")
	}
	if string(blob[:len(magic)]) != magic {
		return envelope{}, corrupt("bad magic")
	}
	blob = blob[len(magic):]
	v := binary.BigEndian.Uint16(blob)
	if v != version {
		return envelope{}, corrupt(fmt.Sprintf("unsupported version %d", v))
	}
	blob = blob[2:]
	keyLen := int(binary.BigEndian.Uint16(blob))
	blob = blob[2:]
	if keyLen > maxKeyLen || len(blob) < keyLen+8+sha256.Size {
		return envelope{}, corrupt("truncated header")
	}
	key := string(blob[:keyLen])
	blob = blob[keyLen:]
	if wantKey != "" && key != wantKey {
		return envelope{}, corrupt(fmt.Sprintf("key mismatch: envelope %s", key))
	}
	payLen := binary.BigEndian.Uint64(blob)
	blob = blob[8:]
	var sum [sha256.Size]byte
	copy(sum[:], blob)
	blob = blob[sha256.Size:]
	if payLen > maxPayload || uint64(len(blob)) != payLen {
		return envelope{}, corrupt("truncated payload")
	}
	if sha256.Sum256(blob) != sum {
		return envelope{}, corrupt("checksum mismatch")
	}
	var fields [3]string
	for i := range fields {
		if len(blob) < 2 {
			return envelope{}, corrupt("truncated identity")
		}
		n := int(binary.BigEndian.Uint16(blob))
		blob = blob[2:]
		if len(blob) < n {
			return envelope{}, corrupt("truncated identity")
		}
		fields[i] = string(blob[:n])
		blob = blob[n:]
	}
	if len(blob) < 4 {
		return envelope{}, corrupt("truncated answer")
	}
	n := uint64(binary.BigEndian.Uint32(blob))
	blob = blob[4:]
	if uint64(len(blob)) < n {
		return envelope{}, corrupt("truncated answer")
	}
	return envelope{
		key:    key,
		answer: Answer{OptionsHash: fields[0], Benchmark: fields[1], Mode: fields[2], JSON: blob[:n:n]},
		entry:  blob[n:],
	}, nil
}

// decode gob-decodes the envelope's entry and checks it against the
// envelope: the same key and the same identity as the identity section.
func (env envelope) decode() (Entry, error) {
	var e Entry
	if err := gob.NewDecoder(bytes.NewReader(env.entry)).Decode(&e); err != nil {
		return Entry{}, corrupt("payload decode: " + err.Error())
	}
	if e.Key != env.key {
		return Entry{}, corrupt("payload/envelope key mismatch")
	}
	if a := env.answer; a.OptionsHash != e.OptionsHash || a.Benchmark != e.Benchmark || a.Mode != e.Mode {
		return Entry{}, corrupt("identity section/payload mismatch")
	}
	return e, nil
}

// DecodeEntry validates an envelope (magic, version, key match, length,
// checksum, identity) and decodes its entry. Every validation failure
// wraps ErrCorrupt. An empty wantKey skips the key comparison.
func DecodeEntry(wantKey string, blob []byte) (Entry, error) {
	env, err := openEnvelope(wantKey, blob)
	if err != nil {
		return Entry{}, err
	}
	return env.decode()
}

// verifyOrphan checks an entry file this process did not write — one
// Open found — before its answer is served: DecodeEntry must accept it,
// and its answer section must be the rendering of its own decoded result.
// A checksum is not a signature, so an envelope whose answer disagrees
// with its result is never served; it is discarded and recomputed on the
// next miss.
func verifyOrphan(key string, blob []byte) error {
	env, err := openEnvelope(key, blob)
	if err != nil {
		return err
	}
	e, err := env.decode()
	if err != nil {
		return err
	}
	js, err := json.Marshal(e.Result)
	if err != nil {
		return corrupt("rendering answer: " + err.Error())
	}
	if !bytes.Equal(env.answer.JSON, js) {
		return corrupt("answer section differs from the result")
	}
	return nil
}

// ---------------------------------------------------------------------
// Public operations.

// Put serializes and durably commits one entry, then enforces the size
// caps. Concurrent Puts of the same key are safe: each stages its own
// temp file and the last rename wins, atomically.
func (s *Store) Put(e Entry) error { return s.PutAnswer(e, nil) }

// PutAnswer is Put with the answer section supplied: answer must be the
// caller's rendering of e.Result (json.Marshal), which the serving path
// already holds, so a result is rendered once; nil renders it here.
// A memory-only store keeps the identity and answer, not e.Result, and
// counts the answer bytes as the entry's size. A failed write is counted
// in pac_store_write_failures_total and leaves the key's earlier entry,
// if any, in place.
func (s *Store) PutAnswer(e Entry, answer []byte) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.writeFails.Inc()
		return errors.New("store: closed")
	}
	var held Answer // a memory-only store's entry
	var size int64
	if s.dir == "" {
		js, err := render(e, answer)
		if err != nil {
			s.writeFails.Inc()
			return err
		}
		held = Answer{OptionsHash: e.OptionsHash, Benchmark: e.Benchmark, Mode: e.Mode, JSON: js}
		size = int64(len(js))
	} else {
		blob, err := encodeEntry(e, answer)
		if err != nil {
			s.writeFails.Inc()
			return err
		}
		if err := durable.WriteFile(s.fs, s.entryPath(e.Key), blob); err != nil {
			s.writeFails.Inc()
			return fmt.Errorf("store: writing entry: %w", err)
		}
		size = int64(len(blob))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	ie, exists := s.entries[e.Key]
	if !exists {
		ie = &idxEntry{key: e.Key}
		s.entries[e.Key] = ie
	}
	s.bytes += size - ie.size
	ie.size, ie.seq, ie.verified, ie.answer = size, s.seq, true, held
	s.writes.Inc()
	s.evictLocked()
	return nil
}

// Get loads and fully decodes the entry for key. A corrupt file is
// counted, removed, and reported as a miss — never an error. A hit
// refreshes the key's LRU recency. A memory-only store keeps no Entry:
// Get reports false and counts nothing.
func (s *Store) Get(key string) (Entry, bool) {
	if s.dir == "" {
		return Entry{}, false
	}
	blob, _, ok := s.readEntry(key)
	if !ok {
		return Entry{}, false
	}
	e, err := DecodeEntry(key, blob)
	if err != nil {
		s.discardCorrupt(key)
		return Entry{}, false
	}
	return e, true
}

// Answer loads the entry for key as its answer: a read and a checksum,
// the identity and answer sections returned as stored, nothing decoded.
// The first Answer of an entry found at Open also runs verifyOrphan. It
// counts, discards corrupt files and refreshes recency exactly as Get
// does. The JSON is copied out of the file buffer, so a caller that keeps
// it (a finished job does) does not keep the whole envelope alive. A
// memory-only store returns the stored answer itself.
func (s *Store) Answer(key string) (Answer, bool) {
	if s.dir == "" {
		s.mu.Lock()
		e, ok := s.entries[key]
		var a Answer
		if ok {
			s.seq++
			e.seq, a = s.seq, e.answer
			s.hits.Inc()
		} else {
			s.misses.Inc()
		}
		s.mu.Unlock()
		return a, ok
	}
	blob, verified, ok := s.readEntry(key)
	if !ok {
		return Answer{}, false
	}
	env, err := openEnvelope(key, blob)
	if err == nil && !verified {
		err = verifyOrphan(key, blob)
	}
	if err != nil {
		s.discardCorrupt(key)
		return Answer{}, false
	}
	if !verified {
		s.mu.Lock()
		if e, exists := s.entries[key]; exists {
			e.verified = true
		}
		s.mu.Unlock()
	}
	a := env.answer
	a.JSON = bytes.Clone(a.JSON)
	return a, true
}

// readEntry refreshes the key's LRU recency and reads its entry bytes,
// reporting whether the entry was verified; the caller validates the
// envelope.
func (s *Store) readEntry(key string) (blob []byte, verified, ok bool) {
	if !ValidKey(key) {
		s.misses.Inc()
		return nil, false, false
	}
	s.mu.Lock()
	e, exists := s.entries[key]
	if exists {
		s.seq++
		e.seq = s.seq
		verified = e.verified
	}
	s.mu.Unlock()
	if !exists {
		s.misses.Inc()
		return nil, false, false
	}
	// Read outside the lock: the file is immutable once renamed into
	// place, and an eviction racing this read simply yields a miss.
	blob, err := os.ReadFile(s.entryPath(key))
	if err != nil {
		s.misses.Inc()
		return nil, false, false
	}
	s.hits.Inc()
	return blob, verified, true
}

// discardCorrupt counts and removes a failed entry so it cannot poison
// later reads.
func (s *Store) discardCorrupt(key string) {
	s.corrupt.Inc()
	s.misses.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, exists := s.entries[key]; exists {
		s.removeLocked(e)
	}
}

// removeLocked drops an entry from the index and deletes its file, if
// any. Called with s.mu held.
func (s *Store) removeLocked(e *idxEntry) {
	s.bytes -= e.size
	delete(s.entries, e.key)
	if s.dir != "" {
		os.Remove(s.entryPath(e.key))
	}
}

// Has reports whether key is resident; it counts nothing and leaves the
// LRU order as it is.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Dir returns the store directory; empty for a memory-only store.
func (s *Store) Dir() string { return s.dir }

// Len returns the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the summed entry size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// evictLocked drops least-recently-used entries until both caps hold.
// Called with s.mu held (or from Open before the store is shared).
func (s *Store) evictLocked() {
	over := func() bool {
		if s.cfg.MaxEntries > 0 && len(s.entries) > s.cfg.MaxEntries {
			return true
		}
		return s.cfg.MaxBytes > 0 && s.bytes > s.cfg.MaxBytes
	}
	for over() && len(s.entries) > 0 {
		var oldest *idxEntry
		for _, e := range s.entries {
			if oldest == nil || e.seq < oldest.seq {
				oldest = e
			}
		}
		s.removeLocked(oldest)
		s.evictions.Inc()
	}
}

// Close marks the store closed; later Puts fail and write nothing. Every
// entry was committed by its rename, so Close writes nothing. It is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
