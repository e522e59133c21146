// Package store is the durable, content-addressed result store beneath
// the pacd session memo. Completed simulation results are serialized as
// write-once entry files keyed by the canonical options-hash + sim-key
// address (server.SimKey), committed crash-safely via temp-file + rename,
// and tracked by an append-only index journal that is replayed and
// compacted on boot. Identical configurations resolve to identical,
// durably stored results — the property that lets a restarted daemon (or
// a cold fleet peer) answer repeat requests from disk instead of
// re-simulating.
//
// Layout inside the store directory:
//
//	<key>.res      one write-once entry envelope; committed by rename,
//	               never rewritten in place
//	index.journal  append-only records ("put", "touch", "del"), each line
//	               CRC-guarded; replayed on Open to rebuild the index and
//	               the LRU order, then compacted to one "put" per live
//	               entry
//
// An envelope is a header (magic, version, key, payload length, payload
// SHA-256) and the checksummed payload. A version-2 payload is
//
//	u16 len | options hash | u16 len | benchmark | u16 len | mode
//	u32 len | answer: the compact JSON of the result
//	gob Entry
//
// so a hit is answered by Answer (read, verify the checksum, return the
// stored bytes) without decoding the gob. DecodeEntry still decodes the
// whole entry and checks the identity section against it. Version-1
// payloads (the gob Entry alone) stay readable; their answer is rendered
// from the decoded result. Envelopes from outside this node's write path
// — ring peers, PutRaw, orphan files — go through Verify, which keeps
// one verbatim only when its answer section equals this node's own
// rendering of its result, and rebuilds it otherwise.
//
// Corrupt or truncated entries and journal lines are detected by
// checksum, counted in pac_store_corrupt_total, and skipped — never
// fatal. A crash between an entry rename and its journal append is
// recovered on the next Open: orphan entry files that pass Verify are
// adopted back into the index.
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
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/telemetry"
)

// Entry is one stored simulation result with the identity needed to
// verify and re-seed it: the content address it lives under, the
// canonical options hash plus benchmark/mode it answers, and the full
// normalized options a warm-booting daemon rebuilds the session from.
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
	// under, sufficient to reconstruct the owning session at warm boot.
	Options experiments.Options
	// Result is the completed simulation result, fault stats and
	// skipped-cycle bookkeeping included.
	Result *sim.Result
}

// Config parameterises Open. Dir is required.
type Config struct {
	// Dir is the store directory; created if missing.
	Dir string
	// MaxBytes caps the summed entry-file size; the least recently used
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

// ErrCorrupt marks an envelope or journal record that failed validation;
// callers treat it as a miss, never as a fatal condition.
var ErrCorrupt = errors.New("store: corrupt entry")

// Envelope constants: an 8-byte magic, a version, the key, the payload
// length, the payload's SHA-256, then the payload (see the package
// comment for the two versions' payloads).
const (
	magic      = "PACSTOR1"
	versionV1  = 1
	version    = 2
	journal    = "index.journal"
	entryExt   = ".res"
	maxKeyLen  = 256
	maxPayload = 1 << 30 // decode guard against absurd length fields
)

// idxEntry is the in-memory index record of one stored entry.
type idxEntry struct {
	key  string
	size int64
	seq  int64 // LRU recency: larger = more recently used
}

// Store is the durable result store; build with Open, close with Close.
type Store struct {
	cfg Config
	dir string

	mu      sync.Mutex
	entries map[string]*idxEntry
	bytes   int64
	seq     int64
	jf      *os.File // append handle on the index journal
	records int      // journal records since the last compaction
	closed  bool

	hits      *telemetry.Counter
	misses    *telemetry.Counter
	writes    *telemetry.Counter
	evictions *telemetry.Counter
	corrupt   *telemetry.Counter
}

// Open creates or reopens the store at cfg.Dir: it replays the index
// journal (skipping corrupt or truncated lines), reconciles the index
// against the entry files actually on disk — dropping index records
// whose file vanished and adopting valid orphan files left by a crash
// between rename and journal append — then compacts the journal to one
// record per live entry and enforces the size caps.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("store: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		cfg:     cfg,
		dir:     cfg.Dir,
		entries: make(map[string]*idxEntry),
	}
	reg := cfg.Registry
	s.hits = reg.Counter("pac_store_hits_total", "Result-store reads served from disk.")
	s.misses = reg.Counter("pac_store_misses_total", "Result-store reads that found no usable entry.")
	s.writes = reg.Counter("pac_store_writes_total", "Result-store entries committed to disk.")
	s.evictions = reg.Counter("pac_store_evictions_total", "Result-store entries evicted by the size caps.")
	s.corrupt = reg.Counter("pac_store_corrupt_total", "Corrupt or truncated store entries and journal lines skipped.")
	reg.GaugeFunc("pac_store_bytes", "Summed size of the stored entry files.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.bytes)
	})
	reg.GaugeFunc("pac_store_entries", "Entries resident in the result store.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.entries))
	})

	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	if err := s.reconcile(); err != nil {
		return nil, err
	}
	if err := s.compactLocked(); err != nil {
		return nil, err
	}
	s.evictLocked()
	return s, nil
}

// journalPath returns the live journal's path.
func (s *Store) journalPath() string { return filepath.Join(s.dir, journal) }

// entryPath returns the entry file path for a key. Keys are hex strings
// (content addresses); anything else is rejected before it reaches the
// filesystem.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key+entryExt)
}

// ValidKey reports whether key is a plausible content address: non-empty
// lowercase hex, bounded length. It is the only key shape the store (and
// the /v1/store/{key} endpoint) accepts, which keeps keys path-safe.
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

// replayJournal rebuilds the index from the append-only journal,
// skipping malformed or CRC-failing lines (a torn final line after a
// crash is the common case).
func (s *Store) replayJournal() error {
	blob, err := os.ReadFile(s.journalPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: reading journal: %w", err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if line == "" {
			continue
		}
		op, key, size, ok := parseRecord(line)
		if !ok {
			s.corrupt.Inc()
			continue
		}
		s.seq++
		switch op {
		case "put":
			if e, exists := s.entries[key]; exists {
				s.bytes += size - e.size
				e.size = size
				e.seq = s.seq
			} else {
				s.entries[key] = &idxEntry{key: key, size: size, seq: s.seq}
				s.bytes += size
			}
		case "touch":
			if e, exists := s.entries[key]; exists {
				e.seq = s.seq
			}
		case "del":
			if e, exists := s.entries[key]; exists {
				s.bytes -= e.size
				delete(s.entries, key)
			}
		}
	}
	return nil
}

// reconcile walks the store directory: index records whose entry file is
// gone are dropped; entry files the journal never committed (a crash
// between rename and append) are validated and adopted; stray temp files
// are removed.
func (s *Store) reconcile() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	onDisk := make(map[string]int64)
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			os.Remove(filepath.Join(s.dir, name)) // staged write that never committed
		case strings.HasSuffix(name, entryExt):
			key := strings.TrimSuffix(name, entryExt)
			if !ValidKey(key) {
				continue
			}
			if info, err := de.Info(); err == nil {
				onDisk[key] = info.Size()
			}
		}
	}
	for key, e := range s.entries {
		size, exists := onDisk[key]
		if !exists {
			s.bytes -= e.size
			delete(s.entries, key)
			continue
		}
		if size != e.size { // rewritten after the journal record; trust disk
			s.bytes += size - e.size
			e.size = size
		}
	}
	for key, size := range onDisk {
		if _, exists := s.entries[key]; exists {
			continue
		}
		// Orphan: verify before adopting, as any envelope from outside the
		// write path; delete when corrupt, rewrite when Verify rebuilt it.
		blob, err := os.ReadFile(s.entryPath(key))
		if err != nil {
			continue
		}
		v, err := Verify(key, blob)
		if err != nil {
			s.corrupt.Inc()
			os.Remove(s.entryPath(key))
			continue
		}
		if v.Rebuilt {
			if err := s.writeEntryFile(key, v.blob); err != nil {
				continue
			}
			size = int64(len(v.blob))
		}
		s.seq++
		s.entries[key] = &idxEntry{key: key, size: size, seq: s.seq}
		s.bytes += size
	}
	return nil
}

// ---------------------------------------------------------------------
// Journal records. One line per operation:
//
//	<op> <key> <size>#<crc32-hex>\n
//
// The CRC covers everything before the '#'. A line that fails to parse
// or verify is skipped on replay.

func formatRecord(op, key string, size int64) string {
	body := op + " " + key + " " + strconv.FormatInt(size, 10)
	return body + "#" + strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(body))), 16) + "\n"
}

func parseRecord(line string) (op, key string, size int64, ok bool) {
	hash := strings.LastIndexByte(line, '#')
	if hash < 0 {
		return "", "", 0, false
	}
	body, sum := line[:hash], line[hash+1:]
	want, err := strconv.ParseUint(sum, 16, 32)
	if err != nil || crc32.ChecksumIEEE([]byte(body)) != uint32(want) {
		return "", "", 0, false
	}
	fields := strings.Fields(body)
	if len(fields) != 3 || !ValidKey(fields[1]) {
		return "", "", 0, false
	}
	size, err = strconv.ParseInt(fields[2], 10, 64)
	if err != nil || size < 0 {
		return "", "", 0, false
	}
	switch fields[0] {
	case "put", "touch", "del":
		return fields[0], fields[1], size, true
	}
	return "", "", 0, false
}

// appendRecord writes one journal record through the append handle,
// opening it lazily. Called with s.mu held.
func (s *Store) appendRecordLocked(op, key string, size int64) error {
	if s.jf == nil {
		f, err := os.OpenFile(s.journalPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("store: opening journal: %w", err)
		}
		s.jf = f
	}
	if _, err := s.jf.WriteString(formatRecord(op, key, size)); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	s.records++
	// Access churn grows the journal without bound; fold it back into
	// one record per live entry once it clearly dominates.
	if s.records > 4*len(s.entries)+1024 {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal as one "put" per live entry in LRU
// order (oldest first, so replay reproduces the recency order), fsyncs
// it, and atomically replaces the old journal. Called with s.mu held (or
// from Open before the store is shared).
func (s *Store) compactLocked() error {
	ordered := make([]*idxEntry, 0, len(s.entries))
	for _, e := range s.entries {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })

	tmp := s.journalPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compacting journal: %w", err)
	}
	var buf bytes.Buffer
	for _, e := range ordered {
		buf.WriteString(formatRecord("put", e.key, e.size))
	}
	if _, err := f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compacting journal: %w", err)
	}
	if err := os.Rename(tmp, s.journalPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compacting journal: %w", err)
	}
	// Replace the append handle: the old one points at the unlinked file.
	if s.jf != nil {
		s.jf.Close()
		s.jf = nil
	}
	s.records = len(ordered)
	return nil
}

// ---------------------------------------------------------------------
// Envelope encode/decode.

// Answer is the served form of one entry: the identity it answers and
// the compact JSON rendering of its result — the bytes a simulate reply
// embeds as its "result", verbatim.
type Answer struct {
	OptionsHash string
	Benchmark   string
	Mode        string
	JSON        []byte
}

// envelope is an entry file whose header and checksum verified, split
// into its sections.
type envelope struct {
	version uint16
	key     string
	// answer holds the identity and answer sections (version 2 only).
	answer Answer
	// entry is the gob-encoded Entry.
	entry []byte
}

// EncodeEntry serializes an entry into its version-2 envelope, rendering
// the answer section from e.Result.
func EncodeEntry(e Entry) ([]byte, error) { return encodeEntry(e, nil) }

// encodeEntry builds a version-2 envelope. answer is the rendering of
// e.Result the caller already holds; nil renders it here.
func encodeEntry(e Entry, answer []byte) ([]byte, error) {
	if !ValidKey(e.Key) {
		return nil, fmt.Errorf("store: invalid key %q", e.Key)
	}
	if answer == nil {
		var err error
		if answer, err = json.Marshal(e.Result); err != nil {
			return nil, fmt.Errorf("store: rendering answer: %w", err)
		}
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
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		return nil, fmt.Errorf("store: encoding entry: %w", err)
	}
	return seal(e.Key, version, payload.Bytes()), nil
}

// seal frames a payload: magic, version, key, payload length, payload
// SHA-256, payload.
func seal(key string, v uint16, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(magic)+2+2+len(key)+8+len(sum)+len(payload))
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint16(out, v)
	out = binary.BigEndian.AppendUint16(out, uint16(len(key)))
	out = append(out, key...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// corrupt wraps ErrCorrupt with what failed.
func corrupt(msg string) error { return fmt.Errorf("%w: %s", ErrCorrupt, msg) }

// openEnvelope validates an envelope's header (magic, version, key
// match, length) and checksum, and splits a version-2 payload into its
// sections. It decodes no gob. An empty wantKey skips the key
// comparison.
func openEnvelope(wantKey string, blob []byte) (envelope, error) {
	if len(blob) < len(magic)+2+2 {
		return envelope{}, corrupt("short header")
	}
	if string(blob[:len(magic)]) != magic {
		return envelope{}, corrupt("bad magic")
	}
	blob = blob[len(magic):]
	v := binary.BigEndian.Uint16(blob)
	if v != versionV1 && v != version {
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
	env := envelope{version: v, key: key, entry: blob}
	if v == versionV1 {
		return env, nil
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
	env.answer = Answer{OptionsHash: fields[0], Benchmark: fields[1], Mode: fields[2], JSON: blob[:n:n]}
	env.entry = blob[n:]
	return env, nil
}

// decode gob-decodes the envelope's entry and checks it against the
// envelope: the same key and, for version 2, the same identity as the
// identity section.
func (env envelope) decode() (Entry, error) {
	var e Entry
	if err := gob.NewDecoder(bytes.NewReader(env.entry)).Decode(&e); err != nil {
		return Entry{}, corrupt("payload decode: " + err.Error())
	}
	if e.Key != env.key {
		return Entry{}, corrupt("payload/envelope key mismatch")
	}
	if a := env.answer; env.version == version &&
		(a.OptionsHash != e.OptionsHash || a.Benchmark != e.Benchmark || a.Mode != e.Mode) {
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

// decodeAnswer validates an envelope and returns its answer — the hit
// path's read. A version-2 envelope is verified by its checksum alone and
// its identity and answer sections returned as stored, with no gob
// decode; the returned JSON aliases blob. A version-1 envelope is decoded
// in full and its answer rendered from the result.
func decodeAnswer(wantKey string, blob []byte) (Answer, error) {
	env, err := openEnvelope(wantKey, blob)
	if err != nil {
		return Answer{}, err
	}
	if env.version == version {
		return env.answer, nil
	}
	e, err := env.decode()
	if err != nil {
		return Answer{}, err
	}
	js, err := json.Marshal(e.Result)
	if err != nil {
		return Answer{}, fmt.Errorf("store: rendering answer: %w", err)
	}
	return Answer{OptionsHash: e.OptionsHash, Benchmark: e.Benchmark, Mode: e.Mode, JSON: js}, nil
}

// Verified is an envelope that passed Verify; Store.PutVerified commits
// it.
type Verified struct {
	Entry Entry
	// Answer is this node's own rendering of Entry.Result.
	Answer []byte
	// Rebuilt reports that the verified envelope is not kept as it came:
	// it was not version 2, or its answer section differed from Answer,
	// so the envelope to store was re-encoded from Entry.
	Rebuilt bool
	blob    []byte
}

// Verify validates an envelope that came from outside this node's write
// path: a ring peer's, a PutRaw caller's, or an orphan file found at
// Open. On top of DecodeEntry's checks it renders the decoded result
// itself. The envelope is kept verbatim only when it is version 2 and its
// answer section equals that rendering; otherwise it is rebuilt from the
// decoded entry. A checksum is not a signature, so a peer can never plant
// answer bytes that this node then serves as its own.
func Verify(wantKey string, blob []byte) (Verified, error) {
	env, err := openEnvelope(wantKey, blob)
	if err != nil {
		return Verified{}, err
	}
	e, err := env.decode()
	if err != nil {
		return Verified{}, err
	}
	js, err := json.Marshal(e.Result)
	if err != nil {
		return Verified{}, fmt.Errorf("store: rendering answer: %w", err)
	}
	v := Verified{Entry: e, Answer: js, blob: blob}
	if env.version != version || !bytes.Equal(env.answer.JSON, js) {
		if v.blob, err = encodeEntry(e, js); err != nil {
			return Verified{}, err
		}
		v.Rebuilt = true
	}
	return v, nil
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
func (s *Store) PutAnswer(e Entry, answer []byte) error {
	blob, err := encodeEntry(e, answer)
	if err != nil {
		return err
	}
	return s.commit(e.Key, blob)
}

// PutRaw commits an envelope that came from elsewhere (the peer-exchange
// path). It goes through Verify first, so a corrupt blob never enters the
// store and an answer section that disagrees with the envelope's own
// result is never kept.
func (s *Store) PutRaw(key string, blob []byte) error {
	v, err := Verify(key, blob)
	if err != nil {
		return err
	}
	return s.PutVerified(v)
}

// PutVerified commits the envelope Verify chose to keep.
func (s *Store) PutVerified(v Verified) error {
	if v.blob == nil {
		return errors.New("store: envelope was not verified")
	}
	return s.commit(v.Entry.Key, v.blob)
}

// commit durably writes a validated envelope and indexes it.
func (s *Store) commit(key string, blob []byte) error {
	if err := s.writeEntryFile(key, blob); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	size := int64(len(blob))
	s.seq++
	if e, exists := s.entries[key]; exists {
		s.bytes += size - e.size
		e.size = size
		e.seq = s.seq
	} else {
		s.entries[key] = &idxEntry{key: key, size: size, seq: s.seq}
		s.bytes += size
	}
	s.writes.Inc()
	if err := s.appendRecordLocked("put", key, size); err != nil {
		return err
	}
	s.evictLocked()
	return nil
}

// writeEntryFile stages blob in a temp file, fsyncs it and renames it
// over the key's entry file. The rename is the commit point; a crash
// before it leaves only a .tmp- file that the next Open sweeps away.
func (s *Store) writeEntryFile(key string, blob []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	s.seq++
	staged := filepath.Join(s.dir, fmt.Sprintf(".tmp-%s-%d", key, s.seq))
	s.mu.Unlock()

	f, err := os.OpenFile(staged, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: staging entry: %w", err)
	}
	if _, err = f.Write(blob); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(staged)
		return fmt.Errorf("store: staging entry: %w", err)
	}
	if err := os.Rename(staged, s.entryPath(key)); err != nil {
		os.Remove(staged)
		return fmt.Errorf("store: committing entry: %w", err)
	}
	return nil
}

// Get loads and fully decodes the entry for key. A corrupt file is
// counted, removed, and reported as a miss — never an error. A hit
// refreshes the key's LRU recency.
func (s *Store) Get(key string) (Entry, bool) {
	blob, ok := s.getRaw(key)
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

// Answer loads the entry for key as its answer (decodeAnswer): for a
// version-2 file, a read and a checksum, nothing decoded. It counts and
// refreshes recency exactly as Get does. The JSON is copied out of the
// file buffer, so a caller that keeps it (a finished job does) does not
// keep the whole envelope alive.
func (s *Store) Answer(key string) (Answer, bool) {
	blob, ok := s.getRaw(key)
	if !ok {
		return Answer{}, false
	}
	a, err := decodeAnswer(key, blob)
	if errors.Is(err, ErrCorrupt) {
		s.discardCorrupt(key)
	}
	if err != nil {
		return Answer{}, false
	}
	a.JSON = bytes.Clone(a.JSON)
	return a, true
}

// GetRaw returns the raw envelope bytes for key after the same
// checksum-only verification Answer does — the peer-exchange serving path
// (GET /v1/store/{key} streams these bytes verbatim, checksum included,
// so the fetching node can re-verify them).
func (s *Store) GetRaw(key string) ([]byte, bool) {
	blob, ok := s.getRaw(key)
	if !ok {
		return nil, false
	}
	if _, err := openEnvelope(key, blob); err != nil {
		s.discardCorrupt(key)
		return nil, false
	}
	return blob, true
}

// getRaw reads the entry bytes and refreshes LRU recency; the caller
// validates the envelope.
func (s *Store) getRaw(key string) ([]byte, bool) {
	if !ValidKey(key) {
		s.misses.Inc()
		return nil, false
	}
	s.mu.Lock()
	_, exists := s.entries[key]
	s.mu.Unlock()
	if !exists {
		s.misses.Inc()
		return nil, false
	}
	// Read outside the lock: the file is immutable once renamed into
	// place, and an eviction racing this read simply yields a miss.
	blob, err := os.ReadFile(s.entryPath(key))
	if err != nil {
		s.misses.Inc()
		return nil, false
	}
	s.mu.Lock()
	if e, still := s.entries[key]; still {
		s.seq++
		e.seq = s.seq
		s.appendRecordLocked("touch", key, e.size)
	}
	s.mu.Unlock()
	s.hits.Inc()
	return blob, true
}

// discardCorrupt counts and removes a failed entry so it cannot poison
// later reads.
func (s *Store) discardCorrupt(key string) {
	s.corrupt.Inc()
	s.misses.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, exists := s.entries[key]; exists {
		s.bytes -= e.size
		delete(s.entries, key)
		os.Remove(s.entryPath(key))
		s.appendRecordLocked("del", key, 0)
	}
}

// Peek loads and validates the entry for key without counting hit/miss
// metrics or refreshing LRU recency — the warm-boot read path, which
// must not masquerade as serving traffic. Corrupt entries are still
// counted and discarded.
func (s *Store) Peek(key string) (Entry, bool) {
	if !ValidKey(key) {
		return Entry{}, false
	}
	s.mu.Lock()
	_, exists := s.entries[key]
	s.mu.Unlock()
	if !exists {
		return Entry{}, false
	}
	blob, err := os.ReadFile(s.entryPath(key))
	if err != nil {
		return Entry{}, false
	}
	e, derr := DecodeEntry(key, blob)
	if derr != nil {
		s.discardCorrupt(key)
		return Entry{}, false
	}
	return e, true
}

// Has reports whether key is resident, without touching metrics or LRU
// order.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Keys returns every resident key, most recently used first — the warm
// boot order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ordered := make([]*idxEntry, 0, len(s.entries))
	for _, e := range s.entries {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq > ordered[j].seq })
	keys := make([]string, len(ordered))
	for i, e := range ordered {
		keys[i] = e.key
	}
	return keys
}

// Len returns the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the summed entry-file size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// evictLocked drops least-recently-used entries until both caps hold.
// Called with s.mu held.
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
		s.bytes -= oldest.size
		delete(s.entries, oldest.key)
		os.Remove(s.entryPath(oldest.key))
		s.appendRecordLocked("del", oldest.key, 0)
		s.evictions.Inc()
	}
}

// Flush fsyncs the index journal — the SIGTERM drain path, so a clean
// shutdown leaves a fully durable index (an unclean one merely pays the
// orphan-adoption scan on the next boot).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jf == nil {
		return nil
	}
	if err := s.jf.Sync(); err != nil {
		return fmt.Errorf("store: journal fsync: %w", err)
	}
	return nil
}

// Close compacts and fsyncs the journal and releases the append handle.
// The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.compactLocked()
	if s.jf != nil {
		if cerr := s.jf.Close(); err == nil {
			err = cerr
		}
		s.jf = nil
	}
	return err
}
