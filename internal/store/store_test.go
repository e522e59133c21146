package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/durable/durabletest"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/gobenc"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/stats"
	"github.com/pacsim/pac/internal/telemetry"
)

// testEntry fabricates a small but non-trivial entry: the result carries
// populated accumulator types so the gob codecs are exercised end to end.
func testEntry(key string, cycles int64) Entry {
	var lat stats.Mean
	lat.Add(12.5)
	lat.Add(100.25)
	var hist stats.Histogram
	hist.Add(3)
	hist.Add(3)
	hist.Add(9)
	return Entry{
		Key:         key,
		OptionsHash: "00aabbccddeeff11",
		Benchmark:   "driver",
		Mode:        "pac",
		Options:     experiments.Options{Cores: 4, AccessesPerCore: 100, Scale: 1, Seed: 42},
		Result: &sim.Result{
			Benchmarks:      []string{"driver"},
			Cycles:          cycles,
			SkippedCycles:   cycles / 2,
			RawRequests:     400,
			MemPackets:      120,
			LoadLatency:     lat,
			LoadLatencyHist: hist,
		},
	}
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func key(i int) string { return fmt.Sprintf("%016x", i+1) }

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	in := testEntry(key(0), 5000)
	if err := s.Put(in); err != nil {
		t.Fatalf("Put: %v", err)
	}
	out, ok := s.Get(key(0))
	if !ok {
		t.Fatal("Get missed a just-written key")
	}
	if out.OptionsHash != in.OptionsHash || out.Benchmark != in.Benchmark || out.Mode != in.Mode {
		t.Fatalf("identity fields changed: %+v", out)
	}
	if out.Result.Cycles != 5000 || out.Result.SkippedCycles != 2500 {
		t.Fatalf("result changed: %+v", out.Result)
	}
	if out.Result.LoadLatency.Sum() != in.Result.LoadLatency.Sum() {
		t.Fatalf("latency accumulator changed: %v != %v",
			out.Result.LoadLatency.Sum(), in.Result.LoadLatency.Sum())
	}
	if got := out.Result.LoadLatencyHist.N(); got != 3 {
		t.Fatalf("histogram n = %d, want 3", got)
	}
	if s.Len() != 1 || s.Bytes() <= 0 {
		t.Fatalf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	if _, ok := s.Get("ffffffffffffffff"); ok {
		t.Fatal("Get hit an absent key")
	}
}

// TestReopenOrdersByWriteTime: the LRU order at Open is write order —
// file modification time, ties broken by key — and hit recency does not
// survive a restart: a key read last before Close is still evicted first
// when it was written first.
func TestReopenOrdersByWriteTime(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := s.Put(testEntry(key(i), int64(1000*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	// A hit makes key 0 most recent in this process only.
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("read missed")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Pin the write times: key i written at base+i, keys 3 and 4 tied.
	base := time.Now().Add(-time.Hour)
	for i, sec := range []int{0, 1, 2, 3, 3} {
		at := base.Add(time.Duration(sec) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, key(i)+entryExt), at, at); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, Config{Dir: dir})
	if s2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", s2.Len())
	}
	for i := 1; i < 5; i++ {
		if prev, cur := s2.entries[key(i-1)].seq, s2.entries[key(i)].seq; prev >= cur {
			t.Fatalf("key %d (seq %d) not older than key %d (seq %d)", i-1, prev, i, cur)
		}
	}
	for i := 0; i < 5; i++ {
		e, ok := s2.Get(key(i))
		if !ok || e.Result.Cycles != int64(1000*(i+1)) {
			t.Fatalf("key %d: ok=%v entry=%+v", i, ok, e)
		}
	}
	s2.Close()

	// A cap below the count evicts in write order at Open.
	s3 := mustOpen(t, Config{Dir: dir, MaxEntries: 3, MaxBytes: -1})
	for i := 0; i < 5; i++ {
		if want := i >= 2; s3.Has(key(i)) != want {
			t.Errorf("key %d resident = %v, want %v", i, !want, want)
		}
	}
}

// TestCorruptEntrySkipped flips payload bytes in a committed entry file;
// the read must be a counted miss, the file removed, and the store
// otherwise unharmed.
func TestCorruptEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, Registry: reg})
	if err := s.Put(testEntry(key(0), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry(key(1), 2000)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key(0)+entryExt)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry file not removed")
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 1 {
		t.Fatalf("pac_store_corrupt_total = %v, want 1", got)
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Fatal("healthy sibling entry lost")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestOrphanAdoption: Open indexes every entry file it finds, so an
// entry written without Close (a kill -9) is served after reopen,
// staged .tmp- files are swept, and a corrupt file is counted and
// removed at its first read.
func TestOrphanAdoption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 2; i++ {
		if err := s.Put(testEntry(key(i), int64(4242+i))); err != nil {
			t.Fatal(err)
		}
	}
	bad := filepath.Join(dir, key(1)+entryExt)
	blob, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// A staged temp file from a crash mid-write.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-dead-1"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.Stat(filepath.Join(dir, key(0)+entryExt))
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s2 := mustOpen(t, Config{Dir: dir, Registry: reg})
	if s2.Len() != 2 || s2.Bytes() != good.Size()+int64(len(blob)) {
		t.Fatalf("Len=%d Bytes=%d, want 2 entries of %d bytes", s2.Len(), s2.Bytes(), good.Size()+int64(len(blob)))
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-dead-1")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept")
	}
	if _, ok := s2.Answer(key(0)); !ok {
		t.Fatal("entry written before the kill not answered")
	}
	if !s2.entries[key(0)].verified {
		t.Fatal("entry not marked verified after its first answer")
	}
	if e, ok := s2.Get(key(0)); !ok || e.Result.Cycles != 4242 {
		t.Fatalf("entry written before the kill: ok=%v e=%+v", ok, e)
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 0 {
		t.Fatalf("pac_store_corrupt_total = %v before any corrupt read, want 0", got)
	}
	if _, ok := s2.Answer(key(1)); ok {
		t.Fatal("corrupt entry answered")
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 1 {
		t.Fatalf("pac_store_corrupt_total = %v, want 1", got)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("corrupt entry file not removed")
	}
}

// TestIndexWithoutFileDropped: an entry whose file was removed while the
// store was down is absent after reopen; its sibling is still indexed.
func TestIndexWithoutFileDropped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 2; i++ {
		if err := s.Put(testEntry(key(i), int64(4242+i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, key(1)+entryExt)); err != nil {
		t.Fatal(err)
	}
	kept, err := os.Stat(filepath.Join(dir, key(0)+entryExt))
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	if s2.Len() != 1 || s2.Bytes() != kept.Size() {
		t.Fatalf("Len=%d Bytes=%d, want 1 entry of %d bytes", s2.Len(), s2.Bytes(), kept.Size())
	}
	if s2.Has(key(1)) {
		t.Fatal("removed entry file indexed")
	}
	if _, ok := s2.Get(key(1)); ok {
		t.Fatal("removed entry served")
	}
}

func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, MaxEntries: 3, MaxBytes: -1, Registry: reg})
	for i := 0; i < 3; i++ {
		if err := s.Put(testEntry(key(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh key 0; key 1 is now the LRU and must be the victim.
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("refresh read missed")
	}
	if err := s.Put(testEntry(key(3), 3)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Has(key(1)) {
		t.Fatal("LRU key 1 survived eviction")
	}
	for _, k := range []string{key(0), key(2), key(3)} {
		if !s.Has(k) {
			t.Fatalf("key %s evicted, want key 1", k)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, key(1)+entryExt)); !os.IsNotExist(err) {
		t.Fatal("evicted entry file left on disk")
	}
	if got := metricValue(t, reg, "pac_store_evictions_total"); got != 1 {
		t.Fatalf("pac_store_evictions_total = %v, want 1", got)
	}
}

func TestEvictionByBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(testEntry(key(0), 1)); err != nil {
		t.Fatal(err)
	}
	one := s.Bytes()
	s.Close()

	// Cap at ~2.5 entries; the third insert must evict the oldest.
	s2 := mustOpen(t, Config{Dir: dir, MaxBytes: one*2 + one/2, MaxEntries: -1})
	for i := 1; i < 3; i++ {
		if err := s2.Put(testEntry(key(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
	if s2.Has(key(0)) {
		t.Fatal("oldest entry survived the byte cap")
	}
	if s2.Bytes() > one*2+one/2 {
		t.Fatalf("Bytes = %d over cap %d", s2.Bytes(), one*2+one/2)
	}
}

func TestRejectsInvalidKeys(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	for _, k := range []string{"", "UPPER", "../escape", "a b", strings.Repeat("a", maxKeyLen+1)} {
		e := testEntry(key(0), 1)
		e.Key = k
		if err := s.Put(e); err == nil {
			t.Fatalf("Put accepted invalid key %q", k)
		}
		if _, ok := s.Get(k); ok {
			t.Fatalf("Get hit invalid key %q", k)
		}
	}
}

func TestDecodeEntryKeyMismatch(t *testing.T) {
	blob, err := EncodeEntry(testEntry(key(0), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(key(1), blob); err == nil {
		t.Fatal("DecodeEntry accepted a key mismatch")
	}
	if _, err := DecodeEntry("", blob); err != nil {
		t.Fatalf("DecodeEntry with empty wantKey: %v", err)
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := DecodeEntry(key(0), blob[:cut]); err == nil {
			t.Fatalf("truncated envelope (%d bytes) decoded", cut)
		}
	}
}

// TestParallelWritersSameKey is the torn-write race: many goroutines
// store different payloads under one key concurrently. The surviving
// file must be exactly one writer's payload, never a blend.
func TestParallelWritersSameKey(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := s.Put(testEntry(key(0), int64(1000+w))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if e, ok := s.Get(key(0)); ok {
					if c := e.Result.Cycles; c < 1000 || c >= 1000+writers {
						t.Errorf("torn read: cycles %d", c)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	e, ok := s.Get(key(0))
	if !ok {
		t.Fatal("final read missed")
	}
	if c := e.Result.Cycles; c < 1000 || c >= 1000+writers {
		t.Fatalf("final entry torn: cycles %d", c)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestReadersDuringChurn hammers Answer and Get while a writer Puts new
// keys past the entry cap, so every Put evicts: a hit must always carry
// its own key's result, never a torn or foreign one, and the caps hold.
func TestReadersDuringChurn(t *testing.T) {
	const maxEntries, keys = 4, 64
	s := mustOpen(t, Config{Dir: t.TempDir(), MaxEntries: maxEntries, MaxBytes: -1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % keys
				if e, ok := s.Get(key(k)); ok && e.Result.Cycles != int64(100+k) {
					t.Errorf("reader %d: key %d cycles %d", r, k, e.Result.Cycles)
					return
				}
				if a, ok := s.Answer(key(k)); ok {
					var res sim.Result
					if err := json.Unmarshal(a.JSON, &res); err != nil || res.Cycles != int64(100+k) {
						t.Errorf("reader %d: key %d answered %s (%v)", r, k, a.JSON, err)
						return
					}
				}
			}
		}(r)
	}
	for round := 0; round < 3; round++ {
		for k := 0; k < keys; k++ {
			if err := s.Put(testEntry(key(k), int64(100+k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != maxEntries {
		t.Fatalf("Len = %d, want %d", s.Len(), maxEntries)
	}
	names, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != maxEntries {
		t.Fatalf("%d files on disk, want the %d resident entries", len(names), maxEntries)
	}
}

// metricValue reads one un-labelled metric from the registry.
func metricValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Value(name)
	if !ok {
		t.Fatalf("metric %s not found", name)
	}
	return v
}

// fixtureKey is the key testdata/v1.res was written under.
const fixtureKey = "5eed0000000000a1"

// TestV1EntryDiscarded: testdata/v1.res is an entry file written by the
// retired version-1 envelope (the gob entry alone, no answer section).
// Open indexes it like any file it finds, and its first read counts it as
// corrupt, removes it and misses, so the result is recomputed.
func TestV1EntryDiscarded(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "v1.res"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint16(blob[len(magic):]); v != 1 {
		t.Fatalf("fixture is a version-%d envelope, want version 1", v)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, fixtureKey+entryExt)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, Registry: reg})
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 0 {
		t.Fatalf("pac_store_corrupt_total = %v before the first read, want 0", got)
	}
	if _, ok := s.Answer(fixtureKey); ok {
		t.Fatal("version-1 entry answered")
	}
	if _, ok := s.Get(fixtureKey); ok {
		t.Fatal("version-1 entry decoded")
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 1 {
		t.Errorf("pac_store_corrupt_total = %v, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("version-1 entry file not removed")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

// TestAnswerIsStoredBytes: a version-2 hit returns the answer section
// written at Put — the caller's rendering, byte for byte — with the
// entry's identity.
func TestAnswerIsStoredBytes(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	in := testEntry(key(0), 5000)
	rendered, err := json.Marshal(in.Result)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutAnswer(in, rendered); err != nil {
		t.Fatal(err)
	}
	a, ok := s.Answer(key(0))
	if !ok {
		t.Fatal("Answer missed a just-written key")
	}
	if !bytes.Equal(a.JSON, rendered) {
		t.Errorf("answer %s, want the stored rendering %s", a.JSON, rendered)
	}
	if a.OptionsHash != in.OptionsHash || a.Benchmark != in.Benchmark || a.Mode != in.Mode {
		t.Errorf("answer identity %+v", a)
	}
	if _, ok := s.Answer(key(1)); ok {
		t.Error("Answer hit an absent key")
	}
}

// TestDecodeEntryChecksIdentitySection: an envelope whose identity
// section names another benchmark than its gob entry is corrupt, even
// with a valid checksum.
func TestDecodeEntryChecksIdentitySection(t *testing.T) {
	e := testEntry(key(0), 1)
	other := e
	other.Benchmark = "other"
	good, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	lying, err := EncodeEntry(other)
	if err != nil {
		t.Fatal(err)
	}
	// Identity and answer sections of one envelope, gob entry of the
	// other, sealed under a fresh checksum.
	gEnv, _ := openEnvelope(key(0), good)
	lEnv, _ := openEnvelope(key(0), lying)
	sections := payloadOf(lying)
	sections = sections[:len(sections)-len(lEnv.entry)]
	blob := seal(key(0), append(append([]byte(nil), sections...), gEnv.entry...))
	if _, err := DecodeEntry(key(0), blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("identity mismatch decoded: %v", err)
	}
	if err := verifyOrphan(key(0), blob); err == nil {
		t.Fatal("verifyOrphan accepted an identity mismatch")
	}
}

// payloadOf returns an envelope's checksummed payload.
func payloadOf(blob []byte) []byte {
	h := len(magic) + 2 + 2 + int(binary.BigEndian.Uint16(blob[len(magic)+2:])) + 8 + sha256.Size
	return blob[h:]
}

// TestForeignAnswerNeverKept: an entry file found at Open with a valid
// checksum and identity whose answer section disagrees with its own
// result — bytes this node's write path never produces — is counted and
// removed at its first read, never answered, so its planted answer is
// never served.
func TestForeignAnswerNeverKept(t *testing.T) {
	forged, err := encodeEntry(testEntry(key(0), 777), []byte(`{"Cycles":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(key(0), forged); err != nil {
		t.Fatalf("forged envelope is not well-formed: %v", err)
	}
	if err := verifyOrphan(key(0), forged); err == nil {
		t.Fatal("verifyOrphan accepted a forged answer")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, key(0)+entryExt)
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, Registry: reg})
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 0 {
		t.Fatalf("pac_store_corrupt_total = %v before the first read, want 0", got)
	}
	if a, ok := s.Answer(key(0)); ok {
		t.Fatalf("forged entry answered %s", a.JSON)
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 1 {
		t.Errorf("pac_store_corrupt_total = %v, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("forged entry not removed")
	}
}

// TestPutEntryAnsweredUnverified: an entry Put wrote in this process is
// answered from its checksum alone, with no decode. The answer section is
// the caller's rendering, taken on trust: here a rendering that is not
// json.Marshal of the result is served as written until a restart, where
// the first read verifies it and discards it.
func TestPutEntryAnsweredUnverified(t *testing.T) {
	dir := t.TempDir()
	rendering := []byte(`{"Cycles":1}`)
	s := mustOpen(t, Config{Dir: dir})
	if err := s.PutAnswer(testEntry(key(0), 777), rendering); err != nil {
		t.Fatal(err)
	}
	if a, ok := s.Answer(key(0)); !ok || !bytes.Equal(a.JSON, rendering) {
		t.Fatalf("Put entry answered %s (ok=%v), want the stored rendering", a.JSON, ok)
	}
	s.Close()

	reg := telemetry.NewRegistry()
	s2 := mustOpen(t, Config{Dir: dir, Registry: reg})
	if _, ok := s2.Answer(key(0)); ok {
		t.Fatal("entry found at Open answered without verification")
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 1 {
		t.Errorf("pac_store_corrupt_total = %v, want 1", got)
	}
}

// TestAnswerVerifiesChecksum: Answer, the hit path's read, verifies the
// envelope by its checksum alone, which still catches a bit flip in the
// middle of the payload.
func TestAnswerVerifiesChecksum(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, Registry: reg})
	if err := s.Put(testEntry(key(0), 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Answer(key(0)); !ok {
		t.Fatal("Answer missed")
	}
	path := filepath.Join(dir, key(0)+entryExt)
	blob, _ := os.ReadFile(path)
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Answer(key(0)); ok {
		t.Fatal("Answer served a corrupt envelope")
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 1 {
		t.Errorf("pac_store_corrupt_total = %v, want 1", got)
	}
}

// TestEncodeEntryMatchesFreshEncoder: encodeEntry sends the Entry type
// descriptors once per process, yet every envelope's gob section holds
// the bytes a new gob.Encoder writes for the entry, which is what
// envelopes written before held. That holds only while Entry has no
// interface-typed field.
func TestEncodeEntryMatchesFreshEncoder(t *testing.T) {
	if path := gobenc.InterfaceField(reflect.TypeFor[Entry]()); path != "" {
		t.Fatalf("Entry holds interface field %s", path)
	}
	for i := 0; i < 4; i++ {
		e := testEntry(key(i), int64(1000*i+7))
		if i%2 == 1 {
			e.Result.Faults.LinkCRCErrors = int64(i)
			e.Options.Faults.LinkCRCRate = 0.01
		}
		blob, err := encodeEntry(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		env, err := openEnvelope(e.Key, blob)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := gob.NewEncoder(&want).Encode(e); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env.entry, want.Bytes()) {
			t.Fatalf("entry %d: gob section of %d bytes, a fresh encoder writes %d", i, len(env.entry), want.Len())
		}
	}
}

// TestPutFaults: a Put whose write fails at create (ENOSPC), with a short
// write, at fsync or at rename returns an error, counts one write
// failure, leaves no staged file, and leaves the key's earlier entry
// answering, before and after a reopen. The store keeps serving.
func TestPutFaults(t *testing.T) {
	for _, fault := range durabletest.Faults {
		t.Run(fault.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			s := mustOpen(t, Config{Dir: dir, Registry: reg})
			if err := s.Put(testEntry(key(0), 1)); err != nil {
				t.Fatal(err)
			}
			fsys := durabletest.New()
			s.fs = fsys
			fsys.Arm(fault)
			if err := s.Put(testEntry(key(0), 2)); err == nil {
				t.Fatal("Put returned no error")
			}
			if got := metricValue(t, reg, "pac_store_write_failures_total"); got != 1 {
				t.Errorf("pac_store_write_failures_total = %v, want 1", got)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
				t.Errorf("staged files left: %v", left)
			}
			if e, ok := s.Get(key(0)); !ok || e.Result.Cycles != 1 {
				t.Errorf("after the failed Put: ok=%v, want the earlier entry (cycles 1)", ok)
			}
			if err := s.Put(testEntry(key(1), 3)); err != nil {
				t.Errorf("Put after the fault: %v", err)
			}
			s2 := mustOpen(t, Config{Dir: dir})
			if e, ok := s2.Get(key(0)); !ok || e.Result.Cycles != 1 {
				t.Errorf("after reopen: ok=%v, want the earlier entry (cycles 1)", ok)
			}
		})
	}
}

// TestPutAfterCloseCounted: a Put on a closed store fails, writes
// nothing and counts one write failure.
func TestPutAfterCloseCounted(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, Registry: reg})
	s.Close()
	if err := s.Put(testEntry(key(0), 1)); err == nil {
		t.Fatal("Put on a closed store returned no error")
	}
	if got := metricValue(t, reg, "pac_store_write_failures_total"); got != 1 {
		t.Errorf("pac_store_write_failures_total = %v, want 1", got)
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 {
		t.Errorf("closed store wrote %d files", len(names))
	}
}

// TestMemoryStore: a store opened without a Dir keeps each entry's
// identity and answer in memory under the same API, LRU, caps and
// counters, touches no file, and keeps no Entry for Get.
func TestMemoryStore(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(wd)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{MaxEntries: 2, MaxBytes: -1, Registry: reg})
	if s.Dir() != "" {
		t.Fatalf("Dir = %q, want empty", s.Dir())
	}
	in := testEntry(key(0), 5000)
	rendered, err := json.Marshal(in.Result)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutAnswer(in, rendered); err != nil {
		t.Fatal(err)
	}
	a, ok := s.Answer(key(0))
	if !ok || !bytes.Equal(a.JSON, rendered) ||
		a.OptionsHash != in.OptionsHash || a.Benchmark != in.Benchmark || a.Mode != in.Mode {
		t.Fatalf("Answer = %+v, %v; want the stored identity and rendering", a, ok)
	}
	if s.Bytes() != int64(len(rendered)) {
		t.Errorf("Bytes = %d, want the %d answer bytes", s.Bytes(), len(rendered))
	}
	if _, ok := s.Get(key(0)); ok {
		t.Error("Get found an Entry in a memory-only store")
	}
	// Put renders the answer itself; key 0 was just read, so key 1 is the
	// least recently used when key 2 goes in.
	for i := 1; i < 3; i++ {
		if i == 2 {
			s.Answer(key(0))
		}
		if err := s.Put(testEntry(key(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Has(key(0)) || s.Has(key(1)) || !s.Has(key(2)) || s.Len() != 2 {
		t.Errorf("after eviction: has 0/1/2 = %v/%v/%v, Len %d; want key 1 evicted",
			s.Has(key(0)), s.Has(key(1)), s.Has(key(2)), s.Len())
	}
	if _, ok := s.Answer(key(1)); ok {
		t.Error("Answer hit an evicted key")
	}
	if err := s.Put(testEntry("NOT-HEX", 1)); err == nil {
		t.Error("Put took an invalid key")
	}
	for name, want := range map[string]float64{
		"pac_store_hits_total":           2,
		"pac_store_misses_total":         1,
		"pac_store_writes_total":         3,
		"pac_store_write_failures_total": 1,
		"pac_store_evictions_total":      1,
	} {
		if got := metricValue(t, reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	s.Close()
	if err := s.Put(testEntry(key(3), 3)); err == nil || s.Has(key(3)) {
		t.Errorf("Put after Close = %v, stored %v; want refused", err, s.Has(key(3)))
	}
	after, err := os.ReadDir(wd)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("a memory-only store changed the working directory: %d entries, was %d", len(after), len(before))
	}
}
