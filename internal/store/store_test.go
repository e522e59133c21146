package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/pacsim/pac/internal/experiments"
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

func TestReopenReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := s.Put(testEntry(key(i), int64(1000*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so it becomes most recent; reopen must preserve order.
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("touch read missed")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, Config{Dir: dir})
	if s2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", s2.Len())
	}
	keys := s2.Keys()
	if keys[0] != key(0) {
		t.Fatalf("MRU key after reopen = %s, want %s (touched last)", keys[0], key(0))
	}
	for i := 0; i < 5; i++ {
		e, ok := s2.Get(key(i))
		if !ok || e.Result.Cycles != int64(1000*(i+1)) {
			t.Fatalf("key %d: ok=%v entry=%+v", i, ok, e)
		}
	}
}

// TestTornJournalLineSkipped simulates a crash mid-append: the final
// journal line is truncated. Replay must keep every intact record and
// count exactly one corrupt line.
func TestTornJournalLineSkipped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := s.Put(testEntry(key(i), 1000)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	jp := filepath.Join(dir, journal)
	blob, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	// Append a valid del record for key 2, torn halfway through.
	torn := formatRecord("del", key(2), 0)
	blob = append(blob, torn[:len(torn)/2]...)
	if err := os.WriteFile(jp, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s2 := mustOpen(t, Config{Dir: dir, Registry: reg})
	if s2.Len() != 3 {
		t.Fatalf("Len after torn replay = %d, want 3 (torn del ignored)", s2.Len())
	}
	if _, ok := s2.Get(key(2)); !ok {
		t.Fatal("key 2 lost to a torn journal line")
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 1 {
		t.Fatalf("pac_store_corrupt_total = %v, want 1", got)
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

// TestOrphanAdoption simulates a crash between entry rename and journal
// append: a valid .res file with no journal record must be adopted on
// the next Open, and a corrupt orphan must be swept away.
func TestOrphanAdoption(t *testing.T) {
	dir := t.TempDir()
	good, err := EncodeEntry(testEntry(key(0), 4242))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key(0)+entryExt), good, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, key(1)+entryExt), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	// A staged temp file from a crash mid-write must be swept too.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-dead-1"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, Config{Dir: dir})
	e, ok := s.Get(key(0))
	if !ok || e.Result.Cycles != 4242 {
		t.Fatalf("orphan not adopted: ok=%v e=%+v", ok, e)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("corrupt orphan adopted")
	}
	if _, err := os.Stat(filepath.Join(dir, key(1)+entryExt)); !os.IsNotExist(err) {
		t.Fatal("corrupt orphan not removed")
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-dead-1")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept")
	}
}

// TestIndexWithoutFileDropped covers the inverse crash: a journal record
// whose entry file vanished must be dropped silently on Open.
func TestIndexWithoutFileDropped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(testEntry(key(0), 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, key(0)+entryExt)); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	if s2.Len() != 0 || s2.Bytes() != 0 {
		t.Fatalf("ghost index entry survived: Len=%d Bytes=%d", s2.Len(), s2.Bytes())
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

func TestCompactionShrinksJournal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(testEntry(key(0), 1)); err != nil {
		t.Fatal(err)
	}
	// Hammer the touch path well past the compaction threshold.
	for i := 0; i < 1200; i++ {
		if _, ok := s.Get(key(0)); !ok {
			t.Fatal("read missed")
		}
	}
	s.Close()
	blob, err := os.ReadFile(filepath.Join(dir, journal))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(blob), "\n")
	if lines != 1 {
		t.Fatalf("journal has %d records after close-compaction, want 1", lines)
	}
	// The compacted journal must still replay.
	s2 := mustOpen(t, Config{Dir: dir})
	if s2.Len() != 1 {
		t.Fatalf("Len after compacted replay = %d, want 1", s2.Len())
	}
}

func TestGetRawRoundTripsThroughPutRaw(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	a := mustOpen(t, Config{Dir: dir1})
	b := mustOpen(t, Config{Dir: dir2})
	if err := a.Put(testEntry(key(0), 777)); err != nil {
		t.Fatal(err)
	}
	blob, ok := a.GetRaw(key(0))
	if !ok {
		t.Fatal("GetRaw missed")
	}
	// The peer path: node b validates and stores a's bytes verbatim.
	if err := b.PutRaw(key(0), blob); err != nil {
		t.Fatalf("PutRaw: %v", err)
	}
	blob2, ok := b.GetRaw(key(0))
	if !ok || !bytes.Equal(blob, blob2) {
		t.Fatal("peer copy is not byte-identical")
	}
	e, ok := b.Get(key(0))
	if !ok || e.Result.Cycles != 777 {
		t.Fatalf("peer copy decode: ok=%v e=%+v", ok, e)
	}
	// A tampered blob must be rejected before it can enter the store.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-4] ^= 0x01
	if err := b.PutRaw(key(1), bad); err == nil {
		t.Fatal("PutRaw accepted a corrupt blob")
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

// TestReadersDuringCompaction hammers reads and writes while forcing
// journal compactions, checking nothing is lost or torn.
func TestReadersDuringCompaction(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	const keys = 4
	for i := 0; i < keys; i++ {
		if err := s.Put(testEntry(key(i), int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
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
				k := key(i % keys)
				if e, ok := s.Get(k); ok && e.Result.Cycles != int64(100+i%keys) {
					t.Errorf("reader %d: key %s cycles %d", r, k, e.Result.Cycles)
					return
				}
			}
		}(r)
	}
	// Force repeated compactions from the writer side.
	for i := 0; i < 3000; i++ {
		if _, ok := s.Get(key(i % keys)); !ok {
			t.Fatalf("writer-side read %d missed", i)
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
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

// TestV1EntryStillServes: testdata/v1.res is an entry file written by the
// version-1 envelope (the gob entry alone, no answer section). A store
// directory holding it keeps working: the entry still Gets, its disk-hit
// answer — rendered from the decoded result — decodes equal to that
// result, and the file is neither rewritten nor discarded.
func TestV1EntryStillServes(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "v1.res"))
	if err != nil {
		t.Fatal(err)
	}
	if env, err := openEnvelope(fixtureKey, blob); err != nil || env.version != versionV1 {
		t.Fatalf("fixture is not a version-1 envelope: version %d, %v", env.version, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fixtureKey+entryExt), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	record := formatRecord("put", fixtureKey, int64(len(blob)))
	if err := os.WriteFile(filepath.Join(dir, journal), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, Registry: reg})

	e, ok := s.Get(fixtureKey)
	if !ok {
		t.Fatal("version-1 entry does not Get")
	}
	if e.Benchmark != "STREAM" || e.Mode != "PAC" || e.Result == nil || e.Result.Cycles == 0 {
		t.Fatalf("version-1 entry decoded as %s/%s %+v", e.Benchmark, e.Mode, e.Result)
	}
	a, ok := s.Answer(fixtureKey)
	if !ok {
		t.Fatal("version-1 entry has no answer")
	}
	if a.OptionsHash != e.OptionsHash || a.Benchmark != e.Benchmark || a.Mode != e.Mode {
		t.Errorf("answer identity %s/%s/%s, entry %s/%s/%s",
			a.OptionsHash, a.Benchmark, a.Mode, e.OptionsHash, e.Benchmark, e.Mode)
	}
	want, err := json.Marshal(e.Result)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantV any
	if err := json.Unmarshal(a.JSON, &got); err != nil {
		t.Fatalf("answer is not JSON: %v", err)
	}
	json.Unmarshal(want, &wantV)
	if !reflect.DeepEqual(got, wantV) {
		t.Error("version-1 answer differs from its decoded result")
	}
	if raw, ok := s.GetRaw(fixtureKey); !ok || !bytes.Equal(raw, blob) {
		t.Error("version-1 entry not served verbatim to peers")
	}
	if onDisk, _ := os.ReadFile(filepath.Join(dir, fixtureKey+entryExt)); !bytes.Equal(onDisk, blob) {
		t.Error("version-1 entry file rewritten")
	}
	if got := metricValue(t, reg, "pac_store_corrupt_total"); got != 0 {
		t.Errorf("pac_store_corrupt_total = %v, want 0", got)
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
	blob := seal(key(0), version, append(append([]byte(nil), sections...), gEnv.entry...))
	if _, err := DecodeEntry(key(0), blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("identity mismatch decoded: %v", err)
	}
	if _, err := Verify(key(0), blob); err == nil {
		t.Fatal("Verify accepted an identity mismatch")
	}
}

// payloadOf returns an envelope's checksummed payload.
func payloadOf(blob []byte) []byte {
	h := len(magic) + 2 + 2 + int(binary.BigEndian.Uint16(blob[len(magic)+2:])) + 8 + sha256.Size
	return blob[h:]
}

// TestForeignAnswerNeverKept: an envelope with a valid checksum and
// identity whose answer section disagrees with its own result — what a
// faulty or hostile peer could send — is rebuilt by PutRaw and by orphan
// adoption, so the store answers with its own rendering of the result,
// never with the planted bytes. A version-1 envelope from outside is
// rebuilt as version 2.
func TestForeignAnswerNeverKept(t *testing.T) {
	forged, err := encodeEntry(testEntry(key(0), 777), []byte(`{"Cycles":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(key(0), forged); err != nil {
		t.Fatalf("forged envelope is not well-formed: %v", err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.res"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, key string
		blob      []byte
	}{{"forged", key(0), forged}, {"version 1", fixtureKey, v1}} {
		v, err := Verify(tc.key, tc.blob)
		if err != nil || !v.Rebuilt {
			t.Fatalf("%s: Verify rebuilt=%v err=%v", tc.name, v.Rebuilt, err)
		}

		// Through PutRaw, the peer-exchange path.
		s := mustOpen(t, Config{Dir: t.TempDir()})
		if err := s.PutRaw(tc.key, tc.blob); err != nil {
			t.Fatalf("%s: PutRaw: %v", tc.name, err)
		}
		checkRebuilt(t, s, tc.key, tc.blob)

		// As an orphan file found at Open.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.key+entryExt), tc.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		checkRebuilt(t, mustOpen(t, Config{Dir: dir}), tc.key, tc.blob)
	}
}

// checkRebuilt asserts the store holds a version-2 rebuild of foreign,
// answering with its own rendering of the decoded result.
func checkRebuilt(t *testing.T, s *Store, key string, foreign []byte) {
	t.Helper()
	raw, ok := s.GetRaw(key)
	if !ok {
		t.Fatal("entry not stored")
	}
	if bytes.Equal(raw, foreign) {
		t.Fatal("foreign envelope stored verbatim")
	}
	if env, _ := openEnvelope(key, raw); env.version != version {
		t.Fatalf("stored envelope is version %d", env.version)
	}
	e, ok := s.Get(key)
	if !ok {
		t.Fatal("rebuilt entry does not Get")
	}
	want, _ := json.Marshal(e.Result)
	if a, ok := s.Answer(key); !ok || !bytes.Equal(a.JSON, want) {
		t.Fatalf("answer %s, want %s", a.JSON, want)
	}
}

// TestGetRawVerifiesChecksum: GetRaw, which serves peers, verifies the
// envelope by its checksum alone, which still catches a bit flip in the
// middle of the payload.
func TestGetRawVerifiesChecksum(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(testEntry(key(0), 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetRaw(key(0)); !ok {
		t.Fatal("GetRaw missed")
	}
	path := filepath.Join(dir, key(0)+entryExt)
	blob, _ := os.ReadFile(path)
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetRaw(key(0)); ok {
		t.Fatal("GetRaw served a corrupt envelope")
	}
}
