package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pacsim/pac/internal/telemetry"
)

func openT(t *testing.T, path string) (*Log, []Job) {
	t.Helper()
	l, jobs, err := Open(Config{Path: path, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, jobs
}

func TestLifecycleRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l, jobs := openT(t, path)
	if len(jobs) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(jobs))
	}

	// a: finished; b, c: still live; d: failed; e: canceled.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Submit("node-j000001", "simulate", []byte(`{"bench":"GS"}`)))
	must(l.Submit("node-j000002", "simulate", []byte(`{"bench":"CG"}`)))
	must(l.Submit("node-j000003", "simulate", []byte(`{"bench":"STREAM"}`)))
	must(l.Submit("node-j000004", "simulate", nil))
	must(l.Submit("node-j000005", "simulate", []byte("x")))
	must(l.Done("node-j000001"))
	must(l.Fail("node-j000004"))
	must(l.Cancel("node-j000005"))
	if got := l.Live(); got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, recovered := openT(t, path)
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs, want 2: %+v", len(recovered), recovered)
	}
	if recovered[0].ID != "node-j000002" {
		t.Errorf("job 0 = %+v, want node-j000002", recovered[0])
	}
	if !bytes.Equal(recovered[0].Payload, []byte(`{"bench":"CG"}`)) {
		t.Errorf("job 0 payload = %q", recovered[0].Payload)
	}
	if recovered[1].ID != "node-j000003" {
		t.Errorf("job 1 = %+v, want node-j000003", recovered[1])
	}
	if recovered[0].Kind != "simulate" || recovered[1].Kind != "simulate" {
		t.Errorf("kinds = %q, %q", recovered[0].Kind, recovered[1].Kind)
	}
}

// TestTornFinalRecord is the crash case the format exists for: the
// process dies mid-append, leaving a torn last line. Boot must skip it,
// count it, and keep every intact record.
func TestTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l, _ := openT(t, path)
	if err := l.Submit("a-j1", "simulate", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn append: a half-written submit for a second job.
	full := FormatRecord(Record{Op: OpSubmit, ID: "a-j2", Kind: "simulate", Payload: []byte("two")})
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, full[:len(full)/2]...)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, jobs, err := Open(Config{Path: path, NoSync: true})
	if err != nil {
		t.Fatalf("Open after torn write: %v", err)
	}
	defer l2.Close()
	if len(jobs) != 1 || jobs[0].ID != "a-j1" {
		t.Fatalf("recovered %+v, want only a-j1", jobs)
	}
}

// TestCorruptLinesSkipped garbles interior lines (bit flips, junk,
// truncation mid-file); replay must survive all of it and keep the
// valid records.
func TestCorruptLinesSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	good1 := FormatRecord(Record{Op: OpSubmit, ID: "n-j1", Kind: "simulate", Payload: []byte("p1")})
	good2 := FormatRecord(Record{Op: OpSubmit, ID: "n-j2", Kind: "simulate", Payload: []byte("p2")})
	flipped := []byte(FormatRecord(Record{Op: OpSubmit, ID: "n-j3", Kind: "simulate", Payload: []byte("p3")}))
	flipped[len(flipped)/2] ^= 0x01
	content := good1 + "garbage line with no checksum\n" + string(flipped) +
		"submit n-j4 simulate cGF5#deadbeef\n" + good2
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, jobs := openT(t, path)
	if len(jobs) != 2 || jobs[0].ID != "n-j1" || jobs[1].ID != "n-j2" {
		t.Fatalf("recovered %+v, want n-j1 and n-j2", jobs)
	}
}

// TestCompaction drives enough terminal churn to trip the fold and
// checks the journal shrinks to the live set while replay still agrees.
func TestCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l, _ := openT(t, path)
	for i := 0; i < 600; i++ {
		id := fmt.Sprintf("n-j%06d", i)
		if err := l.Submit(id, "simulate", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := l.Done(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Submit("n-keep", "simulate", []byte("live")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(blob), "\n"); n != 1 {
		t.Fatalf("compacted journal has %d lines, want 1", n)
	}
	_, jobs := openT(t, path)
	if len(jobs) != 1 || jobs[0].ID != "n-keep" {
		t.Fatalf("recovered %+v, want n-keep", jobs)
	}
}

// TestRecordRoundTrip pins the codec: format → parse is lossless for
// every op, and parse rejects shape violations.
func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpSubmit, ID: "n-j1", Kind: "simulate", Payload: []byte(`{"a":1}`)},
		{Op: OpSubmit, ID: "n-j2", Kind: "simulate"},
		{Op: OpRun, ID: "n-j1"},
		{Op: OpDone, ID: "n-j1"},
		{Op: OpFail, ID: "n-j1"},
		{Op: OpCancel, ID: "n-j1"},
	}
	for _, rec := range recs {
		line := FormatRecord(rec)
		got, ok := ParseRecord(strings.TrimSuffix(line, "\n"))
		if !ok {
			t.Fatalf("ParseRecord rejected %q", line)
		}
		if got.Op != rec.Op || got.ID != rec.ID || got.Kind != rec.Kind || !bytes.Equal(got.Payload, rec.Payload) {
			t.Errorf("round trip %+v -> %+v", rec, got)
		}
	}
	bad := []string{
		"",
		"no-checksum",
		"submit a b#zz",
		"run n-j1 - extra -#0",
		"nonsense n-j1 - -#0",
		FormatRecord(Record{Op: OpRun, ID: "n-j1"})[:5],
	}
	for _, line := range bad {
		if _, ok := ParseRecord(line); ok {
			t.Errorf("ParseRecord accepted %q", line)
		}
	}
}

// TestValidation pins the input guards: IDs and kinds with separator
// bytes or oversized payloads never reach the journal.
func TestValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l, _ := openT(t, path)
	if err := l.Submit("bad id", "simulate", nil); err == nil {
		t.Error("Submit accepted an ID with a space")
	}
	if err := l.Submit("ok", "bad kind", nil); err == nil {
		t.Error("Submit accepted a kind with a space")
	}
	if err := l.Submit("ok", "-", nil); err == nil {
		t.Error("Submit accepted the placeholder kind")
	}
	if err := l.Submit("ok", "simulate", make([]byte, maxPayloadLen+1)); err == nil {
		t.Error("Submit accepted an oversized payload")
	}
	if err := l.Done("bad\nid"); err == nil {
		t.Error("Done accepted an ID with a newline")
	}
}

// TestDuplicateSubmitFirstWins pins at-least-once semantics: a replayed
// duplicate submit (same ID) must not clobber the original payload.
func TestDuplicateSubmitFirstWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l, _ := openT(t, path)
	if err := l.Submit("n-j1", "simulate", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit("n-j1", "simulate", []byte("second")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, jobs := openT(t, path)
	if len(jobs) != 1 || string(jobs[0].Payload) != "first" {
		t.Fatalf("recovered %+v, want single job with payload 'first'", jobs)
	}
}

// TestReplayJournalWithRunRecords replays a journal written by a build
// that still appended "run" records (testdata/run-records.wal: job 1
// done, job 2 queued, job 3 started, job 4 failed, with no compaction
// since). The run lines parse and are ignored: the two live jobs come
// back in submit order with their payloads, nothing counts as corrupt,
// and the compacted journal holds only their submits.
func TestReplayJournalWithRunRecords(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "run-records.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "\nrun ") {
		t.Fatal("fixture holds no run record")
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	l, jobs, err := Open(Config{Path: path, NoSync: true, Registry: reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	want := []Job{
		{ID: "n1-j000002", Kind: "simulate", Payload: []byte(`{"benchmark":"STREAM","mode":"dmc"}`)},
		{ID: "n1-j000003", Kind: "simulate", Payload: []byte(`{"benchmark":"STREAM","mode":"pac"}`)},
	}
	if len(jobs) != len(want) {
		t.Fatalf("recovered %+v, want %+v", jobs, want)
	}
	for i, j := range jobs {
		if j.ID != want[i].ID || j.Kind != want[i].Kind || !bytes.Equal(j.Payload, want[i].Payload) {
			t.Errorf("job %d = %+v, want %+v", i, j, want[i])
		}
	}
	if n, _ := reg.Value("pac_wal_corrupt_records_total"); n != 0 {
		t.Errorf("pac_wal_corrupt_records_total = %v, want 0", n)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(compacted); strings.Count(got, "\n") != 2 || strings.Contains(got, "run ") {
		t.Errorf("compacted journal = %q, want the two submits only", got)
	}
}
