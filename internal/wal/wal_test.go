package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pacsim/pac/internal/durable/durabletest"
	"github.com/pacsim/pac/internal/telemetry"
)

func openT(t *testing.T, path string) (*Log, []Job) {
	t.Helper()
	l, jobs, err := Open(Config{Path: path})
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

	l2, jobs, err := Open(Config{Path: path})
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
	l, jobs, err := Open(Config{Path: path, Registry: reg})
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

// walErrors reads pac_wal_journal_errors_total.
func walErrors(t *testing.T, reg *telemetry.Registry) float64 {
	t.Helper()
	n, _ := reg.Value("pac_wal_journal_errors_total")
	return n
}

// replayIDs reopens the journal at path and returns the live job IDs.
func replayIDs(t *testing.T, path string) []string {
	t.Helper()
	_, jobs := openT(t, path)
	var ids []string
	for _, j := range jobs {
		ids = append(ids, j.ID)
	}
	return ids
}

// TestAppendFaultKeepsNextRecord: an append that fails at open (ENOSPC),
// with a short write or at fsync is counted and returns an error, and
// the next append still lands intact: the journal is rewritten from the
// in-memory image before it, so the failed record's partial line cannot
// swallow it. Replay finds the acknowledged jobs and not the failed one.
// An append does not rename; its rename case is the rewrite before the
// next append failing, which fails that append too.
func TestAppendFaultKeepsNextRecord(t *testing.T) {
	for _, fault := range durabletest.Faults {
		t.Run(fault.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.wal")
			reg := telemetry.NewRegistry()
			l, _, err := Open(Config{Path: path, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Submit("n-j1", "simulate", []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil { // compacts: the next append opens the file
				t.Fatal(err)
			}
			if l, _, err = Open(Config{Path: path, Registry: reg}); err != nil {
				t.Fatal(err)
			}
			fsys := durabletest.New()
			l.fs = fsys
			wantErrs := 1.0
			if fault == durabletest.RenameError {
				fsys.Arm(durabletest.ShortWrite)
				if err := l.Submit("n-j2", "simulate", []byte("two")); err == nil {
					t.Fatal("Submit after a short write returned no error")
				}
				wantErrs++
			}
			fsys.Arm(fault)
			if err := l.Submit("n-j2", "simulate", []byte("two")); err == nil {
				t.Fatal("Submit returned no error")
			}
			if got := walErrors(t, reg); got != wantErrs {
				t.Errorf("pac_wal_journal_errors_total = %v, want %v", got, wantErrs)
			}
			if err := l.Submit("n-j3", "simulate", []byte("three")); err != nil {
				t.Fatalf("Submit after the fault: %v", err)
			}
			if l.Live() != 2 {
				t.Errorf("Live = %d, want 2", l.Live())
			}
			if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".tmp-*")); len(left) != 0 {
				t.Errorf("staged files left: %v", left)
			}
			// Reopen without Close: what a kill -9 leaves.
			if got := replayIDs(t, path); len(got) != 2 || got[0] != "n-j1" || got[1] != "n-j3" {
				t.Errorf("replayed %v, want [n-j1 n-j3]", got)
			}
			l.Close()
		})
	}
}

// TestCompactionFaults: a compaction that fails at create, write, fsync
// or rename is counted, Close reports it, no staged file is left, and
// reopening finds the journal as it was before the compaction. A failed
// compaction inside an append does not fail the append, whose record is
// already durable.
func TestCompactionFaults(t *testing.T) {
	for _, fault := range durabletest.Faults {
		t.Run(fault.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.wal")
			reg := telemetry.NewRegistry()
			l, _, err := Open(Config{Path: path, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			fsys := durabletest.New()
			l.fs = fsys
			for _, id := range []string{"n-j1", "n-j2"} {
				if err := l.Submit(id, "simulate", []byte(id)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Done("n-j1"); err != nil {
				t.Fatal(err)
			}
			fsys.Arm(fault)
			if err := l.Close(); err == nil {
				t.Fatal("Close returned no error")
			}
			if got := walErrors(t, reg); got != 1 {
				t.Errorf("pac_wal_journal_errors_total = %v, want 1", got)
			}
			if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".tmp-*")); len(left) != 0 {
				t.Errorf("staged files left: %v", left)
			}
			if got := replayIDs(t, path); len(got) != 1 || got[0] != "n-j2" {
				t.Errorf("replayed %v, want [n-j2]", got)
			}
		})
	}
	t.Run("in-append", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "jobs.wal")
		reg := telemetry.NewRegistry()
		l, _, err := Open(Config{Path: path, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		fsys := durabletest.New()
		l.fs = fsys
		for i := 0; i < 512; i++ {
			id := fmt.Sprintf("n-j%06d", i)
			if err := l.Submit(id, "simulate", nil); err != nil {
				t.Fatal(err)
			}
			if err := l.Done(id); err != nil {
				t.Fatal(err)
			}
		}
		// 1024 records: the next terminal record, leaving no live job,
		// folds the journal.
		if err := l.Submit("n-x", "simulate", nil); err != nil {
			t.Fatal(err)
		}
		fsys.Arm(durabletest.RenameError)
		if err := l.Done("n-x"); err != nil {
			t.Fatalf("Done whose compaction failed: %v", err)
		}
		if fsys.Fired() != 1 || walErrors(t, reg) != 1 {
			t.Fatalf("fired %d, pac_wal_journal_errors_total = %v; want 1 and 1", fsys.Fired(), walErrors(t, reg))
		}
		if err := l.Submit("n-keep", "simulate", []byte("live")); err != nil {
			t.Fatal(err)
		}
		if got := replayIDs(t, path); len(got) != 1 || got[0] != "n-keep" {
			t.Errorf("replayed %v, want [n-keep]", got)
		}
		l.Close()
	})
}
