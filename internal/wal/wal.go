// Package wal is pacd's write-ahead job journal: the durability layer
// that makes accepted work survive a crash. Every job not already
// finished at acceptance is journaled — canonical request payload
// included — before it is acknowledged, and retired by one terminal
// record when it finishes. On boot the journal is
// replayed and the surviving non-terminal jobs are handed back to the
// server, which re-enqueues them under their original IDs; together
// with the content-addressed result store's deduplication this yields
// effectively exactly-once execution from an at-least-once journal.
//
// The on-disk format is one CRC-guarded line per record, appends
// fsynced before the caller proceeds, replay that skips torn or corrupt
// lines instead of failing the boot, and compaction that atomically
// rewrites the journal (durable.WriteFile, then a directory fsync) down
// to the records still needed to describe live jobs. Of pacd's three
// stores only the journal promises to survive power loss (DESIGN.md §13
// "Crash model").
//
//	<op> <id> <kind> <base64-payload>#<crc32-hex>\n
//
// Ops: "submit" (carries kind + payload), "done", "fail", "cancel".
// Non-submit records carry "-" placeholders so every line parses
// uniformly. The CRC covers everything before the '#'. Journals written
// by earlier builds also hold "run" records (queued → running); they
// still parse, and replay ignores them: recovery re-enqueues a queued
// and a started job the same way.
package wal

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"github.com/pacsim/pac/internal/durable"
	"github.com/pacsim/pac/internal/telemetry"
)

// Record ops, in lifecycle order. OpRun is never written; replay
// accepts and ignores it (see the package comment).
const (
	OpSubmit = "submit"
	OpRun    = "run"
	OpDone   = "done"
	OpFail   = "fail"
	OpCancel = "cancel"
)

const (
	maxIDLen      = 128
	maxKindLen    = 64
	maxPayloadLen = 1 << 20 // decoded bytes; jobs carry request JSON, not data
	placeholder   = "-"
)

// Job is one replayed, still-live journal entry: a job that was
// accepted (and possibly started) but never reached a terminal state
// before the previous process died.
type Job struct {
	// ID is the job's original identifier; recovery re-enqueues under
	// it so clients polling a pre-crash ID still converge.
	ID string
	// Kind names the payload schema (pacd uses "simulate").
	Kind string
	// Payload is the canonical request recorded at submit.
	Payload []byte
}

// Config parameterises Open. Path is required.
type Config struct {
	// Path is the journal file; created if missing, parent directory
	// must exist.
	Path string
	// Registry receives the pac_wal_* metrics; nil creates a fresh
	// (unexposed) one.
	Registry *telemetry.Registry
}

// Log is the append-only job journal; build with Open, close with
// Close. Safe for concurrent use.
type Log struct {
	cfg Config
	fs  durable.FS

	mu      sync.Mutex
	f       durable.File
	jobs    map[string]*jobEntry
	order   []string // live job IDs in submit order
	records int      // records since the last compaction
	closed  bool
	torn    bool // an append failed; the next one compacts first

	recs        *telemetry.Counter
	replayed    *telemetry.Counter
	corrupt     *telemetry.Counter
	compactions *telemetry.Counter
	errs        *telemetry.Counter
}

// jobEntry is the in-memory image of one live (non-terminal) job.
type jobEntry struct {
	kind    string
	payload []byte
}

// Open creates or reopens the journal at cfg.Path, replays it — torn or
// corrupt lines are counted and skipped, never fatal — and returns the
// jobs that never reached a terminal state, in their original submit
// order. The replayed journal is compacted before Open returns, so a
// crash loop cannot grow it without bound.
func Open(cfg Config) (*Log, []Job, error) {
	if cfg.Path == "" {
		return nil, nil, errors.New("wal: Path is required")
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	l := &Log{cfg: cfg, fs: durable.OS, jobs: make(map[string]*jobEntry)}
	reg := cfg.Registry
	l.recs = reg.Counter("pac_wal_records_total", "Job-journal records appended.")
	l.replayed = reg.Counter("pac_wal_replayed_jobs_total", "Non-terminal jobs recovered from the journal at boot.")
	l.corrupt = reg.Counter("pac_wal_corrupt_records_total", "Torn or corrupt job-journal records skipped during replay.")
	l.compactions = reg.Counter("pac_wal_compactions_total", "Job-journal compactions performed.")
	l.errs = reg.Counter("pac_wal_journal_errors_total", "Job-journal appends and compactions that failed.")
	reg.GaugeFunc("pac_wal_live_jobs", "Non-terminal jobs tracked by the journal.", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(len(l.jobs))
	})

	if err := l.replay(); err != nil {
		return nil, nil, err
	}
	durable.SweepTemps(filepath.Dir(cfg.Path), filepath.Base(cfg.Path))
	recovered := make([]Job, 0, len(l.order))
	for _, id := range l.order {
		e := l.jobs[id]
		recovered = append(recovered, Job{
			ID:      id,
			Kind:    e.kind,
			Payload: append([]byte(nil), e.payload...),
		})
		l.replayed.Inc()
	}
	if err := l.compactLocked(); err != nil {
		return nil, nil, err
	}
	return l, recovered, nil
}

// replay rebuilds the live-job set from the journal file.
func (l *Log) replay() error {
	blob, err := os.ReadFile(l.cfg.Path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: reading journal: %w", err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if line == "" {
			continue
		}
		rec, ok := ParseRecord(line)
		if !ok {
			l.corrupt.Inc()
			continue
		}
		l.applyLocked(rec)
	}
	return nil
}

// applyLocked folds one parsed record into the live-job set. Records
// that reference unknown jobs (their submit was lost to corruption, or
// a duplicate terminal record) are ignored — replay is idempotent.
func (l *Log) applyLocked(rec Record) {
	switch rec.Op {
	case OpSubmit:
		if _, exists := l.jobs[rec.ID]; exists {
			return // duplicate submit; first one wins
		}
		l.jobs[rec.ID] = &jobEntry{kind: rec.Kind, payload: rec.Payload}
		l.order = append(l.order, rec.ID)
	case OpDone, OpFail, OpCancel:
		if _, exists := l.jobs[rec.ID]; exists {
			delete(l.jobs, rec.ID)
			for i, id := range l.order {
				if id == rec.ID {
					l.order = append(l.order[:i], l.order[i+1:]...)
					break
				}
			}
		}
	}
}

// ValidID reports whether id is journal-safe: non-empty, bounded, and
// free of whitespace and separator bytes. pacd job IDs
// ("<node>-j000042") satisfy it by construction.
func ValidID(id string) bool {
	if id == "" || len(id) > maxIDLen {
		return false
	}
	for _, c := range id {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == ':'
		if !ok {
			return false
		}
	}
	return true
}

// validKind applies the same shape rule to the payload-kind token.
func validKind(kind string) bool {
	return kind != placeholder && len(kind) <= maxKindLen && ValidID(kind)
}

// Submit journals an accepted job with its canonical request payload
// and syncs the record to disk before returning — the acknowledgement
// barrier: once Submit returns, a crash cannot lose the job.
func (l *Log) Submit(id, kind string, payload []byte) error {
	if !validKind(kind) {
		return fmt.Errorf("wal: invalid kind %q", kind)
	}
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("wal: payload of %d bytes exceeds the %d limit", len(payload), maxPayloadLen)
	}
	return l.append(Record{Op: OpSubmit, ID: id, Kind: kind, Payload: payload})
}

// Done journals successful completion, retiring the job.
func (l *Log) Done(id string) error { return l.append(Record{Op: OpDone, ID: id}) }

// Fail journals terminal failure, retiring the job.
func (l *Log) Fail(id string) error { return l.append(Record{Op: OpFail, ID: id}) }

// Cancel journals cancellation, retiring the job.
func (l *Log) Cancel(id string) error { return l.append(Record{Op: OpCancel, ID: id}) }

// Live returns the number of non-terminal jobs currently tracked.
func (l *Log) Live() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.jobs)
}

// append journals one record: write the line, fsync, apply it to the
// in-memory image, and maybe fold the journal. The fsync-before-return
// is what makes the journal a durability barrier. A failed append is
// counted in pac_wal_journal_errors_total and never reaches the image.
func (l *Log) append(rec Record) error {
	if !ValidID(rec.ID) {
		return fmt.Errorf("wal: invalid job id %q", rec.ID)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	// After a failed append the file may end in a partial line, which
	// would swallow this one, or in a line whose fsync failed, and a
	// retried fsync proves nothing: the kernel may already have dropped
	// the pages. So rewrite it first from the in-memory image, which
	// never received the failed record.
	if l.torn {
		if err := l.compactLocked(); err != nil {
			return err
		}
	}
	if l.f == nil {
		f, err := l.fs.OpenFile(l.cfg.Path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			l.errs.Inc()
			return fmt.Errorf("wal: opening journal: %w", err)
		}
		l.f = f
	}
	if err := durable.Append(l.f, []byte(FormatRecord(rec))); err != nil {
		l.torn = true
		l.errs.Inc()
		return fmt.Errorf("wal: journal append: %w", err)
	}
	l.applyLocked(rec)
	l.records++
	l.recs.Inc()
	// Terminal-record churn grows the journal without bound; fold it
	// back to the live set once dead records clearly dominate. The
	// record is durable either way, so a failed fold (counted; the old
	// journal stays in place) does not fail the append.
	if l.records > 8*len(l.jobs)+1024 {
		l.compactLocked()
	}
	return nil
}

// compactLocked atomically rewrites the journal down to the records
// describing the live jobs (one submit per job), then fsyncs its
// directory so the rewrite survives power loss. A failure is counted;
// if the rewrite did not land, the old journal stays in place. Called
// with l.mu held (or from Open before the log is shared).
func (l *Log) compactLocked() error {
	var buf bytes.Buffer
	for _, id := range l.order {
		e := l.jobs[id]
		buf.WriteString(FormatRecord(Record{Op: OpSubmit, ID: id, Kind: e.kind, Payload: e.payload}))
	}
	if err := durable.WriteFile(l.fs, l.cfg.Path, buf.Bytes()); err != nil {
		l.errs.Inc()
		return fmt.Errorf("wal: compacting journal: %w", err)
	}
	if l.f != nil {
		l.f.Close() // points at the unlinked file
		l.f = nil
	}
	l.torn = false
	l.records = len(l.order)
	l.compactions.Inc()
	if err := durable.SyncDir(l.fs, filepath.Dir(l.cfg.Path)); err != nil {
		l.errs.Inc()
		return fmt.Errorf("wal: compacting journal: %w", err)
	}
	return nil
}

// Close compacts the journal and releases the append handle. The log
// must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.compactLocked()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// ---------------------------------------------------------------------
// Record encode/decode. Exported so the fuzz target (and the recovery
// tooling) can exercise the parser directly.

// Record is one journal line in parsed form.
type Record struct {
	Op      string
	ID      string
	Kind    string // submit only; "" otherwise
	Payload []byte // submit only; nil otherwise
}

// FormatRecord renders one journal line, CRC included.
func FormatRecord(rec Record) string {
	kind, payload := rec.Kind, placeholder
	if rec.Op != OpSubmit {
		kind = placeholder
	} else if len(rec.Payload) > 0 {
		payload = base64.StdEncoding.EncodeToString(rec.Payload)
	}
	body := rec.Op + " " + rec.ID + " " + kind + " " + payload
	return body + "#" + strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(body))), 16) + "\n"
}

// ParseRecord parses and verifies one journal line (without trailing
// newline). It never panics on hostile input — the fuzz suite holds it
// to that — and returns ok=false for anything torn, truncated, or
// altered since FormatRecord produced it.
func ParseRecord(line string) (Record, bool) {
	hash := strings.LastIndexByte(line, '#')
	if hash < 0 {
		return Record{}, false
	}
	body, sum := line[:hash], line[hash+1:]
	want, err := strconv.ParseUint(sum, 16, 32)
	if err != nil || crc32.ChecksumIEEE([]byte(body)) != uint32(want) {
		return Record{}, false
	}
	fields := strings.Split(body, " ")
	if len(fields) != 4 || !ValidID(fields[1]) {
		return Record{}, false
	}
	rec := Record{Op: fields[0], ID: fields[1]}
	switch rec.Op {
	case OpSubmit:
		if !validKind(fields[2]) {
			return Record{}, false
		}
		rec.Kind = fields[2]
		if fields[3] != placeholder {
			payload, err := base64.StdEncoding.DecodeString(fields[3])
			if err != nil || len(payload) > maxPayloadLen {
				return Record{}, false
			}
			rec.Payload = payload
		}
	case OpRun, OpDone, OpFail, OpCancel:
		if fields[2] != placeholder || fields[3] != placeholder {
			return Record{}, false
		}
	default:
		return Record{}, false
	}
	return rec, true
}
