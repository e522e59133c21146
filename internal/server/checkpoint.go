package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/telemetry"
)

// Checkpoint files make long simulations restartable: the daemon writes
// one resumable sim.Checkpoint per in-flight default-variant simulation
// under Config.CheckpointDir, keyed by the same SimKey the routing and
// store layers use. After a crash, the WAL re-enqueues the interrupted
// job and the session's checkpoint policy resumes the simulation from
// its last checkpoint instead of restarting it — the resumed run is
// byte-identical to an uninterrupted one (the sim layer's contract).
//
// On-disk format (same crash-safety playbook as internal/store):
//
//	PACCKPT1 <8-byte big-endian payload length> <32-byte SHA-256> <gob payload>
//
// gob alone has no integrity check — a flipped byte can still decode —
// so the envelope carries an explicit digest. Files are committed by
// temp + fsync + rename, off the simulation goroutine (checkpointStore);
// a file that fails the magic, length, or digest check at load is
// quarantined (renamed to *.bad), counted in
// pac_checkpoint_corrupt_total, and treated as absent, so a torn or
// garbled checkpoint can never crash a boot or poison a run.

// ckptMagic brands checkpoint files; a version bump changes the string.
var ckptMagic = []byte("PACCKPT1")

// ckptHead is the envelope header length: magic, payload length, digest.
var ckptHead = len(ckptMagic) + 8 + sha256.Size

// errCkptCorrupt marks a checkpoint file that fails the envelope check.
var errCkptCorrupt = errors.New("server: corrupt checkpoint file")

// encodeCheckpointFile wraps the gob stream in the checksummed envelope.
// The header is reserved up front and filled in once the payload is
// encoded after it, so the file is built in one buffer with no copy.
func encodeCheckpointFile(ck *sim.Checkpoint) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, ckptHead))
	if err := sim.EncodeCheckpoint(buf, ck); err != nil {
		return nil, err
	}
	blob := buf.Bytes()
	copy(blob, ckptMagic)
	binary.BigEndian.PutUint64(blob[len(ckptMagic):], uint64(len(blob)-ckptHead))
	sum := sha256.Sum256(blob[ckptHead:])
	copy(blob[len(ckptMagic)+8:], sum[:])
	return blob, nil
}

// decodeCheckpointFile validates the envelope and decodes the payload.
func decodeCheckpointFile(blob []byte) (*sim.Checkpoint, error) {
	if len(blob) < ckptHead || !bytes.Equal(blob[:len(ckptMagic)], ckptMagic) {
		return nil, errCkptCorrupt
	}
	n := binary.BigEndian.Uint64(blob[len(ckptMagic) : len(ckptMagic)+8])
	payload := blob[ckptHead:]
	if uint64(len(payload)) != n {
		return nil, errCkptCorrupt
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], blob[len(ckptMagic)+8:ckptHead]) {
		return nil, errCkptCorrupt
	}
	ck, err := sim.DecodeCheckpoint(bytes.NewReader(payload))
	if err != nil {
		return nil, errCkptCorrupt
	}
	return ck, nil
}

// checkpointStore persists one checkpoint file per simulation key. All
// operations are best-effort: a failed write costs at most the resume
// head start, never the job.
//
// save and drop run on the simulation goroutine, so they do no I/O: each
// records the key's newest wanted state (a snapshot, or removal) and
// returns. One writer goroutine, started on demand and gone when idle,
// applies the records in arrival order. A record the writer has not
// started is replaced by a newer one for the same key, so a checkpoint
// whose cell finished first is never encoded. load waits for the key's
// pending or in-flight record; wait waits for the writer to go idle.
// close makes the store refuse new records, so once it returns the
// directory no longer changes.
type checkpointStore struct {
	dir string

	mu   sync.Mutex
	idle *sync.Cond // broadcast whenever the writer finishes a record
	// pending maps a key to its newest unstarted record: the snapshot
	// to write, or nil for removal. queue holds the pending keys in
	// arrival order; a replaced record keeps its key's place.
	pending  map[string]*sim.Checkpoint
	queue    []string
	inFlight string // key whose record the writer is applying
	writing  bool   // the writer goroutine is running
	closed   bool   // close was called: new records are dropped

	writes     *telemetry.Counter
	writeFails *telemetry.Counter
	superseded *telemetry.Counter
	loads      *telemetry.Counter
	drops      *telemetry.Counter
	corrupt    *telemetry.Counter
}

func newCheckpointStore(dir string, reg *telemetry.Registry) *checkpointStore {
	c := &checkpointStore{
		dir:     dir,
		pending: make(map[string]*sim.Checkpoint),
		writes: reg.Counter("pac_checkpoint_writes_total",
			"Simulation checkpoints committed to the checkpoint directory."),
		writeFails: reg.Counter("pac_checkpoint_write_failures_total",
			"Checkpoint writes that failed (the run continues without them)."),
		superseded: reg.Counter("pac_checkpoint_superseded_total",
			"Checkpoints replaced by a newer snapshot or a removal before they were written."),
		loads: reg.Counter("pac_checkpoint_loads_total",
			"Stored checkpoints loaded to resume an interrupted simulation."),
		drops: reg.Counter("pac_checkpoint_drops_total",
			"Checkpoint files removed after their simulation completed (or failed to restore)."),
		corrupt: reg.Counter("pac_checkpoint_corrupt_total",
			"Checkpoint files quarantined (*.bad) after failing the envelope check."),
	}
	c.idle = sync.NewCond(&c.mu)
	return c
}

// path maps a simulation key (hex, so path-safe) to its checkpoint file.
func (c *checkpointStore) path(key string) string {
	return filepath.Join(c.dir, key+".ck")
}

// save records ck as the key's newest checkpoint. The sim layer hands
// over a deep copy that stays valid, so the writer encodes it later.
func (c *checkpointStore) save(key string, ck *sim.Checkpoint) { c.record(key, ck) }

// drop records the removal of the key's checkpoint file.
func (c *checkpointStore) drop(key string) { c.record(key, nil) }

// record makes ck (nil for removal) the key's newest wanted state and
// starts the writer if it is not running. A closed store drops it.
func (c *checkpointStore) record(key string, ck *sim.Checkpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if old, ok := c.pending[key]; ok {
		if old != nil {
			c.superseded.Inc()
		}
	} else {
		c.queue = append(c.queue, key)
	}
	c.pending[key] = ck
	if !c.writing {
		c.writing = true
		go c.write()
	}
}

// write is the writer goroutine: it applies pending records in arrival
// order until none is left, then exits.
func (c *checkpointStore) write() {
	c.mu.Lock()
	for len(c.queue) > 0 {
		key := c.queue[0]
		c.queue[0] = ""
		c.queue = c.queue[1:]
		ck := c.pending[key]
		delete(c.pending, key)
		c.inFlight = key
		c.mu.Unlock()
		if ck != nil {
			c.commit(key, ck)
		} else if err := os.Remove(c.path(key)); err == nil {
			c.drops.Inc()
		}
		c.mu.Lock()
		c.inFlight = ""
		c.idle.Broadcast()
	}
	c.queue = nil
	c.writing = false
	c.idle.Broadcast()
	c.mu.Unlock()
}

// commit writes one checkpoint by temp + fsync + rename. Failures are
// swallowed (and counted): losing a checkpoint only costs resume time.
func (c *checkpointStore) commit(key string, ck *sim.Checkpoint) {
	blob, err := encodeCheckpointFile(ck)
	if err != nil {
		c.writeFails.Inc()
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		c.writeFails.Inc()
		return
	}
	tmp := c.path(key) + ".tmp"
	if err := writeFileSync(tmp, blob); err != nil {
		os.Remove(tmp)
		c.writeFails.Inc()
		return
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		c.writeFails.Inc()
		return
	}
	c.writes.Inc()
}

// wait blocks until the writer has applied every record and exited.
func (c *checkpointStore) wait() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.writing {
		c.idle.Wait()
	}
}

// close stops the store taking records and waits for the writer to
// apply the ones it has. A cancelled job's simulation may still be
// running, detached, until its next context poll; what it saves or drops
// after close is discarded, so the directory stays as close left it. A
// dropped save only costs resume time, and a file a drop would have
// removed resumes a run byte-identical to a fresh one.
func (c *checkpointStore) close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wait()
}

// writeFileSync writes blob and fsyncs before close, so the following
// rename publishes fully durable bytes.
func writeFileSync(path string, blob []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// load returns the stored checkpoint for key, or nil, once the key's
// pending or in-flight record is on disk. It reads under the lock, so
// the writer cannot start a newer record for the key meanwhile. A file
// that fails the envelope check is quarantined as *.bad and reported
// absent.
func (c *checkpointStore) load(key string) *sim.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if _, pending := c.pending[key]; !pending && c.inFlight != key {
			break
		}
		c.idle.Wait()
	}
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil
	}
	ck, err := decodeCheckpointFile(blob)
	if err != nil {
		os.Rename(c.path(key), c.path(key)+".bad")
		c.corrupt.Inc()
		return nil
	}
	c.loads.Inc()
	return ck
}

// checkpointPolicy builds the session checkpoint policy for one options
// key. Every session drawn from the pool gets one, so any default-
// variant simulation the daemon runs — API-driven or recovered — can
// checkpoint and resume under the key the rest of the system already
// uses for it.
func (s *Server) checkpointPolicy(optsKey string) *experiments.CheckpointPolicy {
	if s.ckpts == nil {
		return nil
	}
	cs := s.ckpts
	return &experiments.CheckpointPolicy{
		Every: s.cfg.CheckpointEvery,
		Sink: func(bench string, mode coalesce.Mode, ck *sim.Checkpoint) {
			cs.save(SimKey(optsKey, bench, mode), ck)
		},
		Load: func(bench string, mode coalesce.Mode) *sim.Checkpoint {
			return cs.load(SimKey(optsKey, bench, mode))
		},
		Drop: func(bench string, mode coalesce.Mode) {
			cs.drop(SimKey(optsKey, bench, mode))
		},
	}
}
