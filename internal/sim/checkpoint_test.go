package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/gobenc"
)

// checkpointedRun executes cfg with checkpointing at the given cadence
// and returns the result plus every emitted checkpoint. The checkpoints
// are gob round-tripped only after the run has finished, so the test
// also proves that a checkpoint stays valid while the run continues (it
// shares no buffer the run recycles) and that the encoding is lossless.
func checkpointedRun(t *testing.T, cfg Config, every int64) (*Result, []*Checkpoint) {
	t.Helper()
	var cks []*Checkpoint
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = func(ck *Checkpoint) { cks = append(cks, ck) }
	res := run(t, cfg)
	for i, ck := range cks {
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, ck); err != nil {
			t.Fatalf("EncodeCheckpoint: %v", err)
		}
		dec, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("DecodeCheckpoint: %v", err)
		}
		cks[i] = dec
	}
	return res, cks
}

// resumeRun resumes from a checkpoint and runs to completion.
func resumeRun(t *testing.T, cfg Config, ck *Checkpoint) *Result {
	t.Helper()
	cfg.CheckpointEvery = 0
	cfg.CheckpointSink = nil
	r, err := ResumeFrom(cfg, ck)
	if err != nil {
		t.Fatalf("ResumeFrom: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run (resumed): %v", err)
	}
	return res
}

// assertSameResult compares two results byte-for-byte modulo
// SkippedCycles, which is driver accounting: a resumed run only skips
// cycles after the resume point, so its skip total legitimately differs
// from the uninterrupted run's.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.SkippedCycles, w.SkippedCycles = 0, 0
	if !reflect.DeepEqual(&g, &w) {
		t.Errorf("%s: resumed result diverges from uninterrupted run\ngot:  %+v\nwant: %+v", label, g, w)
	}
}

// cadenceFor picks a checkpoint interval that yields several checkpoints
// over a run of the given length.
func cadenceFor(cycles int64) int64 {
	every := cycles / 6
	if every < 1 {
		every = 1
	}
	return every
}

// stalledAt reports whether resuming cfg from ck starts with the MSHR
// file full and a packet held back at the coalescer output: the state
// in which the event driver's wake cache and head-probe memo start cold.
func stalledAt(t *testing.T, cfg Config, ck *Checkpoint) bool {
	t.Helper()
	cfg.CheckpointEvery = 0
	cfg.CheckpointSink = nil
	r, err := ResumeFrom(cfg, ck)
	if err != nil {
		t.Fatalf("ResumeFrom: %v", err)
	}
	return r.file.Full() && r.pipe.OutLen() > 0
}

// TestCheckpointResumeByteIdentity is the crash-safety tentpole
// contract: for every mode under both drivers, (1) a checkpointing run
// is byte-identical to a non-checkpointing run, and (2) resuming from
// any mid-run checkpoint and running to completion reproduces the
// uninterrupted result exactly — every counter, histogram bucket and
// component snapshot. Checkpoints cross the gob codec on the way, so
// the serialized form is proven lossless too. The tiny-caches input
// makes some resumes start stalled (full MSHR file, held-back head
// packet); the test fails if no event-driver resume does, and if none
// starts with a core holding an access its L1 run-ahead drew.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	inputs := []struct {
		name string // subtest prefix; the base input keeps the bare mode/driver names
		cfg  func(coalesce.Mode) Config
	}{
		{"", func(mode coalesce.Mode) Config {
			cfg := smallConfig("GS", mode)
			cfg.AccessesPerCore = 1_200
			return cfg
		}},
		{"tiny", tinyCachesConfig},
	}
	stalled, held := 0, 0
	for _, in := range inputs {
		for _, mode := range allModes {
			for _, ref := range []bool{false, true} {
				in, mode, ref := in, mode, ref
				driver := "events"
				if ref {
					driver = "reference"
				}
				name := fmt.Sprintf("%s/%s", mode, driver)
				if in.name != "" {
					name = in.name + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					cfg := in.cfg(mode)
					cfg.ReferenceStepper = ref
					base := run(t, cfg)

					ckRes, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
					if !reflect.DeepEqual(ckRes, base) {
						t.Fatalf("checkpointing perturbed the run\nwith:    %+v\nwithout: %+v", *ckRes, *base)
					}
					if len(cks) < 3 {
						t.Fatalf("got %d checkpoints, want >= 3 (cycles=%d)", len(cks), base.Cycles)
					}
					for _, i := range []int{0, len(cks) / 2, len(cks) - 1} {
						if !ref && stalledAt(t, cfg, cks[i]) {
							stalled++
						}
						held += heldAccesses(cks[i])
						got := resumeRun(t, cfg, cks[i])
						assertSameResult(t, fmt.Sprintf("checkpoint %d @%d", i, cks[i].Now), got, base)
					}
				})
			}
		}
	}
	if stalled == 0 {
		t.Error("no resume under the event driver started from a stalled state")
	}
	if held == 0 {
		t.Error("no resume under the event driver started with a held run-ahead access")
	}
}

// TestCheckpointResumeCrossDriver proves a checkpoint is driver-neutral:
// taken under the event kernel, resumed under the reference stepper —
// and the reverse — still reproduces the uninterrupted result. The
// config signature deliberately excludes ReferenceStepper for exactly
// this reason.
func TestCheckpointResumeCrossDriver(t *testing.T) {
	cfg := smallConfig("CG", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	base := run(t, cfg)

	for _, takeRef := range []bool{false, true} {
		src := cfg
		src.ReferenceStepper = takeRef
		_, cks := checkpointedRun(t, src, cadenceFor(base.Cycles))
		dst := cfg
		dst.ReferenceStepper = !takeRef
		got := resumeRun(t, dst, cks[len(cks)/2])
		assertSameResult(t, fmt.Sprintf("takeRef=%v", takeRef), got, base)
	}
}

// TestCheckpointResumeFaults extends the resume contract to degraded
// hardware: the fault injector's PRNG streams and pending stall window
// are part of the checkpoint, so a resumed chaos run must replay the
// exact same fault sequence.
func TestCheckpointResumeFaults(t *testing.T) {
	for _, mode := range []coalesce.Mode{coalesce.ModePAC, coalesce.ModeDMC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("CG", mode)
			cfg.AccessesPerCore = 1_200
			cfg.Faults = chaosPlan()
			base := run(t, cfg)
			if base.Faults.Total() == 0 {
				t.Fatal("chaos plan injected no faults; test is vacuous")
			}
			_, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
			got := resumeRun(t, cfg, cks[len(cks)/2])
			assertSameResult(t, mode.String(), got, base)
		})
	}
}

// TestCheckpointResumeMultiprocessVirtualized covers the remaining
// config axes: co-running processes and virtual address translation.
// The page tables' insertion-order-dependent layout is serialized, so
// post-resume allocations probe exactly as the original run would have.
func TestCheckpointResumeMultiprocessVirtualized(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.Procs = []ProcSpec{{Benchmark: "GS", Cores: 1}, {Benchmark: "STREAM", Cores: 1}}
	cfg.AccessesPerCore = 1_200
	cfg.Virtualize = true
	base := run(t, cfg)
	_, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
	got := resumeRun(t, cfg, cks[len(cks)/2])
	assertSameResult(t, "multiprocess-virtualized", got, base)
}

// TestCheckpointResumeWarmScratch resumes onto a Scratch that has
// already completed runs of other configurations, so the resumed
// machine is built from recycled buffers shaped by different runs. The
// resumed result must match the uninterrupted run, and a full run on the
// same Scratch afterwards must still match it too.
func TestCheckpointResumeWarmScratch(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	base := run(t, cfg)
	_, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
	ck := cks[len(cks)/2]

	sc := NewScratch()
	for _, other := range []Config{
		smallConfig("STREAM", coalesce.ModePAC),
		smallConfig("GS", coalesce.ModeNone),
	} {
		other.AccessesPerCore = 1_500
		other.Scratch = sc
		run(t, other)
	}
	warm := cfg
	warm.Scratch = sc

	got := resumeRun(t, warm, ck)
	assertSameResult(t, "warm-scratch", got, base)

	again := run(t, warm)
	assertSameResult(t, "post-resume-full-run", again, base)
}

// TestCheckpointMismatchRejected proves a checkpoint cannot be restored
// onto a machine it does not describe.
func TestCheckpointMismatchRejected(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	_, cks := checkpointedRun(t, cfg, 2_000)
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	ck := cks[0]

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := ResumeFrom(other, ck); err == nil {
		t.Error("ResumeFrom accepted a checkpoint from a different seed")
	}
	other = cfg
	other.Mode = coalesce.ModeNone
	if _, err := ResumeFrom(other, ck); err == nil {
		t.Error("ResumeFrom accepted a checkpoint from a different mode")
	}
}

// TestCheckpointCallerGeneratorsRejected pins the documented limit:
// caller-supplied generators have no replay contract, so both
// checkpointing and resuming refuse them.
func TestCheckpointCallerGeneratorsRejected(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	if err := cfg.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	gens, err := buildGenerators(&cfg)
	if err != nil {
		t.Fatalf("buildGenerators: %v", err)
	}
	cfg.Generators = gens
	cfg.CheckpointEvery = 1_000
	cfg.CheckpointSink = func(*Checkpoint) {}
	if _, err := NewRunner(cfg); err == nil {
		t.Error("NewRunner accepted checkpointing with caller-supplied generators")
	}
	cfg.CheckpointEvery = 0
	cfg.CheckpointSink = nil
	if _, err := ResumeFrom(cfg, &Checkpoint{}); err == nil {
		t.Error("ResumeFrom accepted caller-supplied generators")
	}
}

// TestDecodeCheckpointCorrupt proves a truncated stream reports an
// error instead of yielding a half-restored checkpoint. (gob itself has
// no integrity check — a flipped payload byte can still decode — which
// is why the durable on-disk form adds a checksummed envelope at the
// server layer.)
func TestDecodeCheckpointCorrupt(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	_, cks := checkpointedRun(t, cfg, 2_000)
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cks[0]); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	raw := buf.Bytes()
	if _, err := DecodeCheckpoint(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("DecodeCheckpoint accepted a truncated stream")
	}
	if _, err := DecodeCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Error("DecodeCheckpoint accepted an empty stream")
	}
}

// encodedCheckpoints runs cfg with checkpointing at the given cadence and
// returns each emitted checkpoint's gob encoding, keyed by its cycle.
func encodedCheckpoints(t *testing.T, cfg Config, every int64, resume *Checkpoint) map[int64][]byte {
	t.Helper()
	out := make(map[int64][]byte)
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = func(ck *Checkpoint) {
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, ck); err != nil {
			t.Fatalf("EncodeCheckpoint: %v", err)
		}
		out[ck.Now] = buf.Bytes()
	}
	r, err := NewRunner(cfg)
	if resume != nil {
		r, err = ResumeFrom(cfg, resume)
	}
	if err != nil {
		t.Fatalf("building runner: %v", err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

// TestCheckpointCanonical proves a checkpoint's bytes depend only on the
// simulated state: a run resumed from any checkpoint emits, at every
// later cycle, exactly the bytes the uninterrupted run emitted there. A
// container whose iteration order depends on its insertion history (the
// hierarchy's pending-fill set) must be saved in sorted order for this
// to hold. The reference stepper visits every cycle, so both runs
// checkpoint at the same cycles. The events/ cases run the event
// driver, whose checkpoints carry held accesses and L1 state ahead of
// the clock: a resumed run reaches the same step boundaries (its first,
// cold step only adds a boundary the cadence never lands on), and its
// checkpoints match modulo SkippedCycles, which counts only the cycles
// the resumed run itself skipped.
func TestCheckpointCanonical(t *testing.T) {
	for _, ref := range []bool{true, false} {
		for _, bench := range []string{"STREAM", "BFS"} {
			for _, mode := range allModes {
				ref, bench, mode := ref, bench, mode
				name := fmt.Sprintf("%s/%s", bench, mode)
				if !ref {
					name = "events/" + name
				}
				t.Run(name, func(t *testing.T) {
					cfg := smallConfig(bench, mode)
					cfg.AccessesPerCore = 1_200
					cfg.ReferenceStepper = ref
					every := cadenceFor(run(t, cfg).Cycles)
					want := encodedCheckpoints(t, cfg, every, nil)
					_, cks := checkpointedRun(t, cfg, every)
					compared, held := 0, 0
					for _, ck := range cks {
						held += heldAccesses(ck)
						for at, got := range encodedCheckpoints(t, cfg, every, ck) {
							w, ok := want[at]
							if !ok {
								t.Fatalf("resumed run checkpointed at cycle %d, the uninterrupted run did not", at)
							}
							if !ref {
								got, w = withoutSkipped(t, got), withoutSkipped(t, w)
							}
							if !bytes.Equal(got, w) {
								t.Errorf("checkpoint at cycle %d, resumed from %d: bytes differ from the uninterrupted run's", at, ck.Now)
							}
							compared++
						}
					}
					if compared == 0 {
						t.Fatal("no resumed run emitted a checkpoint; test is vacuous")
					}
					if ref != (held == 0) {
						t.Errorf("checkpoints hold %d run-ahead accesses; want some under the event driver only", held)
					}
				})
			}
		}
	}
}

// heldAccesses counts the cores of ck holding an access the event
// driver's run-ahead drew but did not apply.
func heldAccesses(ck *Checkpoint) int {
	n := 0
	for _, c := range ck.Cores {
		if c.HasLook {
			n++
		}
	}
	return n
}

// withoutSkipped re-encodes a gob checkpoint with Res.SkippedCycles
// zeroed.
func withoutSkipped(t *testing.T, raw []byte) []byte {
	t.Helper()
	ck, err := DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	ck.Res.SkippedCycles = 0
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, ck); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestEncodeCheckpointMatchesFreshEncoder: EncodeCheckpoint sends the
// type descriptors once per process, yet each checkpoint's bytes are
// those a new gob.Encoder writes for it, for every fixture machine,
// faults, processes and page tables included. That holds only while
// Checkpoint has no interface-typed field, whose descriptors gob would
// send with the first value that carries it.
func TestEncodeCheckpointMatchesFreshEncoder(t *testing.T) {
	if path := gobenc.InterfaceField(reflect.TypeFor[Checkpoint]()); path != "" {
		t.Fatalf("Checkpoint holds interface field %s", path)
	}
	compared := 0
	for _, fc := range fixtureCases() {
		_, cks := checkpointedRun(t, fc.cfg, cadenceFor(run(t, fc.cfg).Cycles))
		for _, ck := range cks {
			var got, want bytes.Buffer
			if err := EncodeCheckpoint(&got, ck); err != nil {
				t.Fatalf("EncodeCheckpoint: %v", err)
			}
			if err := gob.NewEncoder(&want).Encode(ck); err != nil {
				t.Fatalf("gob: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s @%d: %d bytes, a fresh encoder writes %d", fc.name, ck.Now, got.Len(), want.Len())
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no checkpoints compared")
	}
}
