package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// fuzzBenches are the four benchmarks of the pacbench kernel workload.
var fuzzBenches = []string{"GS", "STREAM", "BFS", "SSCA2"}

// FuzzCheckpointResume checks resume at an arbitrary cycle. The inputs
// pick a mode, one of the kernel workload's four benchmarks, a cut point
// as a fraction of the run (cut/65536), and the driver that takes the
// checkpoint. A run checkpointed at that cycle (under the event driver,
// at the first step boundary past it, where a core may hold a drawn
// access and its L1 may already be ahead of the clock), its checkpoint
// round-tripped through gob and resumed under either driver, must
// reproduce the uninterrupted run exactly.
func FuzzCheckpointResume(f *testing.F) {
	for i := range allModes {
		f.Add(uint8(i), uint8(i), uint16(12_000*(i+1)), false)
		f.Add(uint8(i), uint8(i+1), uint16(9_000*(i+1)), true)
	}
	f.Fuzz(func(t *testing.T, modeIdx, benchIdx uint8, cut uint16, events bool) {
		mode := allModes[int(modeIdx)%len(allModes)]
		bench := fuzzBenches[int(benchIdx)%len(fuzzBenches)]
		cfg := smallConfig(bench, mode)
		cfg.AccessesPerCore = 600
		base := run(t, cfg)
		at := 1 + (base.Cycles-1)*int64(cut)/65536
		ck := checkpointAt(t, cfg, at, !events)
		if ck == nil {
			t.Skipf("the event driver's last step boundary precedes cycle %d", at)
		}
		for _, ref := range []bool{false, true} {
			dst := cfg
			dst.ReferenceStepper = ref
			got := resumeRun(t, dst, ck)
			assertSameResult(t, fmt.Sprintf("%s/%s cut@%d (taken by events=%v) reference=%v", bench, mode, ck.Now, events, ref), got, base)
		}
	})
}

// checkpointAt runs cfg under the chosen driver until it checkpoints at
// the first step boundary at or past cycle at, and returns that
// checkpoint after a gob round trip. The reference stepper visits every
// cycle, so its checkpoint lands on at exactly; the event driver may
// skip from before at to the end of the run, and then nil is returned.
func checkpointAt(t *testing.T, cfg Config, at int64, reference bool) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ck *Checkpoint
	cfg.ReferenceStepper = reference
	cfg.CheckpointEvery = at
	cfg.CheckpointSink = func(c *Checkpoint) {
		if ck != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, c); err != nil {
			t.Fatalf("EncodeCheckpoint: %v", err)
		}
		dec, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("DecodeCheckpoint: %v", err)
		}
		ck = dec
		cancel() // the rest of this run is not needed
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := r.RunContext(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: %v", err)
	}
	if ck == nil && !reference {
		return nil
	}
	if ck == nil || ck.Now < at || (reference && ck.Now != at) {
		t.Fatalf("wanted a checkpoint at cycle %d (reference=%v), got %v", at, reference, ck)
	}
	return ck
}
