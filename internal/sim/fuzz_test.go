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
// pick a mode, one of the kernel workload's four benchmarks, and a cut
// point as a fraction of the run (cut/65536). A run checkpointed at that
// cycle, its checkpoint round-tripped through gob and resumed under
// either driver, must reproduce the uninterrupted run exactly.
func FuzzCheckpointResume(f *testing.F) {
	for i := range allModes {
		f.Add(uint8(i), uint8(i), uint16(12_000*(i+1)))
	}
	f.Fuzz(func(t *testing.T, modeIdx, benchIdx uint8, cut uint16) {
		mode := allModes[int(modeIdx)%len(allModes)]
		bench := fuzzBenches[int(benchIdx)%len(fuzzBenches)]
		cfg := smallConfig(bench, mode)
		cfg.AccessesPerCore = 600
		base := run(t, cfg)
		at := 1 + (base.Cycles-1)*int64(cut)/65536
		ck := checkpointAt(t, cfg, at)
		for _, ref := range []bool{false, true} {
			dst := cfg
			dst.ReferenceStepper = ref
			got := resumeRun(t, dst, ck)
			assertSameResult(t, fmt.Sprintf("%s/%s cut@%d reference=%v", bench, mode, at, ref), got, base)
		}
	})
}

// checkpointAt runs cfg under the reference stepper, which visits every
// cycle, until it checkpoints at cycle at, and returns that checkpoint
// after a gob round trip.
func checkpointAt(t *testing.T, cfg Config, at int64) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ck *Checkpoint
	cfg.ReferenceStepper = true
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
	if ck == nil || ck.Now != at {
		t.Fatalf("wanted a checkpoint at cycle %d, got %v", at, ck)
	}
	return ck
}
