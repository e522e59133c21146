package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pacsim/pac/internal/coalesce"
)

var updateFixtures = flag.Bool("update", false, "rewrite the checkpoint fixtures under testdata/checkpoint")

// fixtureDir holds gob-encoded checkpoints written by an earlier build.
const fixtureDir = "testdata/checkpoint"

// fixtureCase is one configuration with a committed mid-run checkpoint.
type fixtureCase struct {
	name string
	cfg  Config
}

// fixtureCases covers every mode on the stall-heavy tiny-caches machine,
// plus one PAC run with a fault plan, two processes and virtual address
// translation, so the fault injector's and the page tables' states are
// in a fixture too.
func fixtureCases() []fixtureCase {
	var cs []fixtureCase
	for _, mode := range allModes {
		cs = append(cs, fixtureCase{"tiny-" + strings.ToLower(mode.String()), tinyCachesConfig(mode)})
	}
	chaos := smallConfig("GS", coalesce.ModePAC)
	chaos.Procs = []ProcSpec{{Benchmark: "GS", Cores: 1}, {Benchmark: "STREAM", Cores: 1}}
	chaos.AccessesPerCore = 1_200
	chaos.Faults = chaosPlan()
	chaos.Virtualize = true
	return append(cs, fixtureCase{"chaos-vm-pac", chaos})
}

// TestCheckpointFixturesResume pins the checkpoint wire format: each
// committed fixture was encoded by an earlier build, and must still
// decode, resume, and reproduce the uninterrupted run exactly. A change
// that breaks it needs a new checkpoint magic in internal/server, not
// new fixtures. Run with -update to rewrite the fixtures from the
// current build.
func TestCheckpointFixturesResume(t *testing.T) {
	for _, fc := range fixtureCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			base := run(t, fc.cfg)
			path := filepath.Join(fixtureDir, fc.name+".gob")
			if *updateFixtures {
				writeFixture(t, fc.cfg, base, path)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture: %v (run with -update to create it)", err)
			}
			ck, err := DecodeCheckpoint(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("decoding %s: %v", path, err)
			}
			if fc.cfg.Faults.Enabled() && (ck.Faults == nil || len(ck.Spaces) == 0) {
				t.Fatalf("%s lacks the fault or address-space state it exists to cover", path)
			}
			got := resumeRun(t, fc.cfg, ck)
			assertSameResult(t, fmt.Sprintf("%s @%d", fc.name, ck.Now), got, base)
		})
	}
}

// writeFixture encodes the middle checkpoint of a checkpointed run of
// cfg to path.
func writeFixture(t *testing.T, cfg Config, base *Result, path string) {
	t.Helper()
	_, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cks[len(cks)/2]); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
