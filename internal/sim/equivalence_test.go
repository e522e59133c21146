package sim

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/workload"
)

// allModes is every coalescing configuration a run can use.
var allModes = []coalesce.Mode{
	coalesce.ModeNone,
	coalesce.ModeDMC,
	coalesce.ModePAC,
	coalesce.ModeSortNet,
	coalesce.ModeRowBuf,
}

// runBoth executes one configuration under both drivers and returns
// (event, reference) results, failing the test on any run error.
func runBoth(t *testing.T, cfg Config) (*Result, *Result) {
	t.Helper()
	cfg.ReferenceStepper = false
	event := run(t, cfg)
	cfg.ReferenceStepper = true
	ref := run(t, cfg)
	return event, ref
}

// assertEquivalent checks the event kernel's result is byte-identical to
// the reference stepper's, modulo the SkippedCycles driver accounting.
func assertEquivalent(t *testing.T, label string, event, ref *Result) {
	t.Helper()
	if ref.SkippedCycles != 0 {
		t.Errorf("%s: reference stepper reports %d skipped cycles, want 0", label, ref.SkippedCycles)
	}
	ev := *event
	ev.SkippedCycles = 0
	if !reflect.DeepEqual(&ev, ref) {
		t.Errorf("%s: event kernel diverges from reference stepper\nevent: %+v\nref:   %+v", label, ev, *ref)
	}
}

// TestKernelEquivalence proves the tentpole contract: for every
// benchmark × mode combination, the event kernel produces a Result
// byte-identical to the retained cycle-by-cycle stepper — every counter,
// histogram bucket and component snapshot, not just the headline cycle
// count. It also checks the kernel actually skips cycles somewhere, so a
// regression to pure ticking cannot pass silently.
func TestKernelEquivalence(t *testing.T) {
	var totalSkipped int64
	for _, bench := range workload.Names() {
		for _, mode := range allModes {
			label := fmt.Sprintf("%s/%s", bench, mode)
			t.Run(label, func(t *testing.T) {
				cfg := smallConfig(bench, mode)
				cfg.AccessesPerCore = 1_200
				event, ref := runBoth(t, cfg)
				assertEquivalent(t, label, event, ref)
				totalSkipped += event.SkippedCycles
			})
		}
	}
	if totalSkipped == 0 {
		t.Error("event kernel skipped no cycles across the whole matrix")
	}
}

// TestKernelEquivalenceMultiprocess covers the configuration axes the
// benchmark matrix above does not: co-running processes, virtual address
// translation, the disabled network controller, and a disabled
// prefetcher.
func TestKernelEquivalenceMultiprocess(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.Procs = []ProcSpec{{Benchmark: "GS", Cores: 1}, {Benchmark: "STREAM", Cores: 1}}
	cfg.AccessesPerCore = 1_200
	cfg.Virtualize = true
	event, ref := runBoth(t, cfg)
	assertEquivalent(t, "multiprocess", event, ref)

	cfg = smallConfig("BFS", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	cfg.DisableNetworkCtrl = true
	cfg.Prefetch.Degree = -1
	event, ref = runBoth(t, cfg)
	assertEquivalent(t, "noctrl-noprefetch", event, ref)
}

// TestKernelSkipsIdleCycles pins down the kernel's reason to exist: on a
// latency-bound run the skipped share of the clock must be substantial,
// and Cycles must still match the reference exactly.
func TestKernelSkipsIdleCycles(t *testing.T) {
	cfg := smallConfig("STREAM", coalesce.ModePAC)
	cfg.AccessesPerCore = 2_000
	event, ref := runBoth(t, cfg)
	assertEquivalent(t, "STREAM/PAC", event, ref)
	if event.Cycles != ref.Cycles {
		t.Fatalf("cycles diverge: event=%d ref=%d", event.Cycles, ref.Cycles)
	}
	if event.SkippedCycles <= 0 {
		t.Fatalf("SkippedCycles = %d, want > 0", event.SkippedCycles)
	}
	if event.SkippedCycles >= event.Cycles {
		t.Fatalf("SkippedCycles = %d >= Cycles = %d", event.SkippedCycles, event.Cycles)
	}
}

// TestSpecializedDriverSelected pins that every known mode actually
// reaches its monomorphic driver: the selection in runEvents keys on the
// concrete pipeline type, so a construction change that quietly demoted a
// mode to the generic interface driver would pass every equivalence test
// while losing the speedup this package exists for.
func TestSpecializedDriverSelected(t *testing.T) {
	for _, mode := range allModes {
		r, err := NewRunner(smallConfig("GS", mode))
		if err != nil {
			t.Fatalf("%v: NewRunner: %v", mode, err)
		}
		specialized := false
		switch mode {
		case coalesce.ModeNone, coalesce.ModeDMC:
			_, specialized = r.pipe.(*coalesce.Passthrough)
		case coalesce.ModePAC:
			specialized = r.pac != nil
		case coalesce.ModeSortNet:
			_, specialized = r.pipe.(*coalesce.SortingCoalescer)
		case coalesce.ModeRowBuf:
			_, specialized = r.pipe.(*coalesce.RowBufferCoalescer)
		}
		if !specialized {
			t.Errorf("%v: pipeline is %T; runEvents would fall back to the generic driver", mode, r.pipe)
		}
	}
}

// TestWarmScratchByteIdentity proves a reused arena never leaks state
// between runs: one Scratch serves every run of the test, and each run
// switches mode, takes a fresh seed and alternates between the event
// kernel and the reference stepper relative to its predecessor. Every
// run must be byte-identical to the same configuration on a private
// Scratch. Each subtest starts the mode rotation at its own mode, so
// every mode follows every other on the shared arena.
func TestWarmScratchByteIdentity(t *testing.T) {
	sc := NewScratch()
	seed := uint64(100)
	ref := false
	for k, mode := range allModes {
		k := k
		t.Run(mode.String(), func(t *testing.T) {
			for i := 0; i < len(allModes); i++ {
				seed++
				ref = !ref
				cfg := smallConfig("GS", allModes[(k+i)%len(allModes)])
				cfg.AccessesPerCore = 1_500
				cfg.Seed = seed
				cfg.ReferenceStepper = ref
				private := run(t, cfg)
				cfg.Scratch = sc
				if got := run(t, cfg); !reflect.DeepEqual(got, private) {
					t.Fatalf("run %d (%v, seed %d, ref=%v) on the shared Scratch diverges from a private one\nshared:  %+v\nprivate: %+v",
						i, cfg.Mode, cfg.Seed, ref, got, private)
				}
			}
		})
	}
}

// TestWarmScratchAcrossConfigs drives one Scratch through different
// configurations back to back: mode switches and a benchmark switch hand
// each run buffers shaped by a different predecessor, and each result
// must still match its own cold baseline. This is the pacd worker
// pattern — one arena, many jobs.
func TestWarmScratchAcrossConfigs(t *testing.T) {
	sc := NewScratch()
	jobs := []struct {
		bench string
		mode  coalesce.Mode
	}{
		{"GS", coalesce.ModePAC},
		{"GS", coalesce.ModeNone},
		{"STREAM", coalesce.ModePAC},
		{"GS", coalesce.ModePAC}, // back to the first shape
	}
	for i, j := range jobs {
		cfg := smallConfig(j.bench, j.mode)
		cfg.AccessesPerCore = 1_000
		cold := run(t, cfg)
		cfg.Scratch = sc
		warm := run(t, cfg)
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("job %d (%s/%v): warm result diverges from cold\nwarm: %+v\ncold: %+v", i, j.bench, j.mode, warm, cold)
		}
	}
}

// TestWarmScratchFaultsIsolated checks a faulted run does not pollute a
// shared arena: fault injection is run-scoped, so a warm Scratch
// interleaving clean and faulted runs must keep both streams
// byte-identical to their cold counterparts.
func TestWarmScratchFaultsIsolated(t *testing.T) {
	clean := smallConfig("CG", coalesce.ModePAC)
	clean.AccessesPerCore = 1_000
	faulty := clean
	faulty.Faults = chaosPlan()

	coldClean := run(t, clean)
	coldFaulty := run(t, faulty)

	sc := NewScratch()
	for i := 0; i < 2; i++ {
		cfg := clean
		cfg.Scratch = sc
		if got := run(t, cfg); !reflect.DeepEqual(got, coldClean) {
			t.Fatalf("round %d: warm clean run diverges from cold", i)
		}
		cfg = faulty
		cfg.Scratch = sc
		if got := run(t, cfg); !reflect.DeepEqual(got, coldFaulty) {
			t.Fatalf("round %d: warm faulted run diverges from cold", i)
		}
	}
}

// TestKernelEquivalenceTinyCaches stresses the stall paths (full MSHR
// file, held-back packets, outstanding-load blocking) by shrinking every
// buffer, so the closed-form stall emulation is exercised rather than
// the happy path.
func TestKernelEquivalenceTinyCaches(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("CG", mode)
			cfg.AccessesPerCore = 1_500
			cfg.MSHRs = 2
			cfg.MaxSubentries = 2
			cfg.MaxOutstandingLoads = 1
			cfg.Hierarchy = cache.HierarchyConfig{
				Cores: 2,
				L1:    cache.Config{Size: 1 << 10, Ways: 2},
				LLC:   cache.Config{Size: 8 << 10, Ways: 4},
			}
			event, ref := runBoth(t, cfg)
			assertEquivalent(t, mode.String(), event, ref)
		})
	}
}
