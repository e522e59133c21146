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

// TestWarmScratchByteIdentity proves machine reuse never leaks state: a
// shared Scratch runs the same configuration repeatedly — alternating the
// event kernel and the reference stepper, so a parked machine crosses
// drivers — and every warm Result must be byte-identical to the cold
// baseline (modulo SkippedCycles, which is driver accounting). The first
// run on the Scratch builds cold, the second resets the parked machine
// and records its trace, later ones replay it. Two schedules start on
// opposite drivers, so every phase runs under both drivers in every mode.
func TestWarmScratchByteIdentity(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			base := smallConfig("GS", mode)
			base.AccessesPerCore = 1_500
			c := *run(t, base)
			c.SkippedCycles = 0

			for _, first := range []bool{false, true} {
				sc := NewScratch()
				for i, phase := range []string{"cold", "record", "replay", "replay"} {
					cfg := base
					cfg.Scratch = sc
					cfg.ReferenceStepper = first != (i%2 == 1)
					w := *run(t, cfg)
					w.SkippedCycles = 0
					if !reflect.DeepEqual(&w, &c) {
						t.Fatalf("run %d (%s, ref=%v) diverges from cold run\nwarm: %+v\ncold: %+v",
							i, phase, cfg.ReferenceStepper, w, c)
					}
				}
			}
		})
	}
}

// TestColdRunsNeverRecord pins when workload record-replay engages on a
// shared Scratch: the cold build never records, the parked machine's
// first reuse records into exactly sized traces, and only its second
// reuse replays without generators. Every run must match a run on a
// private Scratch, in every mode under both drivers.
func TestColdRunsNeverRecord(t *testing.T) {
	for _, mode := range allModes {
		for _, ref := range []bool{false, true} {
			mode, ref := mode, ref
			t.Run(fmt.Sprintf("%v/ref=%v", mode, ref), func(t *testing.T) {
				cfg := smallConfig("GS", mode)
				cfg.AccessesPerCore = 1_000
				cfg.ReferenceStepper = ref
				cold := run(t, cfg)

				sc := NewScratch()
				cfg.Scratch = sc
				parked := func(phase string) *machine {
					t.Helper()
					if len(sc.machs) != 1 {
						t.Fatalf("after %s run: %d parked machines, want 1", phase, len(sc.machs))
					}
					return sc.machs[0]
				}

				if got := run(t, cfg); !reflect.DeepEqual(got, cold) {
					t.Fatalf("cold-build run diverges from private-Scratch run\ngot:  %+v\nwant: %+v", got, cold)
				}
				if m := parked("cold-build"); m.recording || m.trace != nil || m.traceOK {
					t.Fatalf("cold build recorded: recording=%v trace=%v traceOK=%v", m.recording, m.trace != nil, m.traceOK)
				}

				if got := run(t, cfg); !reflect.DeepEqual(got, cold) {
					t.Fatalf("recording run diverges from private-Scratch run\ngot:  %+v\nwant: %+v", got, cold)
				}
				m := parked("recording")
				if !m.traceOK || m.recording {
					t.Fatalf("first reuse left traceOK=%v recording=%v, want a complete trace", m.traceOK, m.recording)
				}
				for i, tr := range m.trace {
					if len(tr) != cfg.AccessesPerCore || cap(tr) != cfg.AccessesPerCore {
						t.Errorf("core %d trace len/cap = %d/%d, want exactly %d", i, len(tr), cap(tr), cfg.AccessesPerCore)
					}
				}

				r, err := NewRunner(cfg)
				if err != nil {
					t.Fatalf("NewRunner: %v", err)
				}
				if !r.machWarm || r.m.gens != nil {
					t.Fatalf("third run does not replay: warm=%v gens=%v", r.machWarm, r.m.gens != nil)
				}
				got, err := r.Run()
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Fatalf("replay run diverges from private-Scratch run\ngot:  %+v\nwant: %+v", got, cold)
				}
			})
		}
	}
}

// TestWarmScratchAcrossConfigs drives one Scratch through incompatible
// configurations back to back: mode switches and a benchmark switch
// force machine rebuilds, and each result must still match its own cold
// baseline. This is the pacd worker pattern — one arena, many jobs.
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

// TestWarmScratchFaultsIsolated checks a faulted run neither reuses nor
// pollutes the machine cache: fault injection is run-scoped, so a warm
// Scratch interleaving clean and faulted runs must keep both streams
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
