package sim

// Steady-state allocation gates for the whole machine, plus the
// poison-on-free aliasing oracle: with every layer drawing from the
// run's Scratch, the simulation loop must stop allocating once its
// buffers reach their high-water marks, and enabling the arena's
// debug mode (freed buffers overwritten with poison) must leave every
// result byte-identical — a retained alias would corrupt a counter the
// comparison catches.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
)

// TestStepSteadyStateAllocFree drives the reference step path directly:
// after a priming stretch, whole windows of thousands of cycles must
// allocate nothing in any coalescing mode. Rare amortized-growth events
// (a histogram gaining a bin for a new maximum latency, a free-list
// reaching a new high-water mark) are legal, so the gate requires SOME
// window to be allocation-free rather than every window — a per-event
// leak pollutes all of them.
func TestStepSteadyStateAllocFree(t *testing.T) {
	if arena.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("GS", mode)
			cfg.AccessesPerCore = 1 << 30 // never finishes within the test
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30_000; i++ { // prime: grow every buffer
				r.step()
			}
			var ms runtime.MemStats
			var minAllocs uint64 = ^uint64(0)
			for w := 0; w < 8 && minAllocs > 0; w++ {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				for i := 0; i < 2_000; i++ {
					r.step()
				}
				runtime.ReadMemStats(&ms)
				if n := ms.Mallocs - before; n < minAllocs {
					minAllocs = n
				}
			}
			if minAllocs != 0 {
				t.Errorf("%s: every 2000-cycle window allocates (best: %d) — the step path leaks per event", mode, minAllocs)
			}
		})
	}
}

// TestScratchReuseAcrossRuns proves the Session contract: sharing one
// Scratch across sequential runs changes no result, and the warmed
// second run allocates substantially less than the cold first one.
func TestScratchReuseAcrossRuns(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("CG", mode)
			cfg.AccessesPerCore = 1_000
			want := run(t, cfg)

			sc := NewScratch()
			cfg.Scratch = sc
			first := run(t, cfg)
			second := run(t, cfg)
			if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
				t.Fatalf("%s: results change when a Scratch is shared across runs", mode)
			}
			if arena.RaceEnabled {
				return
			}
			// A full small run allocates little beyond machine
			// construction (caches, queues), which Scratch does not
			// cover; the gate only demands the warmed arena saves a
			// measurable slice of it.
			cold := testing.AllocsPerRun(5, func() {
				cfg.Scratch = NewScratch()
				run(t, cfg)
			})
			warm := testing.AllocsPerRun(5, func() {
				cfg.Scratch = sc
				run(t, cfg)
			})
			if warm > cold-5 {
				t.Errorf("%s: warmed run allocates %.0f times vs %.0f cold — scratch reuse is not engaging", mode, warm, cold)
			}
		})
	}
}

// TestRunColdAllocBudget bounds what a whole simulation allocates when
// it runs on a warmed Scratch with a fresh seed, as every cold run of a
// Session does: the component graph and the workload generators are
// built anew, and every pooled buffer should come back from the arena.
// It measures 144; a per-run buffer that stops being recycled pushes it
// over the budget (a fresh Scratch per run reads 190).
func TestRunColdAllocBudget(t *testing.T) {
	if arena.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const budget = 160
	cfg := DefaultConfig("GS", coalesce.ModePAC)
	cfg.Procs = []ProcSpec{{Benchmark: "GS", Cores: 2}}
	cfg.Scale = 0.02
	cfg.AccessesPerCore = 2_000
	cfg.Scratch = NewScratch()
	run(t, cfg) // warm the arena
	seed := cfg.Seed
	got := testing.AllocsPerRun(20, func() {
		seed++
		cfg.Seed = seed
		run(t, cfg)
	})
	if got > budget {
		t.Errorf("a cold run on a warmed Scratch allocates %.0f times, budget %d", got, budget)
	}
}

// TestDebugPoisonEquivalence runs the full benchmark × mode matrix once
// with arena debug mode on: every buffer returned to a pool is
// overwritten with poison, so any component still holding an alias
// reads sentinel garbage and diverges from the normal run.
func TestDebugPoisonEquivalence(t *testing.T) {
	for _, mode := range allModes {
		for _, bench := range []string{"GS", "BFS"} {
			label := fmt.Sprintf("%s/%s", bench, mode)
			t.Run(label, func(t *testing.T) {
				cfg := smallConfig(bench, mode)
				cfg.AccessesPerCore = 1_200
				want := run(t, cfg)

				arena.SetDebug(true)
				defer arena.SetDebug(false)
				got := run(t, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: poison-on-free changes the result — a freed buffer is still referenced\nnormal: %+v\npoison: %+v",
						label, want, got)
				}
			})
		}
	}
}

// TestResultDoesNotPinMachine keeps each mode's Result after Run and
// requires the Runner's cache hierarchy to be collected: a Result that
// points into its Runner (the Runner's own result slot, or a PAC stats
// slot inside it) keeps the whole machine — caches, HMC, MSHR file,
// pipeline — reachable for as long as a memo or a retained job keeps
// the Result. The finalizer sits on the hierarchy, not the Runner,
// because the Runner is part of a cycle (its packet-ID closure) and a
// finalizer on a cycle member never runs.
func TestResultDoesNotPinMachine(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("GS", mode)
			cfg.AccessesPerCore = 500
			collected := make(chan struct{})
			res := func() *Result {
				r, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runtime.SetFinalizer(r.hier, func(*cache.Hierarchy) { close(collected) })
				res, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}()
			defer runtime.KeepAlive(res)
			deadline := time.After(10 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-deadline:
					t.Fatalf("%s: the machine is still reachable 10s after Run returned — the kept Result pins its Runner", mode)
				case <-time.After(10 * time.Millisecond):
				}
			}
		})
	}
}
