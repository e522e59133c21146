package sim

import (
	"testing"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/workload"
)

// scriptGen replays a fixed access list per core, cycling, and counts
// the draws, so a test sees exactly what run-ahead consumed.
type scriptGen struct {
	script [][]workload.Access
	drawn  []int
}

func newScriptGen(script ...[]workload.Access) *scriptGen {
	return &scriptGen{script: script, drawn: make([]int, len(script))}
}

func (g *scriptGen) Name() string { return "SCRIPT" }

func (g *scriptGen) Next(core int) workload.Access {
	s := g.script[core]
	a := s[g.drawn[core]%len(s)]
	g.drawn[core]++
	return a
}

// hotWalk is a custom workload that walks a region far smaller than the
// L1 with loads and stores: after the first pass every access, the last
// one included, is an L1 hit. fenceEvery and extra phases mix in other
// accesses.
func hotWalk(t *testing.T, cores, fenceEvery int, extra ...workload.PhaseSpec) workload.Generator {
	t.Helper()
	spec := workload.CustomSpec{
		Name:    "HOTWALK",
		Regions: []workload.RegionSpec{{Name: "hot", Bytes: 1 << 10}},
		Phases: append([]workload.PhaseSpec{
			{Region: "hot", Pattern: workload.PatternSeq, Op: "load", Run: 6},
			{Region: "hot", Pattern: workload.PatternSeq, Op: "store", Run: 2},
		}, extra...),
		FenceEvery: fenceEvery,
	}
	g, err := workload.NewCustom(spec, workload.Config{Cores: cores, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runBothWith is runBoth for a caller-supplied workload: generators are
// stateful, so each driver gets a fresh one from gen.
func runBothWith(t *testing.T, cfg Config, gen func() workload.Generator) (*Result, *Result) {
	t.Helper()
	cfg.Generators = []workload.Generator{gen()}
	event := run(t, cfg)
	cfg.Generators = []workload.Generator{gen()}
	cfg.ReferenceStepper = true
	return event, run(t, cfg)
}

// scriptConfig is a one-core machine driven by gen.
func scriptConfig(gen workload.Generator, mode coalesce.Mode) Config {
	cfg := smallConfig("SCRIPT", mode)
	cfg.Procs = []ProcSpec{{Benchmark: "SCRIPT", Cores: 1}}
	cfg.Hierarchy = cache.HierarchyConfig{
		Cores: 1,
		L1:    cache.Config{Size: 2 << 10, Ways: 8},
		LLC:   cache.Config{Size: 128 << 10, Ways: 8},
	}
	cfg.Generators = []workload.Generator{gen}
	return cfg
}

// justIssued builds a runner for cfg and puts core 0 in the state right
// after it issued an access at cycle 100: one access issued, the next
// due IssueInterval cycles later.
func justIssued(t *testing.T, cfg Config) (*Runner, *coreState) {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.release)
	r.now = 100
	c := &r.cores[0]
	c.Issued = 1
	c.NextIssue = r.now + int64(r.cfg.IssueInterval)
	return r, c
}

// TestRunAheadAppliesHitsAndHoldsMiss pins what run-ahead does: the
// L1 hits after an issue are applied at their pacing cycles with the
// counters AccessInto would record, and the first access that misses
// the L1 is drawn and held, not applied.
func TestRunAheadAppliesHitsAndHoldsMiss(t *testing.T) {
	const hot, cold = 0x10000, 0x90000
	gen := newScriptGen([]workload.Access{
		{Addr: hot, Size: 8, Op: mem.OpLoad},
		{Addr: hot + 8, Size: 8, Op: mem.OpStore},
		{Addr: hot + 16, Size: 8, Op: mem.OpLoad},
		{Addr: cold, Size: 8, Op: mem.OpLoad},
	})
	r, c := justIssued(t, scriptConfig(gen, coalesce.ModePAC))
	r.hier.L1(0).Access(hot, false)
	l1 := *r.hier.L1(0)
	r.runAhead(0, c)

	ii := int64(r.cfg.IssueInterval)
	if c.Issued != 4 || c.NextIssue != 100+4*ii {
		t.Errorf("after run-ahead Issued=%d NextIssue=%d, want 4 and %d", c.Issued, c.NextIssue, 100+4*ii)
	}
	if !c.HasLook || c.Look.Addr != cold || gen.drawn[0] != 4 {
		t.Errorf("held %v (HasLook=%v) after %d draws, want the miss at %#x after 4", c.Look, c.HasLook, gen.drawn[0], cold)
	}
	if h := r.hier.Stats; h.L1Hits != 3 || h.Accesses != 3 || h.LLCMisses != 0 {
		t.Errorf("hierarchy stats %+v, want 3 L1 hits and nothing else", h)
	}
	if got := r.hier.L1(0); got.Hits != l1.Hits+3 || got.Misses != l1.Misses {
		t.Errorf("L1 hits %d misses %d, want %d and %d", got.Hits, got.Misses, l1.Hits+3, l1.Misses)
	}
	if r.now != 100 || r.nextID != 0 {
		t.Errorf("run-ahead moved the clock to %d or minted IDs (%d)", r.now, r.nextID)
	}
}

// TestRunAheadLastAccessHit: a core marks itself done the cycle after it
// issues its last access, so run-ahead must never apply the last access
// early, even when it is an L1 hit. The hot walk makes every access after
// the first pass a hit; Cycles (and everything else) must match the
// reference stepper.
func TestRunAheadLastAccessHit(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("HOTWALK", mode)
			cfg.AccessesPerCore = 1_000
			event, ref := runBothWith(t, cfg, func() workload.Generator { return hotWalk(t, 2, 0) })
			if event.Cycles != ref.Cycles {
				t.Fatalf("Cycles: event %d, reference %d", event.Cycles, ref.Cycles)
			}
			assertEquivalent(t, "hot walk", event, ref)
			// Stepping each access would take at least one step per
			// access of a core.
			if stepped := event.Cycles - event.SkippedCycles; stepped >= int64(cfg.AccessesPerCore) {
				t.Errorf("event driver stepped %d of %d cycles for %d mostly-hit accesses per core; run-ahead is off",
					stepped, event.Cycles, cfg.AccessesPerCore)
			}
		})
	}
}

// TestRunAheadRespectsLoadBudget: a core at its outstanding-load budget
// stalls on its next access even when that access hits the L1 (here the
// block its miss just allocated), so run-ahead must not draw it. The
// sequential walk with a budget of one load makes every miss followed by
// such hits.
func TestRunAheadRespectsLoadBudget(t *testing.T) {
	const cold = 0x90000
	gen := newScriptGen([]workload.Access{{Addr: cold + 8, Size: 8, Op: mem.OpLoad}})
	cfg := scriptConfig(gen, coalesce.ModePAC)
	cfg.MaxOutstandingLoads = 1
	r, c := justIssued(t, cfg)
	r.hier.L1(0).Access(cold, false) // the miss's block is already allocated
	c.outstanding.Add(1)
	r.runAhead(0, c)
	if gen.drawn[0] != 0 || c.HasLook || c.Issued != 1 {
		t.Errorf("core at its budget drew %d accesses (HasLook=%v, Issued=%d), want none", gen.drawn[0], c.HasLook, c.Issued)
	}

	spec := workload.CustomSpec{
		Name:    "SEQ",
		Regions: []workload.RegionSpec{{Name: "big", Bytes: 1 << 20}},
		Phases:  []workload.PhaseSpec{{Region: "big", Pattern: workload.PatternSeq, Op: "load"}},
	}
	cfg = scriptConfig(nil, coalesce.ModePAC)
	cfg.MaxOutstandingLoads = 1
	cfg.AccessesPerCore = 2_000
	event, ref := runBothWith(t, cfg, func() workload.Generator {
		g, err := workload.NewCustom(spec, workload.Config{Cores: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
	assertEquivalent(t, "sequential walk, budget 1", event, ref)
	if ref.CoreStallCycles == 0 {
		t.Error("the walk never stalled on its budget; test is vacuous")
	}
}

// TestRunAheadWaitsForParkedOutput: a core with hierarchy outputs
// parked on a full coalescer input queue must place them before it
// issues again, so run-ahead must not draw its next access.
func TestRunAheadWaitsForParkedOutput(t *testing.T) {
	const hot = 0x10000
	gen := newScriptGen([]workload.Access{{Addr: hot, Size: 8, Op: mem.OpLoad}})
	r, c := justIssued(t, scriptConfig(gen, coalesce.ModePAC))
	r.hier.L1(0).Access(hot, false)
	c.PendingOut = append(c.PendingOut, outReq{Req: mem.Request{Addr: 0x90000, Size: mem.BlockSize, Op: mem.OpStore}, WB: true})
	r.runAhead(0, c)
	if gen.drawn[0] != 0 || c.HasLook || c.Issued != 1 {
		t.Errorf("core with parked output drew %d accesses (HasLook=%v, Issued=%d), want none", gen.drawn[0], c.HasLook, c.Issued)
	}
}

// TestRunAheadHoldsFencesAndAtomics: fences go to the coalescer and
// atomics around the hierarchy, so neither is ever applied ahead, even
// when its address is L1-resident; run-ahead holds it for the normal
// issue path.
func TestRunAheadHoldsFencesAndAtomics(t *testing.T) {
	const hot = 0x10000
	for _, a := range []workload.Access{
		{Op: mem.OpFence},
		{Addr: hot, Size: 8, Op: mem.OpAtomic},
	} {
		gen := newScriptGen([]workload.Access{a})
		r, c := justIssued(t, scriptConfig(gen, coalesce.ModePAC))
		r.hier.L1(0).Access(0, false) // a fence carries address 0
		r.hier.L1(0).Access(hot, false)
		r.runAhead(0, c)
		if !c.HasLook || c.Look != a || c.Issued != 1 || r.hier.L1Hits != 0 {
			t.Errorf("%v: HasLook=%v Look=%v Issued=%d L1Hits=%d, want it held and unapplied",
				a.Op, c.HasLook, c.Look, c.Issued, r.hier.L1Hits)
		}
	}

	for _, mode := range allModes {
		cfg := smallConfig("HOTWALK", mode)
		cfg.AccessesPerCore = 1_000
		event, ref := runBothWith(t, cfg, func() workload.Generator {
			return hotWalk(t, 2, 7, workload.PhaseSpec{Region: "hot", Pattern: workload.PatternSeq, Op: "atomic", Run: 1})
		})
		assertEquivalent(t, "hot walk with fences and atomics/"+mode.String(), event, ref)
	}
}

// TestRunAheadHoldsUnmappedPage: under Virtualize, an access whose page
// is not mapped yet is held without mapping it. Mapping it early would
// allocate its frame before other cores' first touches that precede it
// in the reference order.
func TestRunAheadHoldsUnmappedPage(t *testing.T) {
	const page0, page1 = 0x40000, 0x80000
	gen := newScriptGen([]workload.Access{
		{Addr: page0 + 64, Size: 8, Op: mem.OpLoad},
		{Addr: page1, Size: 8, Op: mem.OpLoad},
	})
	cfg := scriptConfig(gen, coalesce.ModePAC)
	cfg.Virtualize = true
	r, c := justIssued(t, cfg)
	space := r.spaces[0]
	r.hier.L1(0).Access(space.Translate(page0+64), false)
	pages := space.Pages()
	r.runAhead(0, c)
	if c.Issued != 2 || r.hier.L1Hits != 1 {
		t.Errorf("Issued=%d L1Hits=%d, want the mapped page's hit applied", c.Issued, r.hier.L1Hits)
	}
	if !c.HasLook || c.Look.Addr != page1 {
		t.Errorf("HasLook=%v Look=%v, want the unmapped page's access held", c.HasLook, c.Look)
	}
	if space.Pages() != pages {
		t.Errorf("run-ahead mapped %d pages", space.Pages()-pages)
	}
}
