package workload_test

import (
	"math/rand"
	"testing"

	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/trace"
	"github.com/pacsim/pac/internal/workload"
)

// TestDeterminism checks the Generator contract: two generators built
// from the same inputs yield, per core, the same stream whether the cores
// are drawn one after another or in a seeded random interleaving, for
// every built-in benchmark, a custom spec using every pattern, and a
// trace replay, on 8 cores.
func TestDeterminism(t *testing.T) {
	const cores = 8
	cfg := workload.Config{Cores: cores, Seed: 42, Scale: 0.01}
	gens := map[string]func() workload.Generator{}
	for _, n := range workload.Names() {
		n := n
		gens[n] = func() workload.Generator { return workload.MustNew(n, cfg) }
	}
	spec := workload.CustomSpec{
		Name: "ALLPATTERNS",
		Regions: []workload.RegionSpec{
			{Name: "private", Bytes: 1 << 16},
			{Name: "shared", Bytes: 1 << 16, Shared: true},
		},
		Phases: []workload.PhaseSpec{
			{Region: "private", Pattern: workload.PatternSeq, Op: "load", Run: 5},
			{Region: "shared", Pattern: workload.PatternInterleaved, Op: "store", Run: 3},
			{Region: "shared", Pattern: workload.PatternBurst, Op: "load", Run: 4},
			{Region: "private", Pattern: workload.PatternRandom, Op: "atomic", Run: 1},
		},
		FenceEvery: 13,
	}
	gens["custom"] = func() workload.Generator {
		g, err := workload.NewCustom(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var recorded []mem.Request
	for i := 0; i < 3000; i++ {
		recorded = append(recorded, mem.Request{
			Addr: uint64(i*4096 + i%7*64), Size: mem.BlockSize,
			Op: []mem.Op{mem.OpLoad, mem.OpStore, mem.OpAtomic}[i%3], Core: i * 5 % (cores - 1),
		})
	}
	gens["replay"] = func() workload.Generator { return trace.NewReplayer(recorded, cores) }

	const perCore = 500
	for name, mk := range gens {
		// Core-major order: core 0's whole stream, then core 1's, ...
		want := make([][]workload.Access, cores)
		g := mk()
		for c := range want {
			for i := 0; i < perCore; i++ {
				want[c] = append(want[c], g.Next(c))
			}
		}
		// A seeded random interleaving of the same draws.
		rng := rand.New(rand.NewSource(7))
		g = mk()
		pos := make([]int, cores)
		for left := cores * perCore; left > 0; left-- {
			c := rng.Intn(cores)
			for pos[c] == perCore {
				c = (c + 1) % cores
			}
			if a := g.Next(c); a != want[c][pos[c]] {
				t.Errorf("%s: core %d access %d is %+v under a random interleaving, %+v core by core",
					name, c, pos[c], a, want[c][pos[c]])
				break
			}
			pos[c]++
		}
	}
}
