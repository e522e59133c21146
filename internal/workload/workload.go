// Package workload provides deterministic, per-core memory-access trace
// generators modelling the 14 benchmarks of the PAC paper's evaluation
// (§5.2): STREAM, Gather/Scatter (GS), HPCG, SSCAv2, the BOTS kernels
// SORT / SPARSELU / FFT, the NAS Parallel Benchmarks EP / MG / CG / LU /
// SP / IS, and GAPBS BFS.
//
// The paper traced real benchmark binaries on a RISC-V Spike simulator.
// This repository substitutes synthetic generators that reproduce each
// benchmark's documented access *structure* — stride mix, intra-page
// clustering, cross-page sparsity, read/write ratio, cross-core sharing,
// and the use of atomics and fences — because that structure is the only
// property the coalescing layers observe (see DESIGN.md §1).
//
// Every generator is an infinite, deterministic stream: for a fixed
// (Config, benchmark) pair, core i's sequence of accesses is identical run
// to run and independent of how cores are interleaved by the simulator
// (the Generator contract).
package workload

import (
	"fmt"
	"sort"

	"github.com/pacsim/pac/internal/mem"
)

// Access is a single CPU memory reference before it enters the cache
// hierarchy: typically 1..8 bytes for scalar code, up to 64 for vector ops.
type Access struct {
	// Addr is the physical byte address.
	Addr uint64
	// Size is the access width in bytes.
	Size uint32
	// Op is the operation (load, store, atomic, or fence; fences carry
	// no address).
	Op mem.Op
}

// Generator produces the access stream of one benchmark.
//
// Contract: each core's stream is independent of how the cores'
// calls interleave. The k-th call to Next(i) yields the same access
// whatever calls were made for other cores before it, so a core's
// stream is a function of its own call count alone. The simulator
// relies on this twice: a checkpoint restore rebuilds a core's stream
// position by calling Next for that core alone, and the event driver's
// private-L1 run-ahead draws a core's next accesses before the other
// cores' accesses that precede them in simulated time. Every generator
// that reaches sim.Config.Generators must keep the contract; the
// built-in benchmarks, custom specs (NewCustom) and trace replay
// (trace.Replayer) do, and TestDeterminism checks all three.
//
// All generators in this package are infinite (Next never exhausts);
// the simulation driver decides how many accesses constitute a run.
type Generator interface {
	// Name returns the canonical benchmark name (e.g. "BFS").
	Name() string
	// Next returns the next access for the given core.
	Next(core int) Access
}

// Config parameterises generator construction.
type Config struct {
	// Cores is the number of hardware cores issuing accesses.
	Cores int
	// Seed makes the pseudo-random portions of the trace reproducible.
	Seed uint64
	// Proc is the process index; distinct processes are laid out in
	// disjoint physical regions (multiprocessing mode, Figure 6b).
	Proc int
	// Scale multiplies the default working-set sizes. 1.0 reproduces
	// the paper-like configuration; tests use smaller values. Values
	// <= 0 are treated as 1.0.
	Scale float64
}

func (c Config) normalized() Config {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	return c
}

// scaled returns n scaled by the config's Scale, with a floor to keep
// regions non-degenerate, rounded up to a whole page.
func (c Config) scaled(n uint64) uint64 {
	v := uint64(float64(n) * c.Scale)
	if v < 2*mem.PageSize {
		v = 2 * mem.PageSize
	}
	return (v + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
}

// builder constructs a Generator for a given config.
type builder func(Config) Generator

var registry = map[string]builder{}

// register adds a benchmark constructor; called from the per-benchmark
// files' init functions.
func register(name string, b builder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: duplicate benchmark %q", name))
	}
	registry[name] = b
}

// Names returns the canonical benchmark list in the order used by the
// paper's figures.
func Names() []string {
	// Fixed presentation order: grouped by suite as in the paper.
	order := []string{
		"STREAM", "GS", "HPCG", "SSCA2",
		"SORT", "SPARSELU", "FFT",
		"EP", "MG", "CG", "LU", "SP", "IS",
		"BFS",
	}
	// Guard against drift between the order list and the registry.
	if len(order) != len(registry) {
		all := make([]string, 0, len(registry))
		for k := range registry {
			all = append(all, k)
		}
		sort.Strings(all)
		return all
	}
	return order
}

// New constructs the named benchmark generator. It returns an error for
// unknown names; use Names for the canonical list.
func New(name string, cfg Config) (Generator, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return b(cfg.normalized()), nil
}

// MustNew is New for static benchmark names; it panics on unknown names.
func MustNew(name string, cfg Config) Generator {
	g, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return g
}
