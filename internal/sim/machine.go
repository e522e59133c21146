package sim

import (
	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/hmc"
	"github.com/pacsim/pac/internal/mshr"
	"github.com/pacsim/pac/internal/prefetch"
	"github.com/pacsim/pac/internal/vm"
	"github.com/pacsim/pac/internal/workload"
)

// machine is the constructed component graph of one simulation
// configuration: everything NewRunner builds for a run. Its pooled
// buffers come from the run's Scratch and go back to it when the run
// releases (Runner.release).
type machine struct {
	// nextID is the shared packet/request ID counter. It lives on the
	// machine because the pipeline components capture the minting
	// closure at construction.
	nextID uint64

	gens   []workload.Generator
	hier   *cache.Hierarchy
	pf     *prefetch.Prefetcher
	spaces []*vm.AddressSpace
	pipe   coalesce.Pipeline
	pac    *core.PAC // nil unless Mode == ModePAC
	file   *mshr.File
	dev    *hmc.Device
	cores  []coreState

	// benchNames backs Result.Benchmarks.
	benchNames []string
}

// buildGenerators constructs the per-process workload generators.
func buildGenerators(cfg *Config) ([]workload.Generator, error) {
	gens := make([]workload.Generator, len(cfg.Procs))
	for p, spec := range cfg.Procs {
		g, err := workload.New(spec.Benchmark, workload.Config{
			Cores: spec.Cores,
			Seed:  cfg.Seed,
			Proc:  p,
			Scale: cfg.Scale,
		})
		if err != nil {
			return nil, err
		}
		gens[p] = g
	}
	return gens, nil
}

// buildMachine constructs the component graph for a normalized config.
// Reusable buffers come from scratch; the machine owns them until the
// run releases them.
func buildMachine(cfg *Config, scratch *Scratch) (*machine, error) {
	m := &machine{}
	ids := func() uint64 { m.nextID++; return m.nextID }

	if cfg.Generators != nil {
		m.gens = cfg.Generators
	} else {
		gens, err := buildGenerators(cfg)
		if err != nil {
			return nil, err
		}
		m.gens = gens
	}
	for p, spec := range cfg.Procs {
		for i := 0; i < spec.Cores; i++ {
			m.cores = append(m.cores, coreState{
				proc:        p,
				localIdx:    i,
				outstanding: scratch.getSet(),
				pendingOut:  scratch.getOutBuf(),
				// Stagger core start-up so identical per-core
				// loops do not issue in lock-step bursts.
				nextIssue: int64(len(m.cores)) * 29,
			})
		}
	}

	m.hier = cache.NewHierarchy(cfg.Hierarchy)
	m.hier.UseScratch(scratch.getFillSet())
	m.pf = prefetch.New(cfg.Prefetch, len(m.cores))
	if cfg.Virtualize {
		for p := range cfg.Procs {
			m.spaces = append(m.spaces, vm.New(p, cfg.Seed, 0))
		}
	}
	switch cfg.Mode {
	case coalesce.ModePAC:
		m.pac = core.New(cfg.PAC, ids)
		m.pac.UseParentPool(scratch.parents)
		m.pipe = coalesce.PACAdapter{PAC: m.pac}
	case coalesce.ModeSortNet:
		sc := coalesce.NewSortingCoalescer(cfg.PAC.Streams, cfg.PAC.Timeout,
			cfg.PAC.Device.MaxReqBlocks(), ids)
		sc.UseParentPool(scratch.parents)
		m.pipe = sc
	case coalesce.ModeRowBuf:
		rb := coalesce.NewRowBufferCoalescer(cfg.HMC.RowBytes, cfg.PAC.Streams,
			cfg.PAC.Timeout, ids)
		rb.UseParentPool(scratch.parents)
		m.pipe = rb
	default:
		pt := coalesce.NewPassthrough(cfg.PAC.InputQueueDepth, ids)
		pt.UseParentPool(scratch.parents)
		m.pipe = pt
	}
	m.file = mshr.New(mshr.Config{
		Entries:       cfg.MSHRs,
		MaxSubentries: cfg.MaxSubentries,
		Adaptive:      cfg.Mode.AdaptiveMSHR(),
		MaxBlocks:     cfg.PAC.Device.MaxReqBlocks(),
	})
	m.dev = hmc.New(cfg.HMC)

	m.benchNames = make([]string, len(cfg.Procs))
	for i, p := range cfg.Procs {
		m.benchNames[i] = p.Benchmark
	}
	return m, nil
}

// nextAccess yields core c's next workload access.
func (r *Runner) nextAccess(c *coreState) workload.Access {
	return r.m.gens[c.proc].Next(c.localIdx)
}
