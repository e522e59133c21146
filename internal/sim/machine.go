package sim

import (
	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/hmc"
	"github.com/pacsim/pac/internal/mshr"
	"github.com/pacsim/pac/internal/prefetch"
	"github.com/pacsim/pac/internal/vm"
	"github.com/pacsim/pac/internal/workload"
)

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

// buildMachine constructs the component graph for the runner's
// normalized config onto the runner. Reusable buffers come from the
// runner's Scratch; the runner owns them until it releases them.
func (r *Runner) buildMachine() error {
	cfg, scratch := &r.cfg, r.scratch
	ids := func() uint64 { r.nextID++; return r.nextID }

	if cfg.Generators != nil {
		r.gens = cfg.Generators
	} else {
		gens, err := buildGenerators(cfg)
		if err != nil {
			return err
		}
		r.gens = gens
	}
	for p, spec := range cfg.Procs {
		for i := 0; i < spec.Cores; i++ {
			r.cores = append(r.cores, coreState{
				proc:        p,
				localIdx:    i,
				outstanding: scratch.getSet(),
				PendingOut:  scratch.getOutBuf(),
				// Stagger core start-up so identical per-core
				// loops do not issue in lock-step bursts.
				NextIssue: int64(len(r.cores)) * 29,
			})
		}
	}
	r.wakes = make([]int64, len(r.cores))

	r.hier = cache.NewHierarchy(cfg.Hierarchy)
	r.hier.UseScratch(scratch.getFillSet())
	r.pf = prefetch.New(cfg.Prefetch, len(r.cores))
	if cfg.Virtualize {
		for p := range cfg.Procs {
			r.spaces = append(r.spaces, vm.New(p, cfg.Seed, 0))
		}
	}
	switch cfg.Mode {
	case coalesce.ModePAC:
		r.pac = core.New(cfg.PAC, ids)
		r.pac.UseParentPool(scratch.parents)
		r.pipe = coalesce.PACAdapter{PAC: r.pac}
	case coalesce.ModeSortNet:
		sc := coalesce.NewSortingCoalescer(cfg.PAC.Streams, cfg.PAC.Timeout,
			cfg.PAC.Device.MaxReqBlocks(), ids)
		sc.UseParentPool(scratch.parents)
		r.pipe = sc
	case coalesce.ModeRowBuf:
		rb := coalesce.NewRowBufferCoalescer(cfg.HMC.RowBytes, cfg.PAC.Streams,
			cfg.PAC.Timeout, ids)
		rb.UseParentPool(scratch.parents)
		r.pipe = rb
	default:
		pt := coalesce.NewPassthrough(cfg.PAC.InputQueueDepth, ids)
		pt.UseParentPool(scratch.parents)
		r.pipe = pt
	}
	r.file = mshr.New(mshr.Config{
		Entries:       cfg.MSHRs,
		MaxSubentries: cfg.MaxSubentries,
		Adaptive:      cfg.Mode.AdaptiveMSHR(),
		MaxBlocks:     cfg.PAC.Device.MaxReqBlocks(),
	})
	r.dev = hmc.New(cfg.HMC)
	if cfg.Faults.Enabled() {
		r.faults = fault.NewInjector(cfg.Faults, cfg.Seed, cfg.HMC.Vaults)
		r.dev.InstallFaults(r.faults)
	}
	return nil
}

// nextAccess yields core c's next workload access: the one run-ahead
// drew and held, if any, else the generator's next.
func (r *Runner) nextAccess(c *coreState) workload.Access {
	if c.HasLook {
		c.HasLook = false
		return c.Look
	}
	return r.gens[c.proc].Next(c.localIdx)
}
