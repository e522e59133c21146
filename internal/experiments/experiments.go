// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5). Each experiment is a named driver that runs
// the simulator in the required configurations and renders the same rows
// or series the paper reports; DESIGN.md §4 maps experiment IDs to paper
// artefacts.
//
// Results within one Session are memoised, so running the whole suite
// simulates each (benchmark, mode, variant) combination only once. The
// memo is a concurrent singleflight: Session.Precompute runs the whole
// working set through a worker pool, after which rendering the tables is
// pure memo lookup and byte-identical to a sequential run.
package experiments

import (
	"sort"

	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/report"
)

// Options control the scale of the experiment runs.
type Options struct {
	// Cores is the simulated core count (Table 1: 8).
	Cores int
	// AccessesPerCore is the trace length per core.
	AccessesPerCore int
	// Scale multiplies workload working-set sizes.
	Scale float64
	// Seed drives the workload generators.
	Seed uint64
	// L1Bytes / LLCBytes override the cache sizes (0 keeps Table 1's
	// 16KB / 8MB); tests use small caches with small scales so the
	// miss streams keep their structure.
	L1Bytes, LLCBytes int
	// Parallel is the default worker count for Session.Precompute
	// (0 means runtime.GOMAXPROCS). It never changes simulation
	// results — parallel and sequential sessions render byte-identical
	// tables — only how many simulations run concurrently.
	Parallel int
	// Faults is the deterministic fault-injection plan applied to every
	// default-variant simulation of the session. The zero value (the
	// default) disables injection, which keeps the paper artefacts
	// byte-identical to a fault-free build; the faultsweep experiment
	// uses its own preset plans regardless of this field.
	Faults fault.Config
}

// DefaultOptions reproduces the paper's Table 1 configuration.
func DefaultOptions() Options {
	return Options{
		Cores:           8,
		AccessesPerCore: 100_000,
		Scale:           1.0,
		Seed:            42,
	}
}

// Normalized fills every unset scale field with its Table 1 default: the
// options a Session made from o runs under. Callers that only need the
// canonical form (a request's resolved options, a hash key) use this
// instead of building a Session.
func (o Options) Normalized() Options {
	if o.Cores <= 0 {
		o.Cores = 8
	}
	if o.AccessesPerCore <= 0 {
		o.AccessesPerCore = 100_000
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	return o
}

// variant distinguishes simulator configurations beyond the mode.
type variant string

const (
	// varDefault is the standard single-process run.
	varDefault variant = ""
	// varNoCtrl disables the network-controller bypass so that every
	// raw request traverses the coalescing network; used by the
	// PAC-internal measurements (Figures 7, 11b, 11c, 12a-c), which
	// characterise the network itself under full load.
	varNoCtrl variant = "noctrl"
	// varMulti co-runs the benchmark with a partner process on half
	// the cores each (Figure 6b).
	varMulti variant = "multi"
	// varFaultLo and varFaultHi run the benchmark under the faultsweep
	// experiment's preset fault plans (a lightly and a heavily degraded
	// link); the plans live in faultPlanOf so variant stays a pure key.
	varFaultLo variant = "faultlo"
	varFaultHi variant = "faulthi"
)

// faultPlanOf returns the preset plan a fault variant runs under; the
// zero Config (no injection) for every other variant.
func faultPlanOf(v variant) fault.Config {
	switch v {
	case varFaultLo:
		return fault.Config{
			LinkCRCRate:        0.02,
			PoisonRate:         0.005,
			VaultStallInterval: 20_000,
			VaultStallCycles:   200,
			Seed:               1,
		}
	case varFaultHi:
		return fault.Config{
			LinkCRCRate:        0.15,
			PoisonRate:         0.05,
			VaultStallInterval: 4_000,
			VaultStallCycles:   400,
			Seed:               1,
		}
	default:
		return fault.Config{}
	}
}

// Experiment is one regenerable paper artefact.
type Experiment struct {
	// ID is the short handle used by `pacsim -experiment`.
	ID string
	// Artefact names the paper table/figure.
	Artefact string
	// Desc is a one-line description.
	Desc string
	// Run produces the result tables.
	Run func(*Session) ([]*report.Table, error)
	// Needs lists the memoised simulations and trace captures Run will
	// request, letting Session.Precompute execute them through a
	// worker pool before the tables are assembled. Nil means Run
	// performs no memoised work (constant tables, or analyses that
	// drive the workload generators directly).
	Needs func() []need
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderOf(out[i].ID) < orderOf(out[j].ID) })
	return out
}

// orderOf gives experiments their presentation order.
func orderOf(id string) int {
	order := []string{
		"fig1", "fig2", "tab1", "fig6a", "fig6b", "fig6c", "fig7",
		"fig8", "fig9", "fig10a", "fig10b", "fig10c",
		"fig11a", "fig11b", "fig11c", "fig12a", "fig12b", "fig12c",
		"fig13", "fig14", "fig15",
	}
	for i, o := range order {
		if o == id {
			return i
		}
	}
	return len(order)
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
