package sim

import (
	"fmt"
	"strings"
	"testing"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/mem"
)

// smallConfig returns a quick configuration for tests.
func smallConfig(benchmark string, mode coalesce.Mode) Config {
	cfg := DefaultConfig(benchmark, mode)
	cfg.Procs = []ProcSpec{{Benchmark: benchmark, Cores: 2}}
	cfg.Scale = 0.02
	cfg.AccessesPerCore = 5_000
	// Shrink the caches in proportion to the scaled working sets so the
	// LLC miss stream keeps its structure.
	cfg.Hierarchy = cache.HierarchyConfig{
		Cores: 2,
		L1:    cache.Config{Size: 2 << 10, Ways: 8},
		LLC:   cache.Config{Size: 128 << 10, Ways: 8},
	}
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Procs: []ProcSpec{{Benchmark: "GS", Cores: 0}}, AccessesPerCore: 10, MSHRs: 4},
		{Procs: []ProcSpec{{Benchmark: "GS", Cores: 1}}, AccessesPerCore: 0, MSHRs: 4},
		{Procs: []ProcSpec{{Benchmark: "GS", Cores: 1}}, AccessesPerCore: 10, MSHRs: 0},
		{Procs: []ProcSpec{{Benchmark: "NOPE", Cores: 1}}, AccessesPerCore: 10, MSHRs: 4},
	}
	for i, cfg := range bad {
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

// TestUnknownModeRejected pins that a Mode value outside the five
// coalescing configurations is a configuration error naming the value,
// not a sixth machine (a merging Passthrough reporting mode "unknown").
func TestUnknownModeRejected(t *testing.T) {
	for _, mode := range []coalesce.Mode{-1, coalesce.ModeRowBuf + 1, 9} {
		_, err := NewRunner(smallConfig("GS", mode))
		if err == nil {
			t.Errorf("mode %d accepted", int(mode))
			continue
		}
		if want := fmt.Sprintf("mode %d", int(mode)); !strings.Contains(err.Error(), want) {
			t.Errorf("mode %d: error %q does not name the value", int(mode), err)
		}
	}
}

func TestRunCompletesAllModes(t *testing.T) {
	for _, mode := range []coalesce.Mode{coalesce.ModeNone, coalesce.ModeDMC, coalesce.ModePAC} {
		res := run(t, smallConfig("GS", mode))
		if res.Cycles <= 0 {
			t.Errorf("%v: no cycles simulated", mode)
		}
		if res.Cache.Accesses == 0 {
			t.Errorf("%v: no accesses", mode)
		}
		if res.RawRequests == 0 || res.MemPackets == 0 {
			t.Errorf("%v: no memory traffic (raw=%d pkts=%d)", mode, res.RawRequests, res.MemPackets)
		}
	}
}

// The fundamental conservation law: every raw LLC request is either
// dispatched inside some packet or merged into an MSHR entry, and the
// HMC's request count equals the dispatched packet count.
func TestRequestConservation(t *testing.T) {
	for _, mode := range []coalesce.Mode{coalesce.ModeNone, coalesce.ModeDMC, coalesce.ModePAC} {
		for _, bench := range []string{"GS", "BFS", "STREAM", "SSCA2"} {
			res := run(t, smallConfig(bench, mode))
			if res.HMC.Requests != res.MemPackets {
				t.Errorf("%s/%v: HMC saw %d packets, driver sent %d",
					bench, mode, res.HMC.Requests, res.MemPackets)
			}
			// Every packet's parents plus MSHR-merged raws must
			// equal the raw request count. Parents-per-packet is
			// not directly visible here, but RawRequests =
			// (raw in packets) + (MSHR merged) and raw in packets
			// >= MemPackets, so:
			if res.RawRequests < res.MemPackets+res.MSHRMergedRaw {
				t.Errorf("%s/%v: raw=%d < packets=%d + merged=%d",
					bench, mode, res.RawRequests, res.MemPackets, res.MSHRMergedRaw)
			}
		}
	}
}

func TestBaselineNeverCoalesces(t *testing.T) {
	res := run(t, smallConfig("GS", coalesce.ModeNone))
	if res.CoalescingEfficiency() != 0 {
		t.Errorf("baseline efficiency = %.2f%%, want 0", res.CoalescingEfficiency())
	}
	if res.MSHRMergedRaw != 0 {
		t.Errorf("baseline merged %d requests", res.MSHRMergedRaw)
	}
}

func TestPACOutCoalescesDMC(t *testing.T) {
	// On an adjacency-rich workload PAC must beat the MSHR-based DMC,
	// which must beat (or at least match) the baseline.
	pac := run(t, smallConfig("GS", coalesce.ModePAC))
	dmc := run(t, smallConfig("GS", coalesce.ModeDMC))
	if pac.CoalescingEfficiency() <= dmc.CoalescingEfficiency() {
		t.Errorf("PAC efficiency %.2f%% <= DMC %.2f%%",
			pac.CoalescingEfficiency(), dmc.CoalescingEfficiency())
	}
	if pac.CoalescingEfficiency() < 30 {
		t.Errorf("PAC efficiency on GS = %.2f%%, expected substantial coalescing", pac.CoalescingEfficiency())
	}
}

func TestPACReducesBankConflicts(t *testing.T) {
	pac := run(t, smallConfig("GS", coalesce.ModePAC))
	base := run(t, smallConfig("GS", coalesce.ModeNone))
	if pac.HMC.BankConflicts >= base.HMC.BankConflicts {
		t.Errorf("PAC bank conflicts %d >= baseline %d",
			pac.HMC.BankConflicts, base.HMC.BankConflicts)
	}
}

func TestPACSavesEnergy(t *testing.T) {
	pac := run(t, smallConfig("GS", coalesce.ModePAC))
	base := run(t, smallConfig("GS", coalesce.ModeNone))
	if pac.HMC.Energy.Total() >= base.HMC.Energy.Total() {
		t.Errorf("PAC energy %.0f >= baseline %.0f",
			pac.HMC.Energy.Total(), base.HMC.Energy.Total())
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, smallConfig("HPCG", coalesce.ModePAC))
	b := run(t, smallConfig("HPCG", coalesce.ModePAC))
	if a.Cycles != b.Cycles || a.RawRequests != b.RawRequests || a.MemPackets != b.MemPackets {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)",
			a.Cycles, a.RawRequests, a.MemPackets,
			b.Cycles, b.RawRequests, b.MemPackets)
	}
	if a.HMC.Energy.Total() != b.HMC.Energy.Total() {
		t.Error("nondeterministic energy")
	}
}

func TestMultiprocessing(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.Procs = []ProcSpec{
		{Benchmark: "GS", Cores: 1},
		{Benchmark: "BFS", Cores: 1},
	}
	res := run(t, cfg)
	if res.Name() != "GS+BFS" {
		t.Errorf("Name = %q", res.Name())
	}
	if res.Cycles == 0 || res.MemPackets == 0 {
		t.Error("multiprocess run did nothing")
	}
}

func TestTraceSinkObservesLLCTraffic(t *testing.T) {
	cfg := smallConfig("BFS", coalesce.ModePAC)
	var seen int64
	var atomics int64
	cfg.TraceSink = func(r mem.Request) {
		seen++
		if r.Op == mem.OpAtomic {
			atomics++
		}
		if r.Issue <= 0 {
			t.Fatal("trace sink saw request without issue cycle")
		}
	}
	res := run(t, cfg)
	if seen == 0 {
		t.Fatal("trace sink saw nothing")
	}
	if seen != res.RawRequests {
		t.Errorf("sink saw %d, result says %d raw requests", seen, res.RawRequests)
	}
	if atomics == 0 {
		t.Error("BFS trace should include atomics")
	}
}

func TestNetworkCtrlBypassHappens(t *testing.T) {
	// STREAM's heavy cache filtering leaves the PAC idle at times, so
	// the network controller should route some requests directly.
	cfg := smallConfig("STREAM", coalesce.ModePAC)
	res := run(t, cfg)
	if res.DirectDispatches == 0 {
		t.Log("no direct dispatches on STREAM (acceptable but unexpected)")
	}
	// With the controller disabled there must be none.
	cfg.DisableNetworkCtrl = true
	res2 := run(t, cfg)
	if res2.DirectDispatches != 0 {
		t.Errorf("DisableNetworkCtrl but %d direct dispatches", res2.DirectDispatches)
	}
}

func TestLoadLatencyMeasured(t *testing.T) {
	res := run(t, smallConfig("CG", coalesce.ModePAC))
	if res.LoadLatency.N() == 0 {
		t.Fatal("no load latencies recorded")
	}
	ns := res.AvgLoadLatencyNS()
	if ns < 10 || ns > 2000 {
		t.Errorf("average load latency %.1f ns implausible", ns)
	}
}

func TestBandwidthSavedPositiveForPAC(t *testing.T) {
	res := run(t, smallConfig("GS", coalesce.ModePAC))
	if res.BandwidthSavedBytes() <= 0 {
		t.Errorf("BandwidthSavedBytes = %d, want > 0", res.BandwidthSavedBytes())
	}
	base := run(t, smallConfig("GS", coalesce.ModeNone))
	if res.BandwidthSavedBytes() <= base.BandwidthSavedBytes() {
		t.Errorf("PAC saved %d <= baseline %d",
			res.BandwidthSavedBytes(), base.BandwidthSavedBytes())
	}
}

func TestCyclesToNS(t *testing.T) {
	if CyclesToNS(2) != 1 {
		t.Errorf("CyclesToNS(2) = %v, want 1 at 2GHz", CyclesToNS(2))
	}
}

func TestPACStatsPresentOnlyForPAC(t *testing.T) {
	if run(t, smallConfig("GS", coalesce.ModePAC)).PAC == nil {
		t.Error("PAC stats missing")
	}
	if run(t, smallConfig("GS", coalesce.ModeDMC)).PAC != nil {
		t.Error("DMC run has PAC stats")
	}
}
