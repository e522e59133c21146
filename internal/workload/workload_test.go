package workload

import (
	"testing"

	"github.com/pacsim/pac/internal/mem"
)

func TestNamesCoversRegistry(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("Names() returned %d benchmarks, want 14: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
		if _, err := New(n, Config{Cores: 2, Scale: 0.01}); err != nil {
			t.Errorf("New(%q) failed: %v", n, err)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("NOPE", Config{}); err == nil {
		t.Fatal("New with unknown name should error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with unknown name should panic")
		}
	}()
	MustNew("NOPE", Config{})
}

func TestGeneratorNameMatchesRegistryKey(t *testing.T) {
	for _, n := range Names() {
		g := MustNew(n, Config{Cores: 1, Scale: 0.01})
		if g.Name() != n {
			t.Errorf("generator registered as %q reports Name()=%q", n, g.Name())
		}
	}
}

// TestCoreStreamsDiffer: distinct cores should not emit byte-identical
// address streams (they work on different data or different random seeds).
func TestCoreStreamsDiffer(t *testing.T) {
	for _, n := range Names() {
		g := MustNew(n, Config{Cores: 2, Seed: 7, Scale: 0.01})
		same := 0
		const probe = 200
		for i := 0; i < probe; i++ {
			if g.Next(0).Addr == g.Next(1).Addr {
				same++
			}
		}
		if same == probe {
			t.Errorf("%s: cores 0 and 1 produced identical address streams", n)
		}
	}
}

// TestAddressesWithinPhysicalSpace: all generated addresses must fit the
// 52-bit physical address space and be nonzero for access operations.
func TestAddressesWithinPhysicalSpace(t *testing.T) {
	for _, n := range Names() {
		g := MustNew(n, Config{Cores: 4, Seed: 1, Scale: 0.01})
		for i := 0; i < 2000; i++ {
			a := g.Next(i % 4)
			if a.Op == mem.OpFence {
				continue
			}
			if a.Addr == 0 {
				t.Errorf("%s: zero address for %v", n, a.Op)
				break
			}
			if a.Addr&^uint64(mem.PhysAddrMask) != 0 {
				t.Errorf("%s: address 0x%x exceeds physical space", n, a.Addr)
				break
			}
			if a.Size == 0 || a.Size > 64 {
				t.Errorf("%s: implausible access size %d", n, a.Size)
				break
			}
		}
	}
}

// TestProcessesDisjoint: traces of different processes must never share a
// physical page (the property behind Figure 6b).
func TestProcessesDisjoint(t *testing.T) {
	pagesOf := func(proc int) map[uint64]bool {
		g := MustNew("HPCG", Config{Cores: 2, Seed: 3, Proc: proc, Scale: 0.01})
		pages := map[uint64]bool{}
		for i := 0; i < 3000; i++ {
			a := g.Next(i % 2)
			if a.Op != mem.OpFence {
				pages[mem.PPN(a.Addr)] = true
			}
		}
		return pages
	}
	p0, p1 := pagesOf(0), pagesOf(1)
	for ppn := range p0 {
		if p1[ppn] {
			t.Fatalf("page 0x%x shared between processes", ppn)
		}
	}
}

// TestSeedChangesRandomStreams: benchmarks with random components must
// produce different streams under different seeds.
func TestSeedChangesRandomStreams(t *testing.T) {
	for _, n := range []string{"BFS", "CG", "IS", "SSCA2", "GS"} {
		g1 := MustNew(n, Config{Cores: 1, Seed: 1, Scale: 0.01})
		g2 := MustNew(n, Config{Cores: 1, Seed: 2, Scale: 0.01})
		same := 0
		const probe = 300
		for i := 0; i < probe; i++ {
			if g1.Next(0) == g2.Next(0) {
				same++
			}
		}
		if same == probe {
			t.Errorf("%s: seed change did not alter the stream", n)
		}
	}
}

// TestStructuralContrast checks the key calibration property behind the
// paper's figures: dense benchmarks touch far fewer distinct pages per
// access than BFS. This is the input-side driver of the Fig. 6a ordering.
func TestStructuralContrast(t *testing.T) {
	pagesPerKAccess := func(name string) float64 {
		g := MustNew(name, Config{Cores: 1, Seed: 5, Scale: 0.05})
		pages := map[uint64]bool{}
		n := 0
		for n < 4000 {
			a := g.Next(0)
			if a.Op == mem.OpFence {
				continue
			}
			pages[mem.PPN(a.Addr)] = true
			n++
		}
		return float64(len(pages)) / 4.0
	}
	dense := pagesPerKAccess("EP")
	sparse := pagesPerKAccess("BFS")
	if dense*3 > sparse {
		t.Errorf("expected BFS to touch >3x more pages/access than EP; EP=%.1f BFS=%.1f pages/kaccess", dense, sparse)
	}
}

// TestAtomicsPresent: benchmarks documented as using atomics must emit
// them (they exercise PAC's atomic-bypass path).
func TestAtomicsPresent(t *testing.T) {
	for _, n := range []string{"BFS", "IS", "SSCA2"} {
		g := MustNew(n, Config{Cores: 1, Seed: 1, Scale: 0.01})
		found := false
		for i := 0; i < 2000 && !found; i++ {
			found = g.Next(0).Op == mem.OpAtomic
		}
		if !found {
			t.Errorf("%s: no atomic operations in first 2000 accesses", n)
		}
	}
}

// TestFencesPresent: task/iteration-structured benchmarks must emit fences
// (they exercise PAC's fence-flush path).
func TestFencesPresent(t *testing.T) {
	for _, n := range []string{"SORT", "MG", "SP"} {
		g := MustNew(n, Config{Cores: 1, Seed: 1, Scale: 0.01})
		found := false
		for i := 0; i < 60000 && !found; i++ {
			found = g.Next(0).Op == mem.OpFence
		}
		if !found {
			t.Errorf("%s: no fences in first 60000 accesses", n)
		}
	}
}

func TestRNGDeterministicAndSpread(t *testing.T) {
	r1 := newRNG(1, 2)
	r2 := newRNG(1, 2)
	for i := 0; i < 100; i++ {
		if r1.next() != r2.next() {
			t.Fatal("rng not deterministic")
		}
	}
	r3 := newRNG(1, 3)
	if newRNG(1, 2).next() == r3.next() {
		t.Error("nearby streams should diverge after warm-up")
	}
	// intn bounds.
	r := newRNG(9, 9)
	for i := 0; i < 1000; i++ {
		if v := r.intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn(7) out of range: %d", v)
		}
	}
	if got := r.f64(); got < 0 || got >= 1 {
		t.Fatalf("f64 out of range: %v", got)
	}
}

func TestRNGPanicsOnBadBounds(t *testing.T) {
	r := newRNG(1, 1)
	for _, f := range []func(){
		func() { r.intn(0) },
		func() { r.u64n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on non-positive bound")
				}
			}()
			f()
		}()
	}
}

func TestLayoutRegionsDisjointAndPageAligned(t *testing.T) {
	l := newLayout(0)
	a := l.region(100) // rounds to one page
	b := l.region(8192)
	if a.size != mem.PageSize {
		t.Errorf("region(100).size = %d, want %d", a.size, mem.PageSize)
	}
	if a.base%mem.PageSize != 0 || b.base%mem.PageSize != 0 {
		t.Error("regions must be page aligned")
	}
	if a.base+a.size >= b.base {
		t.Error("regions must not touch (guard page expected)")
	}
}

func TestSeqWalkWraps(t *testing.T) {
	w := newSeqWalk(region{base: 0x1000, size: 128}, 0, 64, 8)
	a1, a2, a3 := w.next(), w.next(), w.next()
	if a1 != 0x1000 || a2 != 0x1040 || a3 != 0x1000 {
		t.Errorf("seqWalk sequence = 0x%x 0x%x 0x%x", a1, a2, a3)
	}
}

func TestPageBurstStaysInPage(t *testing.T) {
	r := newRNG(11, 0)
	reg := region{base: 0x10000, size: 1 << 20}
	b := newPageBurst(reg, r, 4, 8, 64, 8)
	for i := 0; i < 5000; i++ {
		a := b.next()
		if a < reg.base || a >= reg.base+reg.size {
			t.Fatalf("burst address 0x%x escapes region", a)
		}
	}
	// Consecutive addresses inside one burst must share a page.
	b2 := newPageBurst(reg, newRNG(12, 0), 4, 4, 64, 8)
	for burst := 0; burst < 100; burst++ {
		first := b2.next()
		for k := 1; k < 4; k++ {
			a := b2.next()
			if mem.PPN(a) != mem.PPN(first) {
				t.Fatalf("burst crossed page: 0x%x vs 0x%x", first, a)
			}
		}
	}
}
