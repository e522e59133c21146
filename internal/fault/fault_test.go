package fault

import (
	"strings"
	"testing"

	"github.com/pacsim/pac/internal/engine"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero ok", Config{}, ""},
		{"full ok", Config{LinkCRCRate: 0.5, PoisonRate: 1, VaultStallInterval: 100}, ""},
		{"crc rate", Config{LinkCRCRate: 1.5}, "LinkCRCRate"},
		{"crc negative", Config{LinkCRCRate: -0.1}, "LinkCRCRate"},
		{"poison rate", Config{PoisonRate: 2}, "PoisonRate"},
		{"penalty", Config{LinkRetryPenalty: -1}, "LinkRetryPenalty"},
		{"reissues", Config{MaxReissues: -1}, "MaxReissues"},
		{"interval", Config{VaultStallInterval: -5}, "VaultStallInterval"},
		{"stall cycles", Config{VaultStallCycles: -5}, "VaultStallCycles"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, cfg := range []Config{
		{LinkCRCRate: 0.01},
		{PoisonRate: 0.01},
		{VaultStallInterval: 1000},
	} {
		if !cfg.Enabled() {
			t.Errorf("%+v reports disabled", cfg)
		}
	}
}

// TestDeterministicPlan proves the core contract: identical config and
// seed reproduce the identical draw sequence, window schedule and
// stats; a different seed diverges.
func TestDeterministicPlan(t *testing.T) {
	cfg := Config{LinkCRCRate: 0.2, PoisonRate: 0.1, VaultStallInterval: 500, Seed: 7}
	type draw struct {
		replay int64
		poison bool
	}
	plan := func(seed uint64) ([]draw, []int64, Stats) {
		inj := NewInjector(cfg, seed, 32)
		var draws []draw
		var windows []int64
		now := int64(0)
		for i := 0; i < 2000; i++ {
			r, p := inj.PacketFaults(2, 1)
			draws = append(draws, draw{r, p})
			now += 10
			for {
				v, until, ok := inj.PopWindow(now)
				if !ok {
					break
				}
				windows = append(windows, int64(v), until)
			}
		}
		return draws, windows, inj.Stats
	}
	d1, w1, s1 := plan(42)
	d2, w2, s2 := plan(42)
	if s1 != s2 {
		t.Fatalf("stats diverge for identical seed: %+v vs %+v", s1, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("draw %d diverges: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	if len(w1) != len(w2) {
		t.Fatalf("window schedules diverge: %d vs %d entries", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("window %d diverges: %d vs %d", i, w1[i], w2[i])
		}
	}
	_, _, s3 := plan(43)
	if s1 == s3 {
		t.Error("different seeds produced identical stats (suspicious)")
	}
}

// TestPacketFaultRates sanity-checks the draw distribution: over many
// draws the observed CRC and poison rates land near the configured
// probabilities.
func TestPacketFaultRates(t *testing.T) {
	cfg := Config{LinkCRCRate: 0.25, PoisonRate: 0.1}
	inj := NewInjector(cfg, 1, 32)
	const n = 50_000
	var poisons int64
	for i := 0; i < n; i++ {
		_, p := inj.PacketFaults(2, 1)
		if p {
			poisons++
		}
	}
	s := inj.Stats
	crcRate := float64(s.LinkCRCErrors) / n
	poisonRate := float64(poisons) / n
	if crcRate < 0.23 || crcRate > 0.27 {
		t.Errorf("observed CRC rate %.4f, want ~0.25", crcRate)
	}
	if poisonRate < 0.08 || poisonRate > 0.12 {
		t.Errorf("observed poison rate %.4f, want ~0.10", poisonRate)
	}
	if s.PoisonedResponses != 0 {
		t.Errorf("PacketFaults counted poisons; delivery (NotePoisoned) owns that counter")
	}
	// Each replay pays the penalty plus re-serialization of 2 flits.
	if want := s.LinkCRCErrors * (8 + 2); s.LinkRetryCycles != want {
		t.Errorf("LinkRetryCycles = %d, want %d", s.LinkRetryCycles, want)
	}
}

// TestWindowSchedule checks stall windows are strictly increasing, stay
// within the [interval/2, 3*interval/2] gap envelope, pick in-range
// vaults, and bound NextWake.
func TestWindowSchedule(t *testing.T) {
	const interval, vaults = 1000, 8
	cfg := Config{VaultStallInterval: interval}
	inj := NewInjector(cfg, 9, vaults)
	prev := int64(0)
	for i := 0; i < 200; i++ {
		start := inj.NextWake(prev)
		if start == engine.Never {
			t.Fatal("window schedule ran dry")
		}
		gap := start - prev
		if gap < interval/2+1 || gap > 3*interval/2 {
			t.Fatalf("window %d gap %d outside [%d,%d]", i, gap, interval/2+1, 3*interval/2)
		}
		v, until, ok := inj.PopWindow(start)
		if !ok {
			t.Fatalf("window %d at %d did not pop at its start", i, start)
		}
		if v < 0 || v >= vaults {
			t.Fatalf("window %d picked vault %d of %d", i, v, vaults)
		}
		if until != start+200 { // default VaultStallCycles
			t.Fatalf("window %d until = %d, want %d", i, until, start+200)
		}
		if _, _, ok := inj.PopWindow(start); ok {
			t.Fatalf("window %d popped twice", i)
		}
		prev = start
	}
	s := inj.Stats
	if s.VaultStalls != 200 || s.VaultStallCycles != 200*200 {
		t.Errorf("stats = %+v, want 200 stalls of 200 cycles", s)
	}
}

// TestSkipToPanics pins the wrong-wake guard: skipping to or past a
// pending window start must panic, skipping short of it must not.
func TestSkipToPanics(t *testing.T) {
	inj := NewInjector(Config{VaultStallInterval: 1000}, 3, 4)
	start := inj.NextWake(0)
	inj.SkipTo(start - 1) // legal
	defer func() {
		if recover() == nil {
			t.Error("SkipTo over a pending window did not panic")
		}
	}()
	inj.SkipTo(start)
}

// TestSkipToDisabled proves a plan with no vault stalls never bounds
// the skip.
func TestSkipToDisabled(t *testing.T) {
	inj := NewInjector(Config{LinkCRCRate: 0.5}, 3, 4)
	if w := inj.NextWake(100); w != engine.Never {
		t.Errorf("NextWake = %d, want Never", w)
	}
	inj.SkipTo(1 << 40) // must not panic
	if _, _, ok := inj.PopWindow(1 << 40); ok {
		t.Error("disabled plan produced a stall window")
	}
}

// TestNotePoisonedCap checks the re-issue cap: entries re-issue until
// MaxReissues, then accept the response, and every delivery counts.
func TestNotePoisonedCap(t *testing.T) {
	inj := NewInjector(Config{PoisonRate: 1, MaxReissues: 3}, 1, 4)
	for prior := 0; prior < 3; prior++ {
		if !inj.NotePoisoned(prior) {
			t.Fatalf("prior=%d refused re-issue before the cap", prior)
		}
	}
	if inj.NotePoisoned(3) {
		t.Error("prior=3 re-issued past MaxReissues=3")
	}
	if s := inj.Stats; s.PoisonedResponses != 4 {
		t.Errorf("PoisonedResponses = %d, want 4", s.PoisonedResponses)
	}
}

// TestStreamIndependence proves enabling vault stalls does not perturb
// the per-packet draw stream.
func TestStreamIndependence(t *testing.T) {
	base := Config{LinkCRCRate: 0.3, PoisonRate: 0.2}
	withStalls := base
	withStalls.VaultStallInterval = 100
	a := NewInjector(base, 5, 16)
	b := NewInjector(withStalls, 5, 16)
	for i := 0; i < 1000; i++ {
		r1, p1 := a.PacketFaults(3, 1)
		r2, p2 := b.PacketFaults(3, 1)
		if r1 != r2 || p1 != p2 {
			t.Fatalf("draw %d diverges once stalls are enabled: (%d,%v) vs (%d,%v)",
				i, r1, p1, r2, p2)
		}
		// Drain b's windows as a driver would.
		for {
			if _, _, ok := b.PopWindow(int64(i) * 50); !ok {
				break
			}
		}
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{LinkCRCErrors: 2, VaultStalls: 3, PoisonedResponses: 5, LinkRetryCycles: 99}
	if s.Total() != 10 {
		t.Errorf("Total = %d, want 10", s.Total())
	}
}
