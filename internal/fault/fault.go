// Package fault injects deterministic HMC transaction-layer faults into
// a simulation run: link CRC errors that consume a retry-buffer replay,
// transient vault stalls (ECC-scrub windows) that freeze a vault
// controller, and poisoned response packets that force an MSHR re-issue.
// These are the recoverable failure modes of the real HMC transaction
// layer — CRC-protected FLITs with per-link retry buffers, and poison
// bits on response packets — that a perfect-device model hides.
//
// Every fault is drawn from counter-based PRNG streams seeded from the
// simulation seed, never from wall clock, so an identical Config + seed
// reproduces the identical fault plan under both the event kernel and
// the reference stepper. The injector is an engine.Clocked component:
// a pending vault-stall window bounds the scheduler's NextWake, and
// SkipTo guards against the driver skipping over a window, so fault
// timing composes with cycle-skipping instead of disabling it.
package fault

import (
	"fmt"

	"github.com/pacsim/pac/internal/engine"
)

// Config describes one fault plan. The zero value injects nothing.
type Config struct {
	// LinkCRCRate is the per-packet probability that the request
	// packet fails CRC on the link and is replayed from the link's
	// retry buffer. The replay re-serializes the packet and pays
	// LinkRetryPenalty on top.
	LinkCRCRate float64
	// LinkRetryPenalty is the fixed retry-buffer turnaround cost in
	// cycles added to each CRC replay, on top of re-serializing the
	// packet's FLITs. 0 defaults to 8.
	LinkRetryPenalty int64
	// PoisonRate is the per-packet probability that the response
	// returns poisoned: the data is discarded and the MSHR entry
	// re-issues the request as a fresh packet.
	PoisonRate float64
	// MaxReissues bounds how many times one MSHR entry re-issues a
	// poisoned request before the response is delivered anyway, so a
	// pathological plan (PoisonRate 1) cannot wedge the simulation.
	// 0 defaults to 8.
	MaxReissues int
	// VaultStallInterval is the mean gap in cycles between vault
	// stall windows (ECC scrubs). 0 disables vault stalls.
	VaultStallInterval int64
	// VaultStallCycles is how long each stall window freezes its
	// vault's controller. 0 defaults to 200.
	VaultStallCycles int64
	// Seed perturbs the fault streams independently of the workload
	// seed, so different plans can run over an identical trace.
	Seed uint64
}

// Enabled reports whether the plan injects any faults at all.
func (c Config) Enabled() bool {
	return c.LinkCRCRate > 0 || c.PoisonRate > 0 || c.VaultStallInterval > 0
}

// Validate rejects malformed plans.
func (c Config) Validate() error {
	if c.LinkCRCRate < 0 || c.LinkCRCRate > 1 {
		return fmt.Errorf("fault: LinkCRCRate = %v, want [0,1]", c.LinkCRCRate)
	}
	if c.PoisonRate < 0 || c.PoisonRate > 1 {
		return fmt.Errorf("fault: PoisonRate = %v, want [0,1]", c.PoisonRate)
	}
	if c.LinkRetryPenalty < 0 {
		return fmt.Errorf("fault: LinkRetryPenalty = %d, want >= 0", c.LinkRetryPenalty)
	}
	if c.MaxReissues < 0 {
		return fmt.Errorf("fault: MaxReissues = %d, want >= 0", c.MaxReissues)
	}
	if c.VaultStallInterval < 0 {
		return fmt.Errorf("fault: VaultStallInterval = %d, want >= 0", c.VaultStallInterval)
	}
	if c.VaultStallCycles < 0 {
		return fmt.Errorf("fault: VaultStallCycles = %d, want >= 0", c.VaultStallCycles)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.LinkRetryPenalty == 0 {
		c.LinkRetryPenalty = 8
	}
	if c.MaxReissues == 0 {
		c.MaxReissues = 8
	}
	if c.VaultStallCycles == 0 {
		c.VaultStallCycles = 200
	}
	return c
}

// Stats counts the faults one run injected.
type Stats struct {
	// LinkCRCErrors counts request packets replayed after a CRC
	// failure; LinkRetryCycles is the total link time the replays
	// consumed.
	LinkCRCErrors   int64
	LinkRetryCycles int64
	// VaultStalls counts ECC-scrub windows; VaultStallCycles is their
	// total duration.
	VaultStalls      int64
	VaultStallCycles int64
	// PoisonedResponses counts responses delivered poisoned (whether
	// or not the entry could still re-issue).
	PoisonedResponses int64
}

// Total returns the number of injected fault events of all kinds.
func (s Stats) Total() int64 {
	return s.LinkCRCErrors + s.VaultStalls + s.PoisonedResponses
}

// splitmix64 advances the state and returns the next 64-bit draw
// (Steele et al.'s SplitMix64, the standard seed-expansion mixer).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// frac maps a draw onto [0,1) with 53 bits of precision.
func frac(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// InjectorState is the mutable state of an Injector: the two PRNG
// stream positions, the pending stall window, and the fault counters.
// The plan config and vault count come from the run config.
type InjectorState struct {
	// Independent draw streams: per-packet faults advance PktRng once
	// per Submit regardless of outcome, and the window schedule
	// advances WinRng, so enabling one fault class never perturbs the
	// draws of another.
	PktRng uint64
	WinRng uint64

	// NextStart/NextVault describe the next pending stall window;
	// NextStart is engine.Never when vault stalls are disabled.
	NextStart int64
	NextVault int

	Stats Stats
}

// Injector holds one run's fault plan. It is owned by a single Runner
// and is not safe for concurrent use, like every other component.
type Injector struct {
	cfg    Config
	vaults int
	InjectorState
}

// NewInjector builds the injector for one run. simSeed is the run's
// workload seed; vaults is the device's vault count.
func NewInjector(cfg Config, simSeed uint64, vaults int) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	if vaults <= 0 {
		panic(fmt.Sprintf("fault: vault count %d", vaults))
	}
	// Distinct stream tags keep the two streams independent even when
	// cfg.Seed == simSeed == 0.
	base := simSeed*0x9e3779b97f4a7c15 + cfg.Seed
	inj := &Injector{
		cfg:    cfg,
		vaults: vaults,
		InjectorState: InjectorState{
			PktRng:    base ^ 0x706b74, // "pkt"
			WinRng:    base ^ 0x77696e, // "win"
			NextStart: engine.Never,
		},
	}
	if cfg.VaultStallInterval > 0 {
		inj.scheduleWindow(0)
	}
	return inj
}

// scheduleWindow draws the next stall window strictly after cycle from.
// Gaps are uniform on [interval/2, 3*interval/2), so the mean gap is
// the configured interval but windows never align across vault counts.
func (inj *Injector) scheduleWindow(from int64) {
	gap := inj.cfg.VaultStallInterval/2 +
		int64(splitmix64(&inj.WinRng)%uint64(inj.cfg.VaultStallInterval)) + 1
	inj.NextStart = from + gap
	inj.NextVault = int(splitmix64(&inj.WinRng) % uint64(inj.vaults))
}

// PacketFaults draws the per-packet faults for one device submission.
// replay is the extra link occupancy (re-serialization plus retry-
// buffer turnaround) of a CRC failure, 0 when the packet passed CRC;
// poison reports whether the response must come back poisoned. Exactly
// two draws are consumed per call, in packet-submission order, which
// is identical under both drivers — that is what makes the plan
// driver-independent.
func (inj *Injector) PacketFaults(reqFlits, flitCycles int64) (replay int64, poison bool) {
	crc := frac(splitmix64(&inj.PktRng))
	p := frac(splitmix64(&inj.PktRng))
	if inj.cfg.LinkCRCRate > 0 && crc < inj.cfg.LinkCRCRate {
		replay = inj.cfg.LinkRetryPenalty + reqFlits*flitCycles
		inj.Stats.LinkCRCErrors++
		inj.Stats.LinkRetryCycles += replay
	}
	poison = inj.cfg.PoisonRate > 0 && p < inj.cfg.PoisonRate
	return replay, poison
}

// PopWindow pops the pending vault-stall window if it has started by
// cycle now. The driver calls it at the top of every step until ok is
// false, then freezes the returned vault until cycle until.
func (inj *Injector) PopWindow(now int64) (vault int, until int64, ok bool) {
	if inj.NextStart > now {
		return 0, 0, false
	}
	vault = inj.NextVault
	until = inj.NextStart + inj.cfg.VaultStallCycles
	inj.Stats.VaultStalls++
	inj.Stats.VaultStallCycles += inj.cfg.VaultStallCycles
	inj.scheduleWindow(inj.NextStart)
	return vault, until, true
}

// NotePoisoned records the delivery of a poisoned response for an entry
// that has already been re-issued prior times, and reports whether the
// entry should re-issue once more (false once MaxReissues is reached —
// the data is then accepted as-is rather than wedging the run).
func (inj *Injector) NotePoisoned(prior int) bool {
	inj.Stats.PoisonedResponses++
	return prior < inj.cfg.MaxReissues
}

// NextWake implements engine.Clocked: a pending stall window bounds the
// skip so the driver steps on the exact cycle the window opens.
func (inj *Injector) NextWake(now int64) int64 {
	return inj.NextStart
}

// SkipTo guards the cycle-skipping contract: the driver must never skip
// to or past a pending window start, because the freeze must be applied
// on the cycle it opens. The per-packet streams need no replay — they
// advance per submission, not per cycle.
func (inj *Injector) SkipTo(t int64) {
	if t >= inj.NextStart {
		panic(fmt.Sprintf("fault: skip to %d over stall window at %d", t, inj.NextStart))
	}
}
