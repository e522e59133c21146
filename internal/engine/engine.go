// Package engine holds the contract of the discrete-event simulation
// kernel in internal/sim: instead of ticking every component on every
// simulated cycle, the event driver asks each component for the earliest
// cycle at which it could make progress and advances the clock straight
// to the minimum — the event-driven structure of cycle-accurate HMC
// models like HMC-Sim, where long device latencies dominate and most
// cycles are dead time.
//
// The package is deliberately tiny: components keep their own state and
// their own per-cycle step logic, and the driver computes the min-wake
// itself. Determinism rules:
//
//   - NextWake(now) must return a cycle strictly greater than now, or
//     Never. Returning now+1 means "runnable next cycle" and disables
//     skipping.
//   - A component's wake must be a lower bound: stepping the machine at
//     every cycle from now+1 to NextWake(now)-1 would leave its state
//     unchanged (pure stall counters excepted — the driver accounts for
//     those in closed form when it skips).
//   - The driver consults components in a fixed order and steps them in
//     a fixed order within a cycle, so tie-breaking between simultaneous
//     events is positional and reproducible run to run.
package engine

import "math"

// Never is the wake cycle of a component with no self-scheduled work: it
// only acts in response to other components, which the driver sees
// through their own wake times.
const Never int64 = math.MaxInt64

// Clocked is the contract between the event driver and a simulated
// component: NextWake reports the earliest cycle strictly after now at
// which stepping the component could change machine state.
type Clocked interface {
	NextWake(now int64) int64
}
