// Package hmc is an event-timed simulator of a Hybrid Memory Cube device,
// standing in for HMC-Sim 3.0 in the paper's testbed (see DESIGN.md §1).
//
// It models the mechanisms the paper's evaluation measures:
//
//   - a packetized FLIT interface (16B FLITs) with 16B request and 16B
//     response control overhead per transaction (32B per request total);
//   - four SERDES links with round-robin dispatch and per-link
//     serialization;
//   - a crossbar that routes each request to its target vault, at a lower
//     cost when the chosen link is physically adjacent to the vault's
//     quadrant (local route) than when it must cross the die (remote);
//   - 32 vaults x 16 banks with closed-page DRAM timing: every access
//     opens and precharges its row, and a request arriving while its bank
//     is cycling queues up — a bank conflict;
//   - per-operation energy counters mirroring HMC-Sim's power taxonomy
//     (VAULT-RQST-SLOT, VAULT-RSP-SLOT, VAULT-CTRL, LINK-LOCAL-ROUTE,
//     LINK-REMOTE-ROUTE) plus DRAM array energy.
//
// Timing is computed at submit time (no preemption): Submit returns the
// completion cycle and queues a Response retrievable with PopCompleted.
package hmc

import (
	"fmt"

	"github.com/pacsim/pac/internal/engine"
	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/stats"
)

// FlitBytes is the HMC flow-control unit size.
const FlitBytes = 16

// PagePolicy selects the DRAM row management policy.
type PagePolicy int

const (
	// ClosedPage precharges the row after every access — the HMC
	// policy (paper §2.2.2): with narrow 256B rows the row-buffer hit
	// probability is too low to pay for keeping rows open.
	ClosedPage PagePolicy = iota
	// OpenPage leaves the row buffer open after each access, the
	// DDR-style policy behind row-buffer-hit harvesting controllers
	// (paper §2.2.1). Provided for the ablation that demonstrates why
	// HMC abandoned it.
	OpenPage
)

// String names the policy.
func (p PagePolicy) String() string {
	if p == OpenPage {
		return "open-page"
	}
	return "closed-page"
}

// Config describes the simulated device. All timing is in CPU cycles
// (Table 1: 2 GHz, so one cycle is 0.5 ns).
type Config struct {
	// Links is the number of SERDES links (Table 1: 4).
	Links int
	// Vaults is the number of vertical vaults (HMC 2.1: 32).
	Vaults int
	// BanksPerVault is the DRAM bank count per vault (16).
	BanksPerVault int
	// RowBytes is the DRAM row (block) size (Table 1: 256B).
	RowBytes int
	// MaxReqBytes is the maximum request payload (256B for HMC 2.1).
	MaxReqBytes int
	// LinkFlitCycles is the per-FLIT serialization time on a link.
	LinkFlitCycles int64
	// XbarLocalCycles and XbarRemoteCycles are the crossbar traversal
	// times for quadrant-local and cross-die routes.
	XbarLocalCycles, XbarRemoteCycles int64
	// VaultCtrlCycles is the vault controller's fixed per-request
	// processing time.
	VaultCtrlCycles int64
	// RowAccessCycles is the activate-to-data DRAM latency of one
	// closed-page row access.
	RowAccessCycles int64
	// RowCycleCycles (tRC) is how long the bank stays busy per access
	// (activate + access + precharge).
	RowCycleCycles int64
	// RowHitCycles is the access latency when the target row is
	// already open (OpenPage only); 0 defaults to RowAccessCycles/2.
	RowHitCycles int64
	// Policy selects closed-page (HMC default) or open-page row
	// management.
	Policy PagePolicy
}

// DefaultConfig returns an 8GB HMC 2.1-like device matching Table 1, with
// first-order timings chosen so the loaded average access latency lands
// near the paper's 93 ns at 2 GHz.
func DefaultConfig() Config {
	return Config{
		Links:            4,
		Vaults:           32,
		BanksPerVault:    16,
		RowBytes:         256,
		MaxReqBytes:      256,
		LinkFlitCycles:   1,
		XbarLocalCycles:  4,
		XbarRemoteCycles: 12,
		VaultCtrlCycles:  8,
		RowAccessCycles:  90,
		RowCycleCycles:   96,
	}
}

// HBMConfig returns an HBM2-like device profile (paper §4.1): wider rows
// (1KB), eight channels standing in for the SERDES links, and sixteen
// pseudo-channel vaults. PAC drives it with 16-bit block sequences.
func HBMConfig() Config {
	cfg := DefaultConfig()
	cfg.Links = 8
	cfg.Vaults = 16
	cfg.RowBytes = 1024
	cfg.MaxReqBytes = 1024
	return cfg
}

func (c Config) validate() {
	if c.Links <= 0 || c.Vaults <= 0 || c.BanksPerVault <= 0 {
		panic(fmt.Sprintf("hmc: bad topology %+v", c))
	}
	if c.Vaults%c.Links != 0 {
		panic("hmc: vaults must divide evenly into link quadrants")
	}
	if c.RowBytes < FlitBytes || c.MaxReqBytes > c.RowBytes {
		panic("hmc: request size must fit within one row")
	}
}

// Stats aggregates device-side measurements.
type Stats struct {
	// Requests counts submitted packets; Reads/Writes/Atomics break
	// them down.
	Requests, Reads, Writes, Atomics int64
	// PayloadBytes is the data moved; ControlBytes is the 32B-per-
	// request packet overhead (Figure 10a's transaction efficiency).
	PayloadBytes, ControlBytes int64
	// BankConflicts counts requests that found their bank cycling and
	// had to wait (Figure 6c).
	BankConflicts int64
	// BankConflictCycles accumulates the waiting time behind busy banks.
	BankConflictCycles int64
	// RemoteRoutes and LocalRoutes split crossbar traversals.
	RemoteRoutes, LocalRoutes int64
	// RowActivations counts row activate/precharge cycles performed.
	RowActivations int64
	// RowHits counts open-page accesses that found their row open.
	RowHits int64
	// Latency tracks per-request submit-to-completion time in cycles.
	Latency stats.Mean
	// Energy is the per-category energy ledger.
	Energy Energy
}

// TransactionEfficiency returns payload/(payload+control) in percent
// (the paper's Equation 2).
func (s *Stats) TransactionEfficiency() float64 {
	return stats.Pct(s.PayloadBytes, s.PayloadBytes+s.ControlBytes)
}

// Pending is a scheduled response.
type Pending struct {
	Resp mem.Response
	At   int64
}

// pendingHeap is a hand-rolled binary min-heap ordered by completion
// cycle. It used to implement container/heap.Interface, but every
// heap.Push boxed its pending value into an interface — one allocation
// per submitted packet. The sift routines below mirror container/heap's
// up/down exactly (same comparisons, same swaps), so the pop order of
// equal-cycle responses — and therefore every downstream result — is
// bit-identical to the old implementation.
type pendingHeap []Pending

func (h pendingHeap) Len() int { return len(h) }

func (h *pendingHeap) push(p Pending) {
	*h = append(*h, p)
	// Sift up (container/heap up()).
	j := len(*h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !((*h)[j].At < (*h)[i].At) {
			break
		}
		(*h)[i], (*h)[j] = (*h)[j], (*h)[i]
		j = i
	}
}

func (h *pendingHeap) pop() Pending {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	// Sift down over old[:n] (container/heap down()).
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && old[j2].At < old[j1].At {
			j = j2
		}
		if !(old[j].At < old[i].At) {
			break
		}
		old[i], old[j] = old[j], old[i]
		i = j
	}
	p := old[n]
	old[n] = Pending{}
	*h = old[:n]
	return p
}

// DeviceState is the mutable state of a Device. Completed is the
// pending-response heap's backing array verbatim: the heap layout (not
// just its contents) determines the pop order of equal-cycle responses,
// so it is state. An installed fault injector is a separate component
// with its own state.
type DeviceState struct {
	// Resource availability times, in cycles. Request and response
	// lanes of a link are independent (HMC links are full duplex).
	LinkTxFree []int64 // per-link request-lane availability
	LinkRxFree []int64 // per-link response-lane availability
	VaultFree  []int64 // per-vault controller availability
	BankFree   []int64 // per (vault,bank) row-cycle availability
	OpenRow    []int64 // per (vault,bank) open row number (OpenPage)
	NextLink   int     // round-robin dispatch pointer
	Completed  pendingHeap
	// Stats holds the accumulated device measurements.
	Stats Stats
}

// Device is one simulated HMC.
type Device struct {
	cfg Config

	// Geometry fast paths, precomputed by New: when RowBytes, Vaults,
	// BanksPerVault, or Vaults/Links is a power of two the hot Submit
	// path replaces its divide with the shift/mask below. A negative
	// value means "not a power of two, use the generic divide".
	rowShift   int
	vaultMask  int64
	vaultShift int
	bankMask   int64
	quadShift  int

	popBuf []mem.Response // reused by PopCompleted

	// faults, when installed, injects transaction-layer faults: CRC
	// replays on the request link, poisoned responses, and (via
	// FreezeVault) ECC-scrub vault stalls. nil models a perfect device.
	faults *fault.Injector

	DeviceState
}

// New constructs a device.
func New(cfg Config) *Device {
	cfg.validate()
	if cfg.RowHitCycles <= 0 {
		cfg.RowHitCycles = cfg.RowAccessCycles / 2
	}
	d := &Device{cfg: cfg, DeviceState: DeviceState{
		LinkTxFree: make([]int64, cfg.Links),
		LinkRxFree: make([]int64, cfg.Links),
		VaultFree:  make([]int64, cfg.Vaults),
		BankFree:   make([]int64, cfg.Vaults*cfg.BanksPerVault),
		OpenRow:    make([]int64, cfg.Vaults*cfg.BanksPerVault),
	}}
	for i := range d.OpenRow {
		d.OpenRow[i] = -1
	}
	d.rowShift = pow2Shift(cfg.RowBytes)
	d.vaultMask = pow2Mask(cfg.Vaults)
	d.vaultShift = pow2Shift(cfg.Vaults)
	d.bankMask = pow2Mask(cfg.BanksPerVault)
	d.quadShift = pow2Shift(cfg.Vaults / cfg.Links)
	return d
}

// pow2Shift returns log2(n) when n is a power of two, else -1.
func pow2Shift(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	s := 0
	for 1<<s < n {
		s++
	}
	return s
}

// pow2Mask returns n-1 when n is a power of two, else -1.
func pow2Mask(n int) int64 {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	return int64(n - 1)
}

// rowOf returns the DRAM row number holding addr.
func (d *Device) rowOf(addr uint64) uint64 {
	if d.rowShift >= 0 {
		return addr >> uint(d.rowShift)
	}
	return addr / uint64(d.cfg.RowBytes)
}

// vaultOfRow returns the vault index for a row number.
func (d *Device) vaultOfRow(row uint64) int {
	if d.vaultMask >= 0 {
		return int(row & uint64(d.vaultMask))
	}
	return int(row % uint64(d.cfg.Vaults))
}

// bankOfRow returns the bank index within the vault for a row number.
func (d *Device) bankOfRow(row uint64) int {
	var r uint64
	if d.vaultShift >= 0 {
		r = row >> uint(d.vaultShift)
	} else {
		r = row / uint64(d.cfg.Vaults)
	}
	if d.bankMask >= 0 {
		return int(r & uint64(d.bankMask))
	}
	return int(r % uint64(d.cfg.BanksPerVault))
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// InstallFaults attaches a fault injector; every subsequent Submit
// consults it for per-packet link CRC and poison draws.
func (d *Device) InstallFaults(inj *fault.Injector) { d.faults = inj }

// FreezeVault holds a vault's controller busy until the given cycle —
// the device-side effect of an ECC-scrub stall window. Requests already
// scheduled are unaffected (their timing was fixed at submit); requests
// arriving during the window queue behind it like any other controller
// occupancy.
func (d *Device) FreezeVault(vault int, until int64) {
	if vault < 0 || vault >= len(d.VaultFree) {
		panic(fmt.Sprintf("hmc: freeze of vault %d outside [0,%d)", vault, len(d.VaultFree)))
	}
	if until > d.VaultFree[vault] {
		d.VaultFree[vault] = until
	}
}

// vaultOf returns the vault index for an address: rows are interleaved
// across vaults first, then banks (the HMC default "low interleave" that
// spreads sequential blocks across vaults).
func (d *Device) vaultOf(addr uint64) int {
	return d.vaultOfRow(d.rowOf(addr))
}

// bankOf returns the bank index within the vault.
func (d *Device) bankOf(addr uint64) int {
	return d.bankOfRow(d.rowOf(addr))
}

// flitsFor returns request and response FLIT counts for a packet: each
// direction carries a 16B control header, and the payload travels with
// the write request or the read response.
func flitsFor(pkt mem.Coalesced) (req, resp int64) {
	payload := int64((pkt.Size + FlitBytes - 1) / FlitBytes)
	switch pkt.Op {
	case mem.OpStore:
		return 1 + payload, 1
	case mem.OpAtomic:
		// Atomics carry a small operand and return a small result.
		return 2, 2
	default: // loads
		return 1, 1 + payload
	}
}

// max returns the later of two cycle counts.
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Submit accepts one coalesced packet at the given cycle and schedules its
// response. It returns the completion cycle.
func (d *Device) Submit(pkt mem.Coalesced, now int64) int64 {
	cfg := d.cfg
	if int(pkt.Size) > cfg.MaxReqBytes {
		panic(fmt.Sprintf("hmc: packet %v exceeds device max %dB", pkt, cfg.MaxReqBytes))
	}
	rowStart := d.rowOf(pkt.Addr)
	rowEnd := d.rowOf(pkt.Addr + uint64(pkt.Size) - 1)
	if rowStart != rowEnd {
		panic(fmt.Sprintf("hmc: packet %v spans DRAM rows", pkt))
	}

	s := &d.Stats
	s.Requests++
	switch pkt.Op {
	case mem.OpStore:
		s.Writes++
	case mem.OpAtomic:
		s.Atomics++
	default:
		s.Reads++
	}
	s.PayloadBytes += int64(pkt.Size)
	s.ControlBytes += 2 * FlitBytes // 16B request + 16B response header

	reqFlits, respFlits := flitsFor(pkt)

	// Fault draws happen once per submission, in submission order, so
	// the plan is identical under both simulation drivers.
	var crcReplay int64
	var poison bool
	if d.faults != nil {
		crcReplay, poison = d.faults.PacketFaults(reqFlits, cfg.LinkFlitCycles)
	}

	// 1. Link: round-robin dispatch, serialize the request packet. A
	// CRC failure replays the packet from the link's retry buffer,
	// occupying the request lane for the replay on top of the original
	// serialization.
	link := d.NextLink
	if d.NextLink++; d.NextLink == cfg.Links {
		d.NextLink = 0
	}
	start := max64(now, d.LinkTxFree[link])
	linkDone := start + reqFlits*cfg.LinkFlitCycles + crcReplay
	d.LinkTxFree[link] = linkDone

	// 2. Crossbar: local when the link serves the vault's quadrant.
	vault := d.vaultOfRow(rowStart)
	var quadrant int
	if d.quadShift >= 0 {
		quadrant = vault >> uint(d.quadShift)
	} else {
		quadrant = vault / (cfg.Vaults / cfg.Links)
	}
	local := quadrant == link
	xbar := cfg.XbarRemoteCycles
	if local {
		xbar = cfg.XbarLocalCycles
		s.LocalRoutes++
	} else {
		s.RemoteRoutes++
	}
	atVault := linkDone + xbar

	// 3. Vault controller: serialize per-vault processing. Time spent
	// waiting here is "request slot" occupancy.
	ctrlStart := max64(atVault, d.VaultFree[vault])
	rqstSlotWait := ctrlStart - atVault
	ctrlDone := ctrlStart + cfg.VaultCtrlCycles
	d.VaultFree[vault] = ctrlDone

	// 4. Bank. Arriving while the bank is still busy with a previous
	// access is a bank conflict. Closed page: every access pays the
	// full activate/access/precharge row cycle. Open page: a hit on
	// the open row is fast; a miss pays precharge + activate and
	// leaves the new row open.
	bankIdx := vault*cfg.BanksPerVault + d.bankOfRow(rowStart)
	bankReady := d.BankFree[bankIdx]
	accessStart := ctrlDone
	if bankReady > accessStart {
		s.BankConflicts++
		s.BankConflictCycles += bankReady - accessStart
		accessStart = bankReady
	}
	row := int64(rowStart)
	var dataReady int64
	rowHit := false
	if cfg.Policy == OpenPage {
		if d.OpenRow[bankIdx] == row {
			rowHit = true
			s.RowHits++
			dataReady = accessStart + cfg.RowHitCycles
			d.BankFree[bankIdx] = dataReady
		} else {
			s.RowActivations++
			// Precharge the old row, activate the new one.
			dataReady = accessStart + cfg.RowCycleCycles
			d.BankFree[bankIdx] = dataReady
			d.OpenRow[bankIdx] = row
		}
	} else {
		s.RowActivations++
		d.BankFree[bankIdx] = accessStart + cfg.RowCycleCycles
		dataReady = accessStart + cfg.RowAccessCycles
	}

	// 5. Response: back through the crossbar and serialize on the same
	// link's response lane. Waiting for the lane is "response slot"
	// occupancy.
	respStart := max64(dataReady+xbar, d.LinkRxFree[link])
	rspSlotWait := respStart - (dataReady + xbar)
	done := respStart + respFlits*cfg.LinkFlitCycles
	d.LinkRxFree[link] = done

	d.accountEnergy(pkt, reqFlits, respFlits, local, rqstSlotWait, rspSlotWait, rowHit)

	s.Latency.Add(float64(done - now))
	d.Completed.push(Pending{
		Resp: mem.Response{
			ID:           pkt.ID,
			Done:         done,
			BankConflict: bankReady > ctrlDone,
			Poisoned:     poison,
		},
		At: done,
	})
	return done
}

// PopCompleted returns all responses whose completion cycle is <= now, in
// completion order. The returned slice is reused by the next call, so the
// caller must consume it before driving the device again; submitting new
// packets while iterating is fine (the heap has separate storage).
func (d *Device) PopCompleted(now int64) []mem.Response {
	d.popBuf = d.popBuf[:0]
	for d.Completed.Len() > 0 && d.Completed[0].At <= now {
		d.popBuf = append(d.popBuf, d.Completed.pop().Resp)
	}
	return d.popBuf
}

// Outstanding returns the number of in-flight requests.
func (d *Device) Outstanding() int { return d.Completed.Len() }

// NextCompletion returns the earliest pending completion cycle, or ok =
// false when nothing is in flight.
func (d *Device) NextCompletion() (int64, bool) {
	if d.Completed.Len() == 0 {
		return 0, false
	}
	return d.Completed[0].At, true
}

// NextWake implements the engine.Clocked contract: the device is fully
// event-timed already (Submit schedules the response at submit time), so
// its only self-scheduled work is delivering the earliest pending
// completion.
func (d *Device) NextWake(now int64) int64 {
	at, ok := d.NextCompletion()
	if !ok {
		return engine.Never
	}
	return at
}
