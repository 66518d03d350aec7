package dram

import (
	"sort"

	"reaper/internal/stats"
)

// This file exposes the device's latent ground truth. Real chips have no
// such interface — profiling mechanisms only ever see read/write results —
// but the reproduction needs it to *score* profilers: coverage and false
// positive rate (Section 6 of the paper) are defined against the true set of
// failing cells at the target conditions, which only the model can know.

// CellInfo describes one weak cell's latent parameters at the reference
// temperature. Used by the characterization harness to regenerate the
// paper's per-cell distribution figures (Figures 6 and 7).
type CellInfo struct {
	Bit        uint64
	Mu         float64 // seconds, at RefTempC, pattern-neutral, current VRT state
	Sigma      float64 // seconds, at RefTempC
	ChargedVal uint8
	VRT        bool
	DPDSens    float64
}

// Cells returns a snapshot of all weak cells' latent parameters at simulated
// time now (VRT cells report their current state's retention mean).
// Time arguments across Device calls must be non-decreasing.
func (d *Device) Cells(now float64) []CellInfo {
	out := make([]CellInfo, 0, len(d.weak))
	for _, c := range d.weak {
		out = append(out, CellInfo{
			Bit:        c.bit,
			Mu:         c.muAt(now),
			Sigma:      c.sigma,
			ChargedVal: c.chargedVal,
			VRT:        c.vrt != nil,
			DPDSens:    c.dpdSens,
		})
	}
	return out
}

// CellFailProb returns the probability that the cell at the given bit index
// fails a single read after tREFI seconds without refresh at ambient
// temperature tempC, under its worst-case data pattern, evaluated at
// simulated time now. Returns 0 for strong cells (bits not in the weak
// population).
func (d *Device) CellFailProb(bit uint64, tREFI, tempC, now float64) float64 {
	i := sort.Search(len(d.weak), func(i int) bool { return d.weak[i].bit >= bit })
	if i >= len(d.weak) || d.weak[i].bit != bit {
		return 0
	}
	return d.weak[i].worstCaseFailProb(tREFI, d.vend.muTempScale(tempC), now)
}

// TrueFailingSet returns the ground-truth set of failing cells at the target
// conditions (refresh interval tREFI seconds, ambient temperature tempC),
// evaluated at simulated time now: every cell whose worst-case-pattern
// single-read failure probability is at least threshold. This operationalizes
// the paper's "all possible failing cells at the target refresh interval"
// (the limit of infinite brute-force iterations over all data patterns).
//
// A typical threshold is OracleThreshold. Cells whose activation key
// (index.go) exceeds tREFI at this temperature cannot reach
// unreachableFailProb under any pattern or VRT state and are not evaluated,
// but still advance their VRT state to now, as evaluation would.
func (d *Device) TrueFailingSet(tREFI, tempC, now, threshold float64) []uint64 {
	scale := d.vend.muTempScale(tempC)
	skip := threshold >= unreachableFailProb
	var out []uint64
	for _, c := range d.weak {
		if skip && activationKey(c)*scale > tREFI {
			if c.vrt != nil {
				c.vrt.advance(now)
			}
			continue
		}
		if c.worstCaseFailProb(tREFI, scale, now) >= threshold {
			out = append(out, c.bit)
		}
	}
	return out
}

// unreachableFailProb (~2.3e-4) bounds the probability of every cell
// TrueFailingSet skips; thresholds below it evaluate every cell.
var unreachableFailProb = stats.NormalCDF(-zClip, 0, 1)

// OracleThreshold is the default minimum single-read worst-case failure
// probability for a cell to count as a "possible failing cell" at given
// conditions. 1e-3 corresponds to a cell that would be observed at least
// once in a thousand brute-force trials.
const OracleThreshold = 1e-3
