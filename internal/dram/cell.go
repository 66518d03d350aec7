package dram

import (
	"math"

	"reaper/internal/rng"
	"reaper/internal/stats"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }
func exp(x float64) float64    { return math.Exp(x) }

// weakCell is one cell from the weak tail of the retention distribution: a
// cell whose retention mean lies inside the modelled interval domain and
// which can therefore produce retention failures during experiments.
type weakCell struct {
	// bit is the cell's global linear bit index.
	bit uint64

	// mu is the cell's base retention mean in seconds at the reference
	// temperature, before DPD and VRT adjustments.
	mu float64

	// sigma is the standard deviation (seconds, at reference temperature)
	// of the cell's normal failure CDF (Section 5.5).
	sigma float64

	// dpdSens in [0,1) scales how strongly the stored neighbourhood data
	// shifts this cell's retention; dpdSeed makes the per-neighbourhood
	// shift a stable function of the data.
	dpdSens float64
	dpdSeed uint64

	// chargedVal is the logical value (0 or 1) stored as charge in this
	// cell. Retention loss can only corrupt a cell storing its charged
	// value ("true-cells" lose 1s, "anti-cells" lose 0s), which is why the
	// paper tests patterns together with their inverses.
	chargedVal uint8

	// stuck holds the value the cell currently reads as if a past failure
	// was restored into it by a read/refresh (the paper's Figure 1c
	// scenario); -1 when the cell holds its written data.
	stuck int8

	// inStuckList records membership in Device.stuckList, the overlay a
	// sparse sweep visits instead of scanning the population for stuck
	// cells. stuck >= 0 implies inStuckList; the converse can be stale
	// after a partial-write clear until the next collecting sweep compacts
	// the list.
	inStuckList bool

	// dpdTracked / vrtTracked record membership in the device's delta-codec
	// divergence journals (Device.dpdReseeded / Device.vrtForced), so a cell
	// hit by repeated injection events is journaled exactly once. A forced
	// VRT cell stays journaled forever: its whole future switch schedule
	// descends from the forced baseline, not the construction draw.
	dpdTracked bool
	vrtTracked bool

	// nbrCode caches the cell's neighbourhood code for the write epoch
	// nbrEpoch; valid only while nbrEpoch == Device.contentEpoch.
	nbrCode  uint64 //lint:serialized-elsewhere per-epoch memo; recomputed on the first sample after restore
	nbrEpoch uint64 //lint:serialized-elsewhere per-epoch memo; stale by construction until it matches the restored contentEpoch

	// vrt is non-nil for cells with variable retention time.
	vrt *vrtState
}

// vrtState models the memoryless two-state VRT process (Section 2.3.1): the
// cell alternates between a low-retention state (mean muLow) and a
// high-retention state (muHigh), with exponentially distributed dwell times.
type vrtState struct {
	muLow, muHigh float64
	dwellLow      float64 // mean dwell in low state, seconds
	dwellHigh     float64 // mean dwell in high state, seconds
	inLow         bool
	nextSwitch    float64 // simulated time (seconds) of the next transition
	src           *rng.Source
}

// advance rolls the VRT process forward to simulated time now.
func (v *vrtState) advance(now float64) {
	for v.nextSwitch <= now {
		v.inLow = !v.inLow
		mean := v.dwellHigh
		if v.inLow {
			mean = v.dwellLow
		}
		v.nextSwitch += v.src.Exp(mean)
	}
}

// muAt returns the cell's retention mean (seconds) at simulated time now,
// accounting for the VRT state.
func (c *weakCell) muAt(now float64) float64 {
	if c.vrt == nil {
		return c.mu
	}
	c.vrt.advance(now)
	if c.vrt.inLow {
		return c.vrt.muLow
	}
	return c.vrt.muHigh
}

// dpdFactor returns the multiplicative retention shift induced by the
// neighbourhood data code (a small integer encoding the stored values of the
// cell's neighbours). The cell's base retention mean is its *worst-case*
// (most leakage-coupled) retention; any other neighbourhood data lengthens
// it by a stable pseudo-random factor in [1, 1+2*dpdSens]. A given pattern
// therefore always exposes the same subset of cells while different patterns
// expose different ones, and no pattern can push a cell below its calibrated
// worst-case retention (which keeps default-interval operation lossless).
func (c *weakCell) dpdFactor(code uint64) float64 {
	if c.dpdSens == 0 {
		return 1
	}
	h := mix64(c.dpdSeed ^ (code+1)*0x9e3779b97f4a7c15)
	u := float64(h>>11) / (1 << 53) // [0,1)
	return 1 + 2*c.dpdSens*u
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// failProb returns the probability that a single read of this cell, elapsed
// seconds after its last restore, at ambient temperature tempC, with the
// given stored bit and neighbourhood code, returns the wrong value.
func (c *weakCell) failProb(elapsed, tempC float64, storedBit uint8, code uint64, v *VendorParams, now float64) float64 {
	if storedBit != c.chargedVal {
		// The cell is storing its discharged value; leakage cannot
		// corrupt it.
		return 0
	}
	scale := v.muTempScale(tempC)
	mu := c.muAt(now) * scale * c.dpdFactor(code)
	sigma := c.sigma * scale
	return stats.NormalCDF(elapsed, mu, sigma)
}

// worstCaseFailProb returns the cell's failure probability maximized over
// neighbourhood codes, with retention scaled by scale (muTempScale). Used by
// the ground-truth oracle. NormalCDF is monotone non-increasing in its mean
// and base*f monotone in f under rounding, so one CDF at the smallest
// dpdFactor equals the 16-CDF maximum exactly.
func (c *weakCell) worstCaseFailProb(elapsed, scale, now float64) float64 {
	f := c.dpdFactor(0)
	for code := uint64(1); code < dpdCodes; code++ {
		f = min(f, c.dpdFactor(code))
	}
	return stats.NormalCDF(elapsed, c.muAt(now)*scale*f, c.sigma*scale)
}

// dpdCodes is the number of distinct neighbourhood codes: 4 neighbour bits
// (left, right, above, below) => 16 codes.
const dpdCodes = 16
