package dram

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/rng"
	"reaper/internal/stats"
)

// The oracle and construction fast paths must reproduce the algorithms they
// replaced bit for bit; the reference implementations below are those
// algorithms, kept only as test oracles.

// refWorstCaseFailProb is the 16-CDF maximum over neighbourhood codes.
func refWorstCaseFailProb(c *weakCell, elapsed, tempC float64, v *VendorParams, now float64) float64 {
	scale := v.muTempScale(tempC)
	sigma := c.sigma * scale
	base := c.muAt(now) * scale
	best := 0.0
	for code := uint64(0); code < dpdCodes; code++ {
		if p := stats.NormalCDF(elapsed, base*c.dpdFactor(code), sigma); p > best {
			best = p
		}
	}
	return best
}

// refNewDevice builds the population with a map collision set, per-draw
// power-law constants, comparator sorts by bit and by (key, bit), and
// per-row appends.
func refNewDevice(t *testing.T, cfg Config) *Device {
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	d := newDeviceShell(cfg)
	v := &d.vend
	tmin, tmax := cfg.MinRetention, cfg.MaxRetention
	powerLaw := func(tmax, beta float64) float64 {
		u := d.src.Float64()
		lo, hi := math.Pow(tmin, beta), math.Pow(tmax, beta)
		return math.Pow(lo+u*(hi-lo), 1/beta)
	}
	taken := map[uint64]bool{}
	add := func(mu float64, vrt bool, muHigh float64) {
		bit := d.src.Uint64n(uint64(d.geom.TotalBits()))
		for taken[bit] {
			bit = d.src.Uint64n(uint64(d.geom.TotalBits()))
		}
		taken[bit] = true
		d.addWeakCell(bit, math.Log(v.SigmaLogMedianMS/1000), mu, vrt, muHigh)
	}
	n := d.src.Poisson(float64(d.geom.TotalBits()) * v.BER(tmax, RefTempC) * cfg.WeakScale)
	for i := 0; i < n; i++ {
		mu := powerLaw(tmax, v.BERExponent)
		add(mu, !cfg.DisableVRT && d.src.Bernoulli(v.VRTFraction), 0)
	}
	if !cfg.DisableVRT {
		vrtMax := min(tmax, vrtDomainMaxS)
		latent := v.VRTRate(vrtMax, RefTempC, d.geom.TotalBytes()) * (v.VRTDwellLowHours + v.VRTDwellHighHours) * cfg.WeakScale
		for m := d.src.Poisson(latent); m > 0; m-- {
			add(powerLaw(vrtMax, v.VRTRateExponent), true, tmax*10)
		}
	}
	slices.SortFunc(d.weak, func(a, b *weakCell) int { return cmp.Compare(a.bit, b.bit) })
	d.byRow = map[uint32][]*weakCell{}
	for _, c := range d.weak {
		d.byRow[d.geom.rowOfBit(c.bit)] = append(d.byRow[d.geom.rowOfBit(c.bit)], c)
	}
	d.actCells = slices.Clone(d.weak)
	slices.SortFunc(d.actCells, func(a, b *weakCell) int {
		return cmp.Or(cmp.Compare(activationKey(a), activationKey(b)), cmp.Compare(a.bit, b.bit))
	})
	for _, c := range d.actCells {
		d.actKeys = append(d.actKeys, activationKey(c))
	}
	return d
}

// forEachEquivalenceConfig runs f on every vendor with VRT and DPD on, and
// with each ablated.
func forEachEquivalenceConfig(t *testing.T, seed uint64, weakScale float64, f func(t *testing.T, cfg Config)) {
	for _, v := range Vendors() {
		for _, ablate := range []string{"", "novrt", "nodpd"} {
			cfg := Config{Geometry: Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 128}, Vendor: v,
				Seed: seed, WeakScale: weakScale, DisableVRT: ablate == "novrt", DisableDPD: ablate == "nodpd"}
			t.Run(fmt.Sprintf("%s/seed%d/ws%g/%s", v.Name, seed, weakScale, ablate), func(t *testing.T) { f(t, cfg) })
		}
	}
}

// requireSameState requires byte-identical dense checkpoints: every cell's
// fields, VRT state and stream, and the device's stream positions.
func requireSameState(t *testing.T, want, got *Device) {
	t.Helper()
	a, b := checkpoint.NewEncoder(), checkpoint.NewEncoder()
	if err := want.EncodeState(a); err != nil {
		t.Fatal(err)
	}
	if err := got.EncodeState(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data(), b.Data()) {
		t.Fatal("dense device states differ")
	}
}

// TestOracleEquivalence requires TrueFailingSet and CellFailProb to equal
// the 16-CDF, every-cell reference exactly, above and below the skip floor,
// after injection, and to leave every VRT process in the reference's state.
func TestOracleEquivalence(t *testing.T) {
	if !(1e-5 < unreachableFailProb && unreachableFailProb < OracleThreshold) {
		t.Fatalf("skip floor %g does not separate the test thresholds", unreachableFailProb)
	}
	forEachEquivalenceConfig(t, 31, 20, func(t *testing.T, cfg Config) {
		ref, got := testDevice(t, 0, func(c *Config) { *c = cfg }), testDevice(t, 0, func(c *Config) { *c = cfg })
		for _, d := range []*Device{ref, got} {
			d.RescrambleDPD(rng.New(11), 40)
			d.ForceVRTLowBurst(rng.New(12), 20, 0, 3600)
			d.InjectWeakCells(rng.New(13), 40, 0, 3600)
		}
		failing := 0
		for _, now := range []float64{3600, 4 * 3600, 3 * 86400} {
			for _, tempC := range []float64{25, 45, 85} {
				for _, tREFI := range []float64{0.256, 1.024, 2.048, 4.096} {
					for _, threshold := range []float64{OracleThreshold, 1e-5} {
						var want []uint64
						for _, c := range ref.weak {
							if refWorstCaseFailProb(c, tREFI, tempC, &ref.vend, now) >= threshold {
								want = append(want, c.bit)
							}
						}
						if have := got.TrueFailingSet(tREFI, tempC, now, threshold); !slices.Equal(want, have) {
							t.Fatalf("now %g, %g C, tREFI %g, threshold %g: %d failing bits, reference %d",
								now, tempC, tREFI, threshold, len(have), len(want))
						}
						failing += len(want)
						requireSameState(t, ref, got) // VRT processes included
					}
				}
			}
			for _, c := range ref.weak {
				want := refWorstCaseFailProb(c, 2.048, 45, &ref.vend, now)
				if have := got.CellFailProb(c.bit, 2.048, 45, now); math.Float64bits(want) != math.Float64bits(have) {
					t.Fatalf("now %g: bit %d: CellFailProb %v, reference %v", now, c.bit, have, want)
				}
			}
		}
		if failing == 0 {
			t.Fatal("degenerate test: no failing cells")
		}
	})
}

// TestConstructionEquivalence requires NewDevice to build the reference
// device exactly — cells, stream positions, activation index order and keys
// — and both devices' row lists to stay identical through injections that
// land inside populated rows.
func TestConstructionEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 500, 12345} {
		for _, ws := range []float64{1, 30} {
			forEachEquivalenceConfig(t, seed, ws, func(t *testing.T, cfg Config) {
				want, got := refNewDevice(t, cfg), testDevice(t, 0, func(c *Config) { *c = cfg })
				requireSameState(t, want, got)
				sameBit := func(a, b *weakCell) bool { return a.bit == b.bit }
				if !slices.EqualFunc(want.actCells, got.actCells, sameBit) || !slices.Equal(want.actKeys, got.actKeys) {
					t.Fatal("activation index differs from the reference")
				}
				for k := uint64(0); k < 20 && len(want.weak) > 0; k++ {
					bit := want.weak[mix64(seed+k)%uint64(len(want.weak))].bit + 1
					want.InjectWeakCellAt(rng.New(k), bit, 0, 0)
					got.InjectWeakCellAt(rng.New(k), bit, 0, 0)
				}
				want.InjectWeakCells(rng.New(7), 30, 0, 0)
				got.InjectWeakCells(rng.New(7), 30, 0, 0)
				requireSameState(t, want, got)
				if len(want.byRow) != len(got.byRow) {
					t.Fatalf("%d populated rows, reference %d", len(got.byRow), len(want.byRow))
				}
				for row, cells := range want.byRow {
					if !slices.EqualFunc(cells, got.byRow[row], sameBit) {
						t.Fatalf("row %d lists %d cells, reference %d", row, len(got.byRow[row]), len(cells))
					}
				}
			})
		}
	}
}

// TestSortIndexTies holds sortIndex to the comparator sort by (key, bit) on
// heavily tied keys, including 20k cells of one key: identical cells, which
// injection below the retention floor or a restored blob can produce.
func TestSortIndexTies(t *testing.T) {
	src := rng.New(3)
	for _, distinct := range []int{1, 3, 1000} {
		cells, keys := make([]*weakCell, 20000), make([]float64, 20000)
		for i := range cells {
			cells[i] = &weakCell{bit: src.Uint64n(1 << 40), mu: 1 + float64(src.Intn(distinct))/64}
			keys[i] = activationKey(cells[i])
		}
		want := slices.Clone(cells)
		slices.SortFunc(want, func(a, b *weakCell) int {
			return cmp.Or(cmp.Compare(activationKey(a), activationKey(b)), cmp.Compare(a.bit, b.bit))
		})
		sortIndex(keys, cells, 64-radixBits)
		if !slices.Equal(want, cells) || !slices.EqualFunc(keys, cells, func(k float64, c *weakCell) bool { return k == activationKey(c) }) {
			t.Fatalf("%d distinct keys: index differs from the comparator sort", distinct)
		}
	}
}

// TestBitSetGrows fills a one-page set far past its sizing, so pages split,
// and requires every bit to read absent once and present after.
func TestBitSetGrows(t *testing.T) {
	s := newBitSet(0)
	for pass, absent := range []bool{true, false} {
		for bit := uint64(0); bit < 20000*7919; bit += 7919 {
			if s.add(bit) != absent {
				t.Fatalf("pass %d: add(%d) = %v", pass, bit, !absent)
			}
		}
	}
	if len(s.pages) < 8 {
		t.Fatalf("%d pages after 20000 bits: the set never grew", len(s.pages))
	}
}
