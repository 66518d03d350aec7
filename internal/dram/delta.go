package dram

import (
	"fmt"
	"sort"

	"reaper/internal/checkpoint"
)

// The delta codec is the compact checkpoint surface for seed-reconstructible
// devices: instead of serializing the whole weak-cell population (the dense
// EncodeState, O(weak cells) — megabytes at fleet scale), EncodeDelta
// records only how the device has *diverged* from what Materialize-ing its
// ChipRef would rebuild, plus the shared tail (content, clocks, row
// deviations, stream positions, counters, round cache) that both codecs
// carry. RestoreDelta replays the divergence onto a freshly constructed
// device of the same Config.
//
// Why this is sound, invariant by invariant:
//
//   - Base population: construction draws every cell from streams that are
//     pure functions of Config.Seed (rng.New/Derive/Split), so a fresh
//     construction reproduces the population bit for bit. Nothing mutates a
//     base cell's (bit, mu, sigma, chargedVal, dpdSens) after construction.
//   - Injected cells: the only population growth path is insertWeakCell,
//     which journals every arrival in Device.injected. The delta carries
//     those cells in full, in insertion order, so replay re-inserts them and
//     rebuilds the journal identically (a re-encoded delta is byte-equal).
//   - DPD rescrambles: RescrambleDPD overwrites dpdSeed and journals the
//     cell; the delta records (index, current dpdSeed). Applying the current
//     value is idempotent, so a cell that is both injected and rescrambled
//     round-trips correctly.
//   - VRT: natural drift needs no bytes. vrtState.advance is a monotone
//     catch-up loop — advance(advance(s, t), t') == advance(s, t') for
//     t' >= t — so a fresh cell consulted at any future time lands in the
//     same state as the incrementally advanced twin. Only ForceVRTLowBurst
//     breaks the chain (it overwrites the schedule from the injector's
//     stream); forced cells are journaled and the delta snapshots their
//     full (inLow, nextSwitch, own-stream) state.
//   - Stuck overlay: reads can stick failures into any cell, so the delta
//     records the live overlay as (index, stuck) pairs in list order —
//     order matters because sweeps walk the overlay in append order, and
//     stale entries (stuck == -1 but still listed) must survive until a
//     collecting sweep compacts them.
//
// The codec's section tag differs from the dense codec's, so a blob of one
// kind fed to the other's restore fails immediately at the tag check.

// EncodeDelta serializes the device's divergence from a fresh construction
// of the same Config, plus the standard mutable tail. The blob is
// O(injected + forced + stuck + rows + cache), independent of the weak-cell
// population size. The receiver must have been built by NewDevice (or be a
// faithful restore of one); see RestoreDelta for the matching rebuild.
func (d *Device) EncodeDelta(e *checkpoint.Encoder) error {
	e.Section("dram.delta")
	e.U64(d.cfg.Seed)
	e.U64(uint64(d.geom.TotalBits()))

	// Injected cells in full, insertion order. Injected cells never carry
	// VRT state (newInjectedCell) and their stuck state rides in the overlay
	// pairs below.
	e.VarLen(len(d.injected))
	for _, c := range d.injected {
		e.U64(c.bit)
		e.F64(c.mu)
		e.F64(c.sigma)
		e.Byte(c.chargedVal)
		e.F64(c.dpdSens)
		e.U64(c.dpdSeed)
	}

	// DPD rescrambles: (index, current seed). Indices are into the final
	// bit-sorted weak slice, which replay reconstructs before applying.
	e.VarLen(len(d.dpdReseeded))
	for _, c := range d.dpdReseeded {
		e.UVar(uint64(d.cellIndexOf(c)))
		e.U64(c.dpdSeed)
	}

	// Forced VRT cells: full schedule state including the cell's own stream
	// position (post-force natural drift draws from it).
	e.VarLen(len(d.vrtForced))
	for _, c := range d.vrtForced {
		e.UVar(uint64(d.cellIndexOf(c)))
		e.Bool(c.vrt.inLow)
		e.F64(c.vrt.nextSwitch)
		encodeSrcState(e, c.vrt.src)
	}

	// Stuck overlay as (index, value) pairs in live list order.
	e.VarLen(len(d.stuckList))
	for _, c := range d.stuckList {
		e.UVar(uint64(d.cellIndexOf(c)))
		e.SVar(int64(c.stuck))
	}

	return d.encodeDeviceTail(e)
}

// RestoreDelta loads a blob produced by EncodeDelta into d, which must be a
// *pristine* device freshly constructed by NewDevice with the same Config as
// the encoder's device — that is exactly what ChipRef materialization
// provides. Pre-restore read/write activity on d is tolerated (the tail
// overwrites content, clocks and stream positions), but a device that has
// already been injected into cannot be a delta target.
// resolve reconstructs named pattern content, as in RestoreState.
func (d *Device) RestoreDelta(dec *checkpoint.Decoder, resolve func(string) (RowData, error)) error {
	if len(d.injected) != 0 || len(d.dpdReseeded) != 0 || len(d.vrtForced) != 0 {
		return fmt.Errorf("dram: delta restore target has prior divergence (%d injected, %d dpd, %d vrt)",
			len(d.injected), len(d.dpdReseeded), len(d.vrtForced))
	}
	dec.Section("dram.delta")
	if seed := dec.U64(); dec.Err() == nil && seed != d.cfg.Seed {
		return fmt.Errorf("dram: delta restore: blob seed %#x, device seed %#x", seed, d.cfg.Seed)
	}
	if bits := dec.U64(); dec.Err() == nil && bits != uint64(d.geom.TotalBits()) {
		return fmt.Errorf("dram: delta restore: blob geometry %d bits, device %d", bits, d.geom.TotalBits())
	}

	// Replay injected-cell arrivals through the live insertion path, which
	// maintains the sorted population, the row lists, the activation index,
	// and the injection journal itself.
	ni := dec.VarLen(maxRestoreCells)
	if dec.Err() != nil {
		return dec.Err()
	}
	for k := 0; k < ni; k++ {
		c := d.allocCell()
		c.bit = dec.U64()
		c.mu = dec.F64()
		c.sigma = dec.F64()
		c.chargedVal = dec.Byte()
		c.dpdSens = dec.F64()
		c.dpdSeed = dec.U64()
		c.stuck = -1
		if dec.Err() != nil {
			return dec.Err()
		}
		if err := checkDecodedCell(c); err != nil {
			return err
		}
		if c.bit >= uint64(d.geom.TotalBits()) {
			return fmt.Errorf("dram: delta restore: injected bit %d out of range", c.bit)
		}
		i := sort.Search(len(d.weak), func(i int) bool { return d.weak[i].bit >= c.bit })
		if i < len(d.weak) && d.weak[i].bit == c.bit {
			return fmt.Errorf("dram: delta restore: injected bit %d collides with an existing cell", c.bit)
		}
		d.insertWeakCell(c, i)
	}

	nd := dec.VarLen(maxRestoreCells)
	if dec.Err() != nil {
		return dec.Err()
	}
	for k := 0; k < nd; k++ {
		c, err := d.decodeCellAtVar(dec, "dpd-reseeded")
		if err != nil {
			return err
		}
		c.dpdSeed = dec.U64()
		c.dpdTracked = true
		d.dpdReseeded = append(d.dpdReseeded, c)
	}

	nv := dec.VarLen(maxRestoreCells)
	if dec.Err() != nil {
		return dec.Err()
	}
	for k := 0; k < nv; k++ {
		c, err := d.decodeCellAtVar(dec, "vrt-forced")
		if err != nil {
			return err
		}
		if c.vrt == nil {
			return fmt.Errorf("dram: delta restore: forced cell at bit %d has no VRT state", c.bit)
		}
		c.vrt.inLow = dec.Bool()
		c.vrt.nextSwitch = dec.F64()
		c.vrt.src.SetState(decodeSrcState(dec))
		c.vrtTracked = true
		d.vrtForced = append(d.vrtForced, c)
	}

	// Stuck overlay: clear whatever pre-restore activity left behind, then
	// rebuild membership, order and values from the pairs.
	for _, c := range d.stuckList {
		c.inStuckList = false
		c.stuck = -1
	}
	ns := dec.VarLen(maxRestoreCells)
	if dec.Err() != nil {
		return dec.Err()
	}
	d.stuckList = make([]*weakCell, 0, ns)
	for k := 0; k < ns; k++ {
		c, err := d.decodeCellAtVar(dec, "stuck-list")
		if err != nil {
			return err
		}
		c.stuck = int8(dec.SVar())
		c.inStuckList = true
		d.stuckList = append(d.stuckList, c)
	}

	return d.restoreDeviceTail(dec, resolve)
}

// decodeCellAtVar is decodeCellAt for varint-indexed delta records.
func (d *Device) decodeCellAtVar(dec *checkpoint.Decoder, label string) (*weakCell, error) {
	i := dec.UVar()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if i >= uint64(len(d.weak)) {
		return nil, fmt.Errorf("dram: delta restore: %s cell index %d out of range", label, i)
	}
	return d.weak[i], nil
}
