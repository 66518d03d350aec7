package dram

import (
	"fmt"
	"math"
	"sort"

	"reaper/internal/checkpoint"
	"reaper/internal/rng"
)

// This file is the device's checkpoint surface: EncodeState captures every
// piece of mutable device state — the weak population (including injected
// cells and per-cell VRT stream positions), the stuck overlay in its live
// list order, row deviations, the sampling stream positions, the sparse-
// index/round-cache/bank counters, and the incremental round cache itself —
// so that RestoreState into a freshly constructed device of the same Config
// yields a device whose future behavior (reads, draws, counters, cache
// hits) is bit-identical to the original's.
//
// The round cache is serialized in full rather than dropped because its
// state is observable: dram_incr_* telemetry counters distinguish fast from
// full sweeps, so a resume that silently lost the cache would report
// different counter values than an uninterrupted run.
//
// Per-cell scratch that is a pure function of serialized state is NOT
// serialized: neighbourhood-code caches restore as invalid (nbrEpoch 0 can
// never equal the restored contentEpoch, which starts at 1) and round-entry
// draw-probability memos restore empty — both refill deterministically
// without consuming rng draws, so dropping them is observation-equivalent.

// sanity ceilings for decoded lengths; beyond these the blob is corrupt.
const (
	maxRestoreCells   = 1 << 28
	maxRestoreRows    = 1 << 28
	maxRestoreEntries = 4 * maxRoundEntries
)

// rowData content descriptor kinds on the wire.
const (
	contentNil   = 0 // rowState.data nil (bulk content applies)
	contentZero  = 1 // zeroData: power-up state
	contentSlice = 2 // sliceRowData: explicitly written words
	contentNamed = 3 // named pattern, reconstructed via the resolver
)

// Namer is the optional naming facet of a RowData descriptor. Pattern
// descriptors (internal/patterns) satisfy it; their name is what the
// checkpoint stores and the resolver turns back into a ==-identical value.
type Namer interface {
	Name() string
}

// encodeRowData writes one content descriptor.
func encodeRowData(e *checkpoint.Encoder, data RowData) error {
	switch v := data.(type) {
	case nil:
		e.Byte(contentNil)
	case zeroData:
		e.Byte(contentZero)
	case sliceRowData:
		e.Byte(contentSlice)
		e.Len(len(v))
		for _, w := range v {
			e.U64(w)
		}
	default:
		n, ok := data.(Namer)
		if !ok {
			return fmt.Errorf("dram: content descriptor %T is neither named nor serializable", data)
		}
		e.Byte(contentNamed)
		e.Str(n.Name())
	}
	return nil
}

// decodeRowData reads one content descriptor; named patterns go through the
// caller's resolver (typically patterns.Parse) so the reconstructed value is
// == to the original.
func decodeRowData(d *checkpoint.Decoder, resolve func(string) (RowData, error)) (RowData, error) {
	switch kind := d.Byte(); kind {
	case contentNil:
		return nil, nil
	case contentZero:
		return zeroData{}, nil
	case contentSlice:
		n := d.Len(1 << 20)
		words := make(sliceRowData, n)
		for i := range words {
			words[i] = d.U64()
		}
		return words, nil
	case contentNamed:
		name := d.Str()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if resolve == nil {
			return nil, fmt.Errorf("dram: named content %q but no resolver provided", name)
		}
		data, err := resolve(name)
		if err != nil {
			return nil, fmt.Errorf("dram: resolving content: %w", err)
		}
		return data, nil
	default:
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("dram: unknown content descriptor kind %d", kind)
	}
}

func encodeSrcState(e *checkpoint.Encoder, s *rng.Source) {
	st := s.State()
	e.U64(st[0])
	e.U64(st[1])
	e.U64(st[2])
	e.U64(st[3])
}

func decodeSrcState(d *checkpoint.Decoder) [4]uint64 {
	return [4]uint64{d.U64(), d.U64(), d.U64(), d.U64()}
}

// cellIndexOf returns c's index in the bit-sorted weak slice.
func (d *Device) cellIndexOf(c *weakCell) int {
	return sort.Search(len(d.weak), func(i int) bool { return d.weak[i].bit >= c.bit })
}

// EncodeState serializes the device's mutable state.
func (d *Device) EncodeState(e *checkpoint.Encoder) error {
	e.Section("dram.device")
	// Config guard: a blob restored into a device built from a different
	// config would be garbage; the campaign identity hash is the real
	// defense, this is the cheap in-band tripwire.
	e.U64(d.cfg.Seed)
	e.U64(uint64(d.geom.TotalBits()))

	// Weak population, bit order, every cell in full (construction-sampled
	// and injected cells are not distinguished: restore rebuilds the
	// population from these records verbatim).
	e.Len(len(d.weak))
	for _, c := range d.weak {
		e.U64(c.bit)
		e.F64(c.mu)
		e.F64(c.sigma)
		e.Byte(c.chargedVal)
		e.F64(c.dpdSens)
		e.U64(c.dpdSeed)
		e.I64(int64(c.stuck))
		if c.vrt == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		e.F64(c.vrt.muLow)
		e.F64(c.vrt.muHigh)
		e.F64(c.vrt.dwellLow)
		e.F64(c.vrt.dwellHigh)
		e.Bool(c.vrt.inLow)
		e.F64(c.vrt.nextSwitch)
		encodeSrcState(e, c.vrt.src)
	}

	// Stuck overlay, in live list order (append order, which a resumed sweep
	// must walk identically; membership can be stale after partial writes,
	// so it cannot be derived from per-cell stuck values).
	e.Len(len(d.stuckList))
	for _, c := range d.stuckList {
		e.Int(d.cellIndexOf(c))
	}

	// Divergence journals (delta.go), as indices into the bit-sorted weak
	// slice. The per-cell values already travel in the population records
	// above; the journals carry membership and order, so a dense-restored
	// device can still emit a faithful EncodeDelta later.
	e.Len(len(d.injected))
	for _, c := range d.injected {
		e.Int(d.cellIndexOf(c))
	}
	e.Len(len(d.dpdReseeded))
	for _, c := range d.dpdReseeded {
		e.Int(d.cellIndexOf(c))
	}
	e.Len(len(d.vrtForced))
	for _, c := range d.vrtForced {
		e.Int(d.cellIndexOf(c))
	}

	return d.encodeDeviceTail(e)
}

// encodeDeviceTail serializes the population-independent remainder of the
// device state — content and clocks, row deviations, stream positions,
// counters, and the incremental round cache. It is shared verbatim between
// the dense codec (EncodeState) and the delta codec (EncodeDelta): both
// reference cells by index into the bit-sorted weak slice, which the two
// codecs' restore paths reconstruct identically.
func (d *Device) encodeDeviceTail(e *checkpoint.Encoder) error {
	// Content and clocks.
	if err := encodeRowData(e, d.bulkData); err != nil {
		return err
	}
	e.F64(d.bulkTime)
	e.U64(d.contentEpoch)
	e.F64(d.tempC)
	e.F64(d.autoRef)
	e.U64(d.readsDone)
	e.U64(d.flipsSoFar)

	// Row deviations, sorted by global row.
	rows := make([]uint32, 0, len(d.rows))
	for r := range d.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	e.Len(len(rows))
	for _, r := range rows {
		rs := d.rows[r]
		e.U64(uint64(r))
		e.F64(rs.restoredAt)
		if err := encodeRowData(e, rs.data); err != nil {
			return err
		}
		words := make([]int, 0, len(rs.overrides))
		for w := range rs.overrides {
			words = append(words, w)
		}
		sort.Ints(words)
		e.Len(len(words))
		for _, w := range words {
			e.Int(w)
			e.U64(rs.overrides[w])
		}
	}

	// Stream positions.
	encodeSrcState(e, d.src)
	e.Len(len(d.bankSrcs))
	for _, s := range d.bankSrcs {
		encodeSrcState(e, s)
	}

	// Counters.
	e.U64(d.idx.Skipped)
	e.U64(d.idx.Flipped)
	e.U64(d.idx.Sampled)
	e.U64(d.idx.Slowpath)
	e.U64(d.bank.BankedSweeps)
	e.U64(d.bank.BankShards)
	e.U64(d.incr.FastSweeps)
	e.U64(d.incr.FullSweeps)
	e.U64(d.incr.ReusedCells)
	e.U64(d.incr.DirtyCells)

	// Incremental round cache: entries sorted by key signature so the
	// encoding is deterministic; cells referenced by index into the
	// bit-sorted weak slice. Draw-probability memos are not stored (they
	// refill deterministically and draw-free on first replay).
	e.Bool(d.cacheOn)
	type keyedEntry struct {
		name    string
		key     roundKey
		dataNil bool
	}
	keys := make([]keyedEntry, 0, len(d.rounds))
	for k := range d.rounds {
		ke := keyedEntry{key: k}
		if k.data == nil {
			ke.dataNil = true
		} else if n, ok := k.data.(Namer); ok {
			ke.name = n.Name()
		} else if _, ok := k.data.(zeroData); !ok {
			// Unidentifiable key content cannot round-trip; entries are an
			// optimization, so drop just this entry rather than fail.
			continue
		}
		keys = append(keys, ke)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.key.tempC != b.key.tempC {
			return a.key.tempC < b.key.tempC
		}
		if a.key.elapsed != b.key.elapsed {
			return a.key.elapsed < b.key.elapsed
		}
		return a.key.autoRef < b.key.autoRef
	})
	e.Len(len(keys))
	for _, ke := range keys {
		if err := encodeRowData(e, ke.key.data); err != nil {
			return err
		}
		e.F64(ke.key.tempC)
		e.F64(ke.key.elapsed)
		e.F64(ke.key.autoRef)
		ent := d.rounds[ke.key]
		e.U64(ent.skipped)
		e.Int(ent.dirtyLen)
		e.Len(len(ent.flips))
		for _, f := range ent.flips {
			e.Int(d.cellIndexOf(f.c))
			e.Byte(f.wrong)
		}
		e.Len(len(ent.band))
		for _, c := range ent.band {
			e.Int(d.cellIndexOf(c))
		}
	}
	e.Len(len(d.dirtyCells))
	for _, c := range d.dirtyCells {
		e.Int(d.cellIndexOf(c))
	}
	return nil
}

// RestoreState loads a blob produced by EncodeState into d, which must have
// been constructed with the same Config. The constructed population is
// discarded and rebuilt verbatim from the blob (this is what lets injected
// cells, VRT stream positions and DPD reseeds round-trip without diffing
// against the construction-sampled population). resolve reconstructs named
// pattern content (pass patterns.Parse adapted to RowData).
func (d *Device) RestoreState(dec *checkpoint.Decoder, resolve func(string) (RowData, error)) error {
	dec.Section("dram.device")
	if seed := dec.U64(); dec.Err() == nil && seed != d.cfg.Seed {
		return fmt.Errorf("dram: restore: blob seed %#x, device seed %#x", seed, d.cfg.Seed)
	}
	if bits := dec.U64(); dec.Err() == nil && bits != uint64(d.geom.TotalBits()) {
		return fmt.Errorf("dram: restore: blob geometry %d bits, device %d", bits, d.geom.TotalBits())
	}

	n := dec.Len(maxRestoreCells)
	if dec.Err() != nil {
		return dec.Err()
	}
	d.weak = make([]*weakCell, 0, n)
	var prevBit uint64
	for i := 0; i < n; i++ {
		c := d.allocCell()
		c.bit = dec.U64()
		c.mu = dec.F64()
		c.sigma = dec.F64()
		c.chargedVal = dec.Byte()
		c.dpdSens = dec.F64()
		c.dpdSeed = dec.U64()
		c.stuck = int8(dec.I64())
		if dec.Bool() {
			vs := &vrtState{
				muLow:     dec.F64(),
				muHigh:    dec.F64(),
				dwellLow:  dec.F64(),
				dwellHigh: dec.F64(),
				inLow:     dec.Bool(),
			}
			vs.nextSwitch = dec.F64()
			vs.src = rng.FromState(decodeSrcState(dec))
			c.vrt = vs
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		if err := checkDecodedCell(c); err != nil {
			return err
		}
		if i > 0 && c.bit <= prevBit {
			return fmt.Errorf("dram: restore: weak cells not in ascending bit order at %d", i)
		}
		prevBit = c.bit
		d.weak = append(d.weak, c)
	}
	d.byRow = rowLists(d.weak, d.geom, make([]*weakCell, len(d.weak)))

	ns := dec.Len(maxRestoreCells)
	d.stuckList = make([]*weakCell, 0, ns)
	for i := 0; i < ns; i++ {
		c, err := d.decodeCellAt(dec, "stuck-list")
		if err != nil {
			return err
		}
		c.inStuckList = true
		d.stuckList = append(d.stuckList, c)
	}

	// Divergence journals: membership lists over the rebuilt population.
	// The tracked flags are derived from membership, so they reset here
	// rather than traveling on the wire.
	nj := dec.Len(maxRestoreCells)
	d.injected = nil
	for i := 0; i < nj; i++ {
		c, err := d.decodeCellAt(dec, "injected")
		if err != nil {
			return err
		}
		d.injected = append(d.injected, c)
	}
	nj = dec.Len(maxRestoreCells)
	d.dpdReseeded = nil
	for i := 0; i < nj; i++ {
		c, err := d.decodeCellAt(dec, "dpd-reseeded")
		if err != nil {
			return err
		}
		c.dpdTracked = true
		d.dpdReseeded = append(d.dpdReseeded, c)
	}
	nj = dec.Len(maxRestoreCells)
	d.vrtForced = nil
	for i := 0; i < nj; i++ {
		c, err := d.decodeCellAt(dec, "vrt-forced")
		if err != nil {
			return err
		}
		c.vrtTracked = true
		d.vrtForced = append(d.vrtForced, c)
	}

	return d.restoreDeviceTail(dec, resolve)
}

// checkDecodedCell rejects decoded parameters construction and injection
// never produce (mu not positive and finite, sigma outside [0, mu/5], DPD
// sensitivity negative or non-finite): the activation index's radix sort
// and the oracle's skip rely on positive finite keys and dpdFactor >= 1.
func checkDecodedCell(c *weakCell) error {
	if !(c.mu > 0) || math.IsInf(c.mu, 1) || !(c.sigma >= 0) || c.sigma > c.mu/5 ||
		!(c.dpdSens >= 0) || math.IsInf(c.dpdSens, 1) {
		return fmt.Errorf("dram: restore: cell at bit %d has impossible parameters (mu %v, sigma %v, dpd %v)",
			c.bit, c.mu, c.sigma, c.dpdSens)
	}
	return nil
}

// decodeCellAt reads a weak-slice index and resolves it to the cell.
func (d *Device) decodeCellAt(dec *checkpoint.Decoder, label string) (*weakCell, error) {
	i := dec.Int()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if i < 0 || i >= len(d.weak) {
		return nil, fmt.Errorf("dram: restore: %s cell index %d out of range", label, i)
	}
	return d.weak[i], nil
}

// restoreDeviceTail decodes the encodeDeviceTail region into d, whose weak
// population must already be final (dense rebuild or fresh construction plus
// delta replay), then rebuilds the activation index and resets the run-time
// scratch. Shared by RestoreState and RestoreDelta.
func (d *Device) restoreDeviceTail(dec *checkpoint.Decoder, resolve func(string) (RowData, error)) error {
	bulk, err := decodeRowData(dec, resolve)
	if err != nil {
		return err
	}
	if bulk == nil {
		return fmt.Errorf("dram: restore: nil bulk content")
	}
	d.bulkData = bulk
	d.bulkComparable = comparableRowData(bulk)
	d.bulkTime = dec.F64()
	d.contentEpoch = dec.U64()
	d.tempC = dec.F64()
	d.autoRef = dec.F64()
	d.readsDone = dec.U64()
	d.flipsSoFar = dec.U64()

	nr := dec.Len(maxRestoreRows)
	d.rows = make(map[uint32]*rowState, nr)
	for i := 0; i < nr; i++ {
		row := uint32(dec.U64())
		rs := &rowState{restoredAt: dec.F64()}
		rs.data, err = decodeRowData(dec, resolve)
		if err != nil {
			return err
		}
		no := dec.Len(1 << 20)
		if no > 0 {
			rs.overrides = make(map[int]uint64, no)
			for j := 0; j < no; j++ {
				w := dec.Int()
				rs.overrides[w] = dec.U64()
			}
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		d.rows[row] = rs
	}

	d.src.SetState(decodeSrcState(dec))
	nb := dec.Len(1 << 16)
	if dec.Err() != nil {
		return dec.Err()
	}
	if nb != len(d.bankSrcs) {
		return fmt.Errorf("dram: restore: %d bank streams in blob, device has %d", nb, len(d.bankSrcs))
	}
	for i := 0; i < nb; i++ {
		d.bankSrcs[i].SetState(decodeSrcState(dec))
	}

	d.idx.Skipped = dec.U64()
	d.idx.Flipped = dec.U64()
	d.idx.Sampled = dec.U64()
	d.idx.Slowpath = dec.U64()
	d.bank.BankedSweeps = dec.U64()
	d.bank.BankShards = dec.U64()
	d.incr.FastSweeps = dec.U64()
	d.incr.FullSweeps = dec.U64()
	d.incr.ReusedCells = dec.U64()
	d.incr.DirtyCells = dec.U64()

	d.cacheOn = dec.Bool()
	ne := dec.Len(maxRestoreEntries)
	d.rounds = nil
	if ne > 0 {
		d.rounds = make(map[roundKey]*roundEntry, ne)
	}
	for i := 0; i < ne; i++ {
		data, err := decodeRowData(dec, resolve)
		if err != nil {
			return err
		}
		key := roundKey{data: data, tempC: dec.F64(), elapsed: dec.F64(), autoRef: dec.F64()}
		ent := &roundEntry{skipped: dec.U64(), dirtyLen: dec.Int()}
		nf := dec.Len(maxRestoreCells)
		ent.flips = make([]flipRec, 0, nf)
		for j := 0; j < nf; j++ {
			c, err := d.decodeCellAt(dec, "flip")
			if err != nil {
				return err
			}
			ent.flips = append(ent.flips, flipRec{c: c, wrong: dec.Byte()})
		}
		nbd := dec.Len(maxRestoreCells)
		ent.band = make([]*weakCell, 0, nbd)
		for j := 0; j < nbd; j++ {
			c, err := d.decodeCellAt(dec, "band")
			if err != nil {
				return err
			}
			ent.band = append(ent.band, c)
		}
		ent.probs = make([]bandProb, len(ent.band))
		d.rounds[key] = ent
	}
	nd := dec.Len(maxDirtyCells)
	d.dirtyCells = nil
	for i := 0; i < nd; i++ {
		c, err := d.decodeCellAt(dec, "dirty")
		if err != nil {
			return err
		}
		d.dirtyCells = append(d.dirtyCells, c)
	}
	if err := dec.Err(); err != nil {
		return err
	}

	d.rebuildIndex()
	d.shards = nil
	d.band = d.band[:0]
	d.failScratch = d.failScratch[:0]
	return nil
}
