package dram

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// This file implements the sparse active-window read path. The observation:
// at any (elapsed, temperature) the overwhelming majority of weak cells sit
// deterministically outside their mu ± zClip*sigma window — failure
// probability exactly 0 or exactly 1 — and rng.Source.Bernoulli consumes no
// draw for p <= 0 or p >= 1. A full-device sweep therefore only needs to run
// sampleReadBit for the cells whose probability is strictly inside (0, 1);
// every other cell can be skipped (p = 0) or flipped via the index (p = 1)
// without touching the seed stream, making the sparse path byte-identical to
// the dense walk by construction.
//
// The index is a single sort of the weak population by activation key
//
//	key(c) = (c.mu - zClip*c.sigma) * (1 - keyMargin)
//
// at reference temperature, with no DPD or VRT adjustment. The key is a
// conservative lower bound on the cell's true p = 0 threshold under every
// runtime condition, because each adjustment only raises the threshold:
//
//   - Temperature scales mu and sigma by the same positive factor
//     (vendor.muTempScale), so the threshold scales linearly and the p = 0
//     test becomes key*scale > eff — applied in the binary-search predicate,
//     which is why SetTemperature needs no index invalidation.
//   - dpdFactor(code) >= 1 multiplies mu only, so any stored pattern (and any
//     RescrambleDPD reseed) moves the true threshold right of the key.
//   - A VRT cell's mu field is its low-retention mean, the smaller of its two
//     states, so the key is pessimistic over both; skipping the cell also
//     skips its lazy vrtState.advance, which is safe because the per-cell VRT
//     stream catches up incrementally and draws the same values whenever it
//     is next consulted.
//
// keyMargin pushes the stored key ~1e-9 relative below the analytic
// threshold so float rounding in key*scale can only over-include a cell into
// the candidate band, never skip one that sampleReadBit would have sampled.
// Candidates are then re-tested with bit-exact copies of clippedFailProb's
// expressions before being skipped, flipped, or sampled.
//
// The index orders cells by key, not by bit, and the seed-stream contract
// requires d.src draws to occur in global bit order. Classification itself
// draws nothing, so it may run in key order; the surviving band is sorted by
// bit and merged with the deviant-row cells (which always take the original
// slow path) into one bit-ordered sampling walk.
const keyMargin = 1e-9

// activationKey returns the cell's sort key: a conservative reference-
// temperature lower bound on the elapsed time at which its failure
// probability can first leave zero. Always positive, because construction
// caps sigma at mu/5 and zClip*1/5 < 1.
func activationKey(c *weakCell) float64 {
	return (c.mu - zClip*c.sigma) * (1 - keyMargin)
}

// IndexStats counts, cumulatively over a device's lifetime, how the sparse
// active-window index disposed of weak cells during full-device sweeps.
type IndexStats struct {
	// Skipped is cells excluded with zero RNG work: outside the active band
	// by binary search, or p = 0 by the exact per-cell test (discharged
	// stored value, or below the DPD-adjusted threshold).
	Skipped uint64
	// Flipped is deterministic p = 1 failures applied via the index without
	// evaluating the failure CDF or consuming a draw.
	Flipped uint64
	// Sampled is cells routed through sampleReadBit on the bulk fast path
	// (probability strictly inside (0,1), plus VRT cells in the band).
	Sampled uint64
	// Slowpath is cells handled by the original slow path: cells in rows
	// with per-row deviations, plus stuck-overlay visits.
	Slowpath uint64
}

// Add returns the element-wise sum of two stats (module-level aggregation).
func (s IndexStats) Add(o IndexStats) IndexStats {
	return IndexStats{
		Skipped:  s.Skipped + o.Skipped,
		Flipped:  s.Flipped + o.Flipped,
		Sampled:  s.Sampled + o.Sampled,
		Slowpath: s.Slowpath + o.Slowpath,
	}
}

// Sub returns the element-wise difference s - o (per-round deltas).
func (s IndexStats) Sub(o IndexStats) IndexStats {
	return IndexStats{
		Skipped:  s.Skipped - o.Skipped,
		Flipped:  s.Flipped - o.Flipped,
		Sampled:  s.Sampled - o.Sampled,
		Slowpath: s.Slowpath - o.Slowpath,
	}
}

// IndexStats returns the device's cumulative sparse-index counters.
func (d *Device) IndexStats() IndexStats { return d.idx }

// rebuildIndex (re)derives the activation index from the weak population:
// keys computed once into actKeys, then sorted in place with actCells by
// sortIndex, with no scratch arrays.
func (d *Device) rebuildIndex() {
	d.actKeys, d.actCells = make([]float64, len(d.weak)), slices.Clone(d.weak)
	for i, c := range d.weak {
		d.actKeys[i] = activationKey(c)
	}
	sortIndex(d.actKeys, d.actCells, 64-radixBits)
}

// sortIndex sorts keys ascending with ties broken by bit, permuting cells
// alongside: an in-place MSD radix sort (American flag sort) on the digit of
// the keys' IEEE-754 bits at shift, finished by insertion sort by (key, bit)
// on small buckets. Bit order is float order for the positive finite keys
// construction and checkDecodedCell guarantee.
func sortIndex(keys []float64, cells []*weakCell, shift uint) {
	if shift >= 64 {
		// Every key in the bucket is equal (a restored blob may hold many
		// identical cells): order by bit alone, in O(n log n).
		slices.SortFunc(cells, func(a, b *weakCell) int { return cmp.Compare(a.bit, b.bit) })
		return
	}
	if len(keys) <= 24 {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && (keys[j] < keys[j-1] || keys[j] == keys[j-1] && cells[j].bit < cells[j-1].bit); j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
				cells[j], cells[j-1] = cells[j-1], cells[j]
			}
		}
		return
	}
	var next, end [radixBuckets]int
	for _, k := range keys {
		end[math.Float64bits(k)>>shift%radixBuckets]++
	}
	for b, sum := 0, 0; b < radixBuckets; b++ {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	for b := range next {
		for i := next[b]; i < end[b]; i = next[b] {
			if d := math.Float64bits(keys[i]) >> shift % radixBuckets; d != uint64(b) {
				j := next[d]
				keys[i], keys[j] = keys[j], keys[i]
				cells[i], cells[j] = cells[j], cells[i]
				next[d]++
				continue
			}
			next[b]++
		}
	}
	lo := 0
	for _, hi := range end {
		sortIndex(keys[lo:hi], cells[lo:hi], shift-radixBits)
		lo = hi
	}
}

// indexInsert adds one cell to the activation index, preserving key order
// (fault injection adds cells one at a time to a live device).
func (d *Device) indexInsert(c *weakCell) {
	key := activationKey(c)
	j := sort.Search(len(d.actKeys), func(i int) bool {
		return d.actKeys[i] > key || (d.actKeys[i] == key && d.actCells[i].bit >= c.bit)
	})
	d.actKeys = slices.Insert(d.actKeys, j, key)
	d.actCells = slices.Insert(d.actCells, j, c)
}

// markStuck records a retention failure sticking into a cell: the read (or
// refresh) restored the wrong value, which the cell now returns until
// rewritten. Every flip site must go through here (or set the cell's stuck
// value and call noteStuck at a deterministic point, as the bank shards do)
// so the stuck overlay — walked by collecting sweeps in place of a full
// population scan — stays a superset of the cells with stuck >= 0.
func (d *Device) markStuck(c *weakCell, wrong uint8) {
	c.stuck = int8(wrong)
	d.noteStuck(c)
}

// noteStuck performs the device-wide bookkeeping of a failure sticking: the
// flip counter and the stuck-overlay membership. Bank-sharded sweeps defer it
// to the shard merge so concurrent shards never touch shared state.
func (d *Device) noteStuck(c *weakCell) {
	d.flipsSoFar++
	if !c.inStuckList {
		c.inStuckList = true
		d.stuckList = append(d.stuckList, c)
	}
}

// dropStuckList empties the stuck overlay (bulk rewrites clear every stuck
// cell). Only overlay members can have stuck >= 0, so clearing via the list
// replaces the old full population walk.
func (d *Device) dropStuckList() {
	for _, c := range d.stuckList {
		c.stuck = -1
		c.inStuckList = false
	}
	d.stuckList = d.stuckList[:0]
}

// sweep is the shared implementation of ReadCompareAll (collect = true) and
// RestoreAll (collect = false): a full-device read-and-restore at simulated
// time now, returning the sorted failing bit indices when collecting.
//
// Draw-order equivalence with the dense walk: the cells visited by the
// bit-ordered merge below (active band + deviant rows) are a superset of the
// cells that consume d.src draws, visited in global bit order; all other
// cells provably consume no draws, so the seed stream advances exactly as
// the dense per-cell walk advanced it.
func (d *Device) sweep(now float64, collect bool) []uint64 {
	fails := d.failScratch[:0]
	elapsed := now - d.bulkTime
	scale := d.vend.muTempScale(d.tempC)
	// eff is the largest elapsed value any failure probability is evaluated
	// at this sweep. Under auto-refresh the per-cycle trial window is the
	// refresh interval (and the residual window is shorter still), so a cell
	// with p(eff) = 0 contributes no stick probability and no draws at all.
	eff := elapsed
	if d.autoRef > 0 && eff > d.autoRef {
		eff = d.autoRef
	}

	// Stuck overlay: cells corrupted by earlier sweeps read back their stuck
	// value regardless of elapsed time, so a collecting sweep must visit them
	// even when the active band is empty. Walked before classification so a
	// cell flipped below is never reported twice; entries whose stuck state
	// was cleared by a partial write are compacted out in passing.
	if collect && len(d.stuckList) > 0 {
		live := d.stuckList[:0]
		for _, c := range d.stuckList {
			if c.stuck < 0 {
				c.inStuckList = false
				continue
			}
			live = append(live, c)
			row := d.geom.rowOfBit(c.bit)
			if len(d.rows) > 0 {
				if _, deviant := d.rows[row]; deviant {
					continue // the deviant-row walk below reports it
				}
			}
			d.idx.Slowpath++
			a := d.geom.AddrOf(c.bit)
			written := uint8(d.bulkData.Word(row, a.Word) >> uint(a.Bit) & 1)
			if uint8(c.stuck) != written {
				fails = append(fails, c.bit)
			}
		}
		d.stuckList = live
	}

	if d.bankSrcs != nil {
		// Logical shard accounting: a banked sweep partitions into one shard
		// per bank regardless of how many workers execute them, so the
		// counters are worker-count invariant like every other series.
		d.bank.BankedSweeps++
		d.bank.BankShards += uint64(d.geom.Banks)
	}

	if e := d.lookupRound(elapsed); e != nil {
		fails = d.sweepFromCache(e, now, scale, eff, collect, fails)
	} else {
		fails = d.sweepClassify(now, elapsed, scale, eff, collect, fails)
	}

	// Every row has now been read out and restored. Rows whose record holds
	// no content deviation are now indistinguishable from the bulk state
	// (restoredAt == bulkTime, bulk content), so dropping them restores the
	// no-deviation fast path for subsequent sweeps.
	d.bulkTime = now
	for r, rs := range d.rows {
		if rs.data == nil && rs.overrides == nil {
			delete(d.rows, r)
			continue
		}
		rs.restoredAt = now
	}
	d.readsDone++
	var out []uint64
	if collect && len(fails) > 0 {
		slices.Sort(fails)
		out = make([]uint64, len(fails))
		copy(out, fails)
	}
	d.failScratch = fails[:0] // keep the accumulator capacity for the next sweep
	return out
}

// sweepClassify is the full classification path of a sweep: binary-search
// the activation index, classify every candidate, then sample the surviving
// band merged with the deviant rows. When the device state allows it, the
// classification is also recorded as a round-cache entry so the next sweep
// at this exact signature can skip straight to the band (incremental.go).
func (d *Device) sweepClassify(now, elapsed, scale, eff float64, collect bool, fails []uint64) []uint64 {
	// Binary-search the activation index to the active band: cells with
	// key*scale > eff are deterministically p = 0 at every window this sweep
	// evaluates and are never touched.
	k := 0
	if eff > 0 {
		k = sort.Search(len(d.actKeys), func(i int) bool { return d.actKeys[i]*scale > eff })
	}
	d.idx.Skipped += uint64(len(d.actKeys) - k)
	d.incr.FullSweeps++

	var e *roundEntry
	if d.roundCacheable() {
		e = &roundEntry{skipped: uint64(len(d.actKeys) - k), dirtyLen: len(d.dirtyCells)}
	}
	if d.shardedMode() {
		fails = d.classifySharded(now, scale, eff, k, collect, fails, e)
	} else {
		fails = d.classifySeq(now, scale, eff, k, collect, fails, e)
	}
	if e != nil {
		d.storeRound(roundKey{data: d.bulkData, tempC: d.tempC, elapsed: elapsed, autoRef: d.autoRef}, e)
	}
	return fails
}

// classifySeq is the single-goroutine classification and sampling walk. In
// BankStreams mode it is byte-identical to classifySharded at any worker
// count: the global bit-order walk visits each bank's cells in bit order,
// and srcFor routes every draw to the owning bank's stream.
func (d *Device) classifySeq(now, scale, eff float64, k int, collect bool, fails []uint64, e *roundEntry) []uint64 {
	// Classify the candidates (key order; no draws happen here). Non-VRT
	// bulk-context cells are re-tested with clippedFailProb's exact
	// expressions: p = 0 skips, p = 1 flips via the index — both without a
	// draw, matching Bernoulli's no-draw contract — and only the strict
	// interior joins the sampling band.
	band := d.band[:0]
	haveDeviant := len(d.rows) > 0
	for _, c := range d.actCells[:k] {
		if c.stuck >= 0 {
			continue // no draw either way; the stuck overlay reports it
		}
		row := d.geom.rowOfBit(c.bit)
		if haveDeviant {
			if _, deviant := d.rows[row]; deviant {
				continue // sampled with its row's own content and restore time
			}
		}
		if c.vrt != nil {
			band = append(band, c) // VRT stays on the slow sample path
			continue
		}
		a := d.geom.AddrOf(c.bit)
		written := uint8(d.bulkData.Word(row, a.Word) >> uint(a.Bit) & 1)
		if written != c.chargedVal {
			d.idx.Skipped++ // storing the discharged value: leakage-immune
			if e != nil {
				e.skipped++
			}
			continue
		}
		code := d.neighborhoodCodeOf(c)
		mu := c.mu * scale * c.dpdFactor(code)
		sigma := c.sigma * scale
		if eff < mu-zClip*sigma {
			d.idx.Skipped++
			if e != nil {
				e.skipped++
			}
			continue
		}
		if eff > mu+zClip*sigma {
			// Deterministic failure. Without auto-refresh this is
			// Bernoulli(1); with it, p(interval) = 1 makes the stick
			// probability exactly 1 (-expm1(k*log1p(-1)) = 1). Neither
			// consumes a draw, so flipping here is seed-stream identical.
			d.markStuck(c, written^1)
			d.idx.Flipped++
			if e != nil {
				e.flips = append(e.flips, flipRec{c, written ^ 1})
			}
			if collect {
				fails = append(fails, c.bit)
			}
			continue
		}
		band = append(band, c)
	}
	slices.SortFunc(band, func(a, b *weakCell) int { return cmp.Compare(a.bit, b.bit) })
	d.idx.Sampled += uint64(len(band))
	if e != nil {
		e.band = append(e.band, band...)
	}

	// Bit-ordered merge of the band (bulk content, bulk restore time) with
	// the deviant rows (per-row content, overrides and restore times — the
	// original slow path, which also covers candidates excluded above).
	bi := 0
	sampleBandBelow := func(limit uint64) {
		for bi < len(band) && band[bi].bit < limit {
			c := band[bi]
			bi++
			row := d.geom.rowOfBit(c.bit)
			a := d.geom.AddrOf(c.bit)
			written := uint8(d.bulkData.Word(row, a.Word) >> uint(a.Bit) & 1)
			got := d.sampleReadBit(c, written, now, d.bulkTime)
			if collect && got != written {
				fails = append(fails, c.bit)
			}
		}
	}
	if haveDeviant {
		devRows := make([]uint32, 0, len(d.rows))
		for r := range d.rows {
			devRows = append(devRows, r)
		}
		slices.Sort(devRows)
		rowBits := uint64(d.geom.RowBits())
		for _, row := range devRows {
			sampleBandBelow(uint64(row) * rowBits)
			rs := d.rows[row]
			data := rs.data
			if data == nil {
				data = d.bulkData
			}
			for _, c := range d.byRow[row] {
				d.idx.Slowpath++
				a := d.geom.AddrOf(c.bit)
				w := data.Word(row, a.Word)
				if rs.overrides != nil {
					if v, ok := rs.overrides[a.Word]; ok {
						w = v
					}
				}
				written := uint8(w >> uint(a.Bit) & 1)
				got := d.sampleReadBit(c, written, now, rs.restoredAt)
				if collect && got != written {
					fails = append(fails, c.bit)
				}
			}
		}
	}
	sampleBandBelow(math.MaxUint64)
	d.band = band[:0] // keep the scratch capacity for the next sweep
	return fails
}
