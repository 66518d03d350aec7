package dram

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// resolvePattern adapts patterns.Parse to the RowData resolver RestoreState
// expects; it is what production checkpoint plumbing passes too.
func resolvePattern(name string) (RowData, error) {
	p, err := patterns.Parse(name)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// driveScript runs one deterministic mid-campaign segment against d: pattern
// writes, retention reads under varying temperature and auto-refresh, cache
// revisits, fault injections, VRT bursts, DPD rescrambles, and targeted
// row/word writes (which exercise the stuck overlay and row-deviation map).
// ops must be a dedicated stream so twin devices can be driven identically.
// Returns the concatenated fail lists of every read.
func driveScript(d *Device, ops *rng.Source, start float64) []uint64 {
	pats := []RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(0xD15C)}
	now := start
	var fails []uint64
	read := func() {
		now += 2.048
		fails = append(fails, d.ReadCompareAll(now)...)
	}
	// Steady cadence on one pattern: populates, then replays, a cached round.
	for i := 0; i < 3; i++ {
		d.WriteAll(pats[0], now)
		read()
	}
	// Condition churn: new patterns, temperature steps, auto-refresh toggle.
	d.SetTemperature(d.Temperature() + 10)
	d.WriteAll(pats[1], now)
	read()
	d.SetAutoRefresh(0.128)
	d.WriteAll(pats[2], now)
	read()
	d.SetAutoRefresh(0)
	// Faults mid-stream: injections, a VRT burst, a DPD rescramble.
	d.InjectWeakCells(ops, 5, 4.0, now)
	d.ForceVRTLowBurst(ops, 3, 60.0, now)
	d.RescrambleDPD(ops, 4)
	d.WriteAll(pats[0], now)
	read()
	// Targeted writes: row rewrite plus single-word pokes. These clear stuck
	// state for the touched cells and leave stale stuck-list entries behind —
	// exactly the overlay shape a checkpoint must carry.
	_ = d.WriteRow(0, 1, []uint64{^uint64(0)}, now)
	_ = d.WriteWord(0, 2, 0, 0xABCD, now)
	read()
	read() // second read without rewrite: replays the live stuck overlay
	d.WriteAll(pats[0], now)
	read()
	return fails
}

// TestDeviceStateRoundTrip is the lockstep-twin property: drive a device
// mid-campaign, checkpoint it, restore into a freshly constructed device of
// the same config, then drive original and restored through an identical
// second segment. Every read, every counter, and the final re-encoded state
// must match exactly — any drift means the codec lost state.
func TestDeviceStateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name        string
		bankStreams bool
		workers     int
	}{
		{"dense", false, 0},
		{"banked-sharded", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Geometry:    Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
				Vendor:      VendorB(),
				Seed:        77,
				WeakScale:   20,
				BankStreams: tc.bankStreams,
			}
			orig, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.workers > 0 {
				orig.SetSweepWorkers(tc.workers)
			}
			if orig.WeakCellCount() == 0 {
				t.Fatal("degenerate test: no weak cells")
			}

			// Segment 1: reach a messy mid-campaign state.
			driveScript(orig, rng.New(0x5EC1), 0)

			enc := checkpoint.NewEncoder()
			if err := orig.EncodeState(enc); err != nil {
				t.Fatal(err)
			}
			blob := enc.Data()

			restored, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.workers > 0 {
				restored.SetSweepWorkers(tc.workers)
			}
			if err := restored.RestoreState(checkpoint.NewDecoder(blob), resolvePattern); err != nil {
				t.Fatal(err)
			}

			// Restored state must re-encode byte-identically (encoding is
			// deterministic and restore is lossless).
			enc2 := checkpoint.NewEncoder()
			if err := restored.EncodeState(enc2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, enc2.Data()) {
				t.Fatalf("re-encoded state differs: %d vs %d bytes", len(blob), len(enc2.Data()))
			}

			// Segment 2: lockstep. Separate-but-identical op streams so
			// injections draw the same values on both sides.
			failsA := driveScript(orig, rng.New(0x0B5E), 30)
			failsB := driveScript(restored, rng.New(0x0B5E), 30)
			if !slices.Equal(failsA, failsB) {
				t.Fatalf("post-restore fail streams diverge: %d vs %d fails", len(failsA), len(failsB))
			}
			if orig.IndexStats() != restored.IndexStats() {
				t.Errorf("index stats diverge: %+v vs %+v", orig.IndexStats(), restored.IndexStats())
			}
			if orig.IncrStats() != restored.IncrStats() {
				t.Errorf("incremental stats diverge: %+v vs %+v", orig.IncrStats(), restored.IncrStats())
			}
			if orig.BankStats() != restored.BankStats() {
				t.Errorf("bank stats diverge: %+v vs %+v", orig.BankStats(), restored.BankStats())
			}
			ra, fa := orig.Stats()
			rb, fb := restored.Stats()
			if ra != rb || fa != fb {
				t.Errorf("device stats diverge: (%d,%d) vs (%d,%d)", ra, fa, rb, fb)
			}
			for i := range orig.weak {
				if orig.weak[i].stuck != restored.weak[i].stuck {
					t.Fatalf("cell %d (bit %d): stuck %d vs %d", i, orig.weak[i].bit,
						orig.weak[i].stuck, restored.weak[i].stuck)
				}
			}
			if orig.IncrStats().FastSweeps == 0 {
				t.Error("script never hit the round cache; test exercised nothing")
			}

			// Final states must also re-encode identically after the lockstep
			// segment (the restored device did not silently drift internally).
			encA, encB := checkpoint.NewEncoder(), checkpoint.NewEncoder()
			if err := orig.EncodeState(encA); err != nil {
				t.Fatal(err)
			}
			if err := restored.EncodeState(encB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encA.Data(), encB.Data()) {
				t.Fatal("final states encode differently after lockstep segment")
			}
		})
	}
}

// TestDeviceRestoreRejectsMismatch pins the in-band guards: a blob restored
// into a device with a different seed or geometry must fail loudly.
func TestDeviceRestoreRejectsMismatch(t *testing.T) {
	cfg := Config{
		Geometry:  Geometry{Banks: 2, RowsPerBank: 16, WordsPerRow: 32},
		Vendor:    VendorB(),
		Seed:      5,
		WeakScale: 20,
	}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc := checkpoint.NewEncoder()
	if err := d.EncodeState(enc); err != nil {
		t.Fatal(err)
	}

	otherSeed := cfg
	otherSeed.Seed = 6
	ds, err := NewDevice(otherSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.RestoreState(checkpoint.NewDecoder(enc.Data()), resolvePattern); err == nil {
		t.Error("seed mismatch not rejected")
	}

	otherGeom := cfg
	otherGeom.Geometry.Banks = 4
	dg, err := NewDevice(otherGeom)
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.RestoreState(checkpoint.NewDecoder(enc.Data()), resolvePattern); err == nil {
		t.Error("geometry mismatch not rejected")
	}
}

// TestDeviceRestoreTruncated makes sure a truncated blob surfaces a decode
// error instead of panicking or silently succeeding.
func TestDeviceRestoreTruncated(t *testing.T) {
	cfg := Config{
		Geometry:  Geometry{Banks: 2, RowsPerBank: 16, WordsPerRow: 32},
		Vendor:    VendorB(),
		Seed:      5,
		WeakScale: 20,
	}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(d, rng.New(1), 0)
	enc := checkpoint.NewEncoder()
	if err := d.EncodeState(enc); err != nil {
		t.Fatal(err)
	}
	blob := enc.Data()
	for _, cut := range []int{0, 1, 8, len(blob) / 2, len(blob) - 1} {
		fresh, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(checkpoint.NewDecoder(blob[:cut]), resolvePattern); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

// TestRestoreRejectsImpossibleCells feeds dense and delta blobs carrying a
// cell construction and injection can never produce, and requires both
// restores to fail instead of indexing it.
func TestRestoreRejectsImpossibleCells(t *testing.T) {
	cfg := deltaTestConfig()
	for name, corrupt := range map[string]func(c *weakCell){
		"mu NaN":           func(c *weakCell) { c.mu = math.NaN() },
		"mu +Inf":          func(c *weakCell) { c.mu = math.Inf(1) },
		"mu zero":          func(c *weakCell) { c.mu, c.sigma = 0, 0 },
		"mu negative":      func(c *weakCell) { c.mu = -1 },
		"sigma NaN":        func(c *weakCell) { c.sigma = math.NaN() },
		"sigma negative":   func(c *weakCell) { c.sigma = -1e-3 },
		"sigma above mu/5": func(c *weakCell) { c.sigma = c.mu / 4 },
		"dpdSens negative": func(c *weakCell) { c.dpdSens = -0.1 },
	} {
		for _, delta := range []bool{false, true} {
			d := testDevice(t, 0, func(c *Config) { *c = cfg })
			bits := d.InjectWeakCells(rng.New(9), 1, 0, 0)
			corrupt(d.weak[d.cellIndexOf(&weakCell{bit: bits[0]})])
			e, fresh := checkpoint.NewEncoder(), testDevice(t, 0, func(c *Config) { *c = cfg })
			encode, restore := d.EncodeState, fresh.RestoreState
			if delta {
				encode, restore = d.EncodeDelta, fresh.RestoreDelta
			}
			if err := encode(e); err != nil {
				t.Fatal(err)
			}
			if err := restore(checkpoint.NewDecoder(e.Data()), resolvePattern); err == nil {
				t.Errorf("%s (delta %v): corrupt cell restored without error", name, delta)
			}
		}
	}
}
