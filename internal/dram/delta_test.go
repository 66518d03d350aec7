package dram

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/rng"
)

// deltaTestConfig is the shared mid-campaign delta-codec fixture: small
// enough to drive quickly, big enough that the weak population dwarfs the
// divergence the delta records.
func deltaTestConfig() Config {
	return Config{
		Geometry:  Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
		Vendor:    VendorB(),
		Seed:      4242,
		WeakScale: 20,
	}
}

// TestDeltaEvictRematerializeTwin is the shard-eviction correctness
// property: drive a device through a messy mid-campaign segment (sweeps,
// injections, a forced VRT burst, DPD rescrambles, partial writes), then
// "evict" it — encode only its divergence delta, drop it, re-materialize a
// fresh device from the same seed, and restore the delta. The re-materialized
// chip must match the never-evicted twin exactly: same next rng draw, same
// stuck-overlay list, same round-cache counters, and byte-identical dense
// state — then stay in lockstep through a second driven segment.
func TestDeltaEvictRematerializeTwin(t *testing.T) {
	cfg := deltaTestConfig()
	orig, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if orig.WeakCellCount() == 0 {
		t.Fatal("degenerate test: no weak cells")
	}

	// Segment 1: reach a state with injections, forced VRT, rescrambled DPD,
	// live and stale stuck entries, row deviations, and a warm round cache.
	driveScript(orig, rng.New(0x5EC1), 0)
	if len(orig.injected) == 0 || len(orig.vrtForced) == 0 || len(orig.dpdReseeded) == 0 {
		t.Fatalf("script left no divergence to test: %d injected, %d vrt, %d dpd",
			len(orig.injected), len(orig.vrtForced), len(orig.dpdReseeded))
	}
	if len(orig.stuckList) == 0 {
		t.Fatal("script left no stuck overlay to test")
	}

	de := checkpoint.NewEncoder()
	if err := orig.EncodeDelta(de); err != nil {
		t.Fatal(err)
	}
	delta := de.Data()

	// The delta must be far smaller than the dense blob — that size gap is
	// the whole point of seed-reconstructible fleet checkpoints.
	fe := checkpoint.NewEncoder()
	if err := orig.EncodeState(fe); err != nil {
		t.Fatal(err)
	}
	dense := fe.Data()
	if len(delta) >= len(dense)/4 {
		t.Errorf("delta blob %d bytes not much smaller than dense %d bytes", len(delta), len(dense))
	}

	// Evict and re-materialize through the device's construction handle.
	rem, err := orig.Ref().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := rem.RestoreDelta(checkpoint.NewDecoder(delta), resolvePattern); err != nil {
		t.Fatal(err)
	}

	// Next rng draw: the device stream must resume at the twin's position.
	if rem.src.State() != orig.src.State() {
		t.Fatalf("device stream position diverges: %v vs %v", rem.src.State(), orig.src.State())
	}
	if got, want := rem.src.Uint64(), orig.src.Uint64(); got != want {
		t.Fatalf("next draw diverges: %#x vs %#x", got, want)
	}
	// (Undo the probe draws symmetrically: both sides consumed one value.)

	// Stuck overlay: same membership, same order, same values — including
	// any stale (stuck == -1 but still listed) entries the script left.
	if len(rem.stuckList) != len(orig.stuckList) {
		t.Fatalf("stuck overlay length %d vs %d", len(rem.stuckList), len(orig.stuckList))
	}
	for i := range orig.stuckList {
		a, b := orig.stuckList[i], rem.stuckList[i]
		if a.bit != b.bit || a.stuck != b.stuck {
			t.Fatalf("stuck overlay entry %d: (bit %d, stuck %d) vs (bit %d, stuck %d)",
				i, a.bit, a.stuck, b.bit, b.stuck)
		}
	}

	// Round cache: identical counters and entry set, so the re-materialized
	// chip replays cached rounds exactly where the twin would.
	if orig.IncrStats() != rem.IncrStats() {
		t.Fatalf("incremental stats diverge: %+v vs %+v", orig.IncrStats(), rem.IncrStats())
	}
	if len(orig.rounds) != len(rem.rounds) {
		t.Fatalf("round cache size %d vs %d", len(rem.rounds), len(orig.rounds))
	}

	// Total-state check: both devices dense-encode byte-identically.
	requireSameState(t, orig, rem)

	// Segment 2: lockstep through another driven segment, including fresh
	// injections and bursts on both sides.
	failsA := driveScript(orig, rng.New(0x0B5E), 30)
	failsB := driveScript(rem, rng.New(0x0B5E), 30)
	if !slices.Equal(failsA, failsB) {
		t.Fatalf("post-rematerialize fail streams diverge: %d vs %d fails", len(failsA), len(failsB))
	}

	// And the delta codec itself must still round-trip: the second segment's
	// divergence re-encodes identically on both sides.
	da, db := checkpoint.NewEncoder(), checkpoint.NewEncoder()
	if err := orig.EncodeDelta(da); err != nil {
		t.Fatal(err)
	}
	if err := rem.EncodeDelta(db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da.Data(), db.Data()) {
		t.Fatal("post-lockstep deltas encode differently")
	}
}

// TestDeltaVendorCTwin proves the delta codec holds on a second vendor: a
// vendor-C device, driven mid-campaign, evicted and rebuilt from its Config
// restores byte-identically.
func TestDeltaVendorCTwin(t *testing.T) {
	cfg := deltaTestConfig()
	cfg.Vendor = VendorC()
	orig, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(orig, rng.New(0x7E41), 0)

	e := checkpoint.NewEncoder()
	if err := orig.EncodeDelta(e); err != nil {
		t.Fatal(err)
	}

	rem, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rem.RestoreDelta(checkpoint.NewDecoder(e.Data()), resolvePattern); err != nil {
		t.Fatal(err)
	}

	requireSameState(t, orig, rem)
}

// TestDeltaRestoreGuards pins the delta codec's refusal paths: a target with
// prior divergence, a wrong-seed target, and a dense blob fed to the delta
// decoder must all fail loudly.
func TestDeltaRestoreGuards(t *testing.T) {
	cfg := deltaTestConfig()
	orig, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(orig, rng.New(0x5EC1), 0)
	e := checkpoint.NewEncoder()
	if err := orig.EncodeDelta(e); err != nil {
		t.Fatal(err)
	}
	delta := e.Data()

	t.Run("diverged-target", func(t *testing.T) {
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.InjectWeakCells(rng.New(9), 1, 0, 0)
		err = d.RestoreDelta(checkpoint.NewDecoder(delta), resolvePattern)
		if err == nil || !strings.Contains(err.Error(), "prior divergence") {
			t.Fatalf("want prior-divergence refusal, got %v", err)
		}
	})
	t.Run("wrong-seed", func(t *testing.T) {
		other := cfg
		other.Seed = cfg.Seed + 1
		d, err := NewDevice(other)
		if err != nil {
			t.Fatal(err)
		}
		err = d.RestoreDelta(checkpoint.NewDecoder(delta), resolvePattern)
		if err == nil || !strings.Contains(err.Error(), "seed") {
			t.Fatalf("want seed mismatch, got %v", err)
		}
	})
	t.Run("dense-blob", func(t *testing.T) {
		fe := checkpoint.NewEncoder()
		if err := orig.EncodeState(fe); err != nil {
			t.Fatal(err)
		}
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RestoreDelta(checkpoint.NewDecoder(fe.Data()), resolvePattern); err == nil {
			t.Fatal("delta decoder accepted a dense blob")
		}
	})
}

// TestChipRefMaterialize pins the handle's contract: Ref().Materialize()
// rebuilds a device byte-identical to direct construction from the same
// Config, however far the referenced device has diverged since.
func TestChipRefMaterialize(t *testing.T) {
	cfg := deltaTestConfig()
	orig, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := orig.Ref()
	driveScript(orig, rng.New(0x5EC1), 0)
	a, err := ref.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, a, b)
}
