package dram

import (
	"fmt"
	"testing"

	"reaper/internal/patterns"
)

// benchReadDevice builds the chip the read-path benchmarks use: large enough
// that a pass touches thousands of weak cells, matching the per-pass work of
// the experiment harnesses.
func benchReadDevice(b *testing.B) *Device {
	b.Helper()
	return testDevice(b, 7, func(c *Config) {
		c.Geometry = Geometry{Banks: 8, RowsPerBank: 256, WordsPerRow: 256}
		c.WeakScale = 30
	})
}

// BenchmarkReadCompareAll measures one full write/wait/read profiling pass —
// the innermost loop of every experiment in the repository. The 3-pattern
// cycle at a fixed cadence revisits sweep signatures, so from the fourth op
// on this measures the product path with the incremental round cache hot;
// BenchmarkReadCompareAllFresh is the cache-miss (full classification)
// counterpart.
func BenchmarkReadCompareAll(b *testing.B) {
	d := benchReadDevice(b)
	ps := []RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(1)}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(ps[i%len(ps)], now)
		now += 2.048
		fails := d.ReadCompareAll(now)
		now += 0.5
		_ = fails
	}
}

// BenchmarkReadCompareAllAutoRefresh measures the refresh-enabled read path
// (the multi-cycle stick-probability branch).
func BenchmarkReadCompareAllAutoRefresh(b *testing.B) {
	d := benchReadDevice(b)
	d.SetAutoRefresh(0.064)
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(patterns.Checkerboard(), now)
		now += 2.048
		_ = d.ReadCompareAll(now)
		now += 0.5
	}
}

// BenchmarkReadCompareAllFresh measures the full-classification sweep: a
// fresh random pattern every op defeats the round cache, so the per-op cost
// is the sparse-index cursor, per-candidate threshold tests, DPD hashes, and
// band sampling.
func BenchmarkReadCompareAllFresh(b *testing.B) {
	d := benchReadDevice(b)
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(patterns.Random(uint64(i)), now)
		now += 2.048
		_ = d.ReadCompareAll(now)
		now += 0.5
	}
}

// BenchmarkReadCompareAllSteadyState measures the incremental fast path in
// isolation: a steady profiling cadence (same pattern, wait, and conditions
// every round) after one warm-up round, so every timed op replays a cached
// classification and only the sampling band draws.
func BenchmarkReadCompareAllSteadyState(b *testing.B) {
	d := benchReadDevice(b)
	pat := patterns.Checkerboard()
	now := 0.0
	d.WriteAll(pat, now)
	now += 2.048
	_ = d.ReadCompareAll(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(pat, now)
		now += 2.048
		_ = d.ReadCompareAll(now)
	}
	b.StopTimer()
	if d.IncrStats().FastSweeps == 0 {
		b.Fatal("steady-state benchmark never hit the round cache")
	}
}

// BenchmarkReadCompareAllBanked measures the full-classification sweep in
// BankStreams mode at several worker counts. Results are byte-identical
// across the counts; only the wall clock moves (and only on multi-core
// hosts — workers cannot beat the machine).
func BenchmarkReadCompareAllBanked(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			d := testDevice(b, 7, func(c *Config) {
				c.Geometry = Geometry{Banks: 8, RowsPerBank: 256, WordsPerRow: 256}
				c.WeakScale = 30
				c.BankStreams = true
			})
			d.SetSweepWorkers(workers)
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.WriteAll(patterns.Random(uint64(i)), now)
				now += 2.048
				_ = d.ReadCompareAll(now)
				now += 0.5
			}
		})
	}
}

// BenchmarkNewDevice measures fleet-member construction from the analytic
// distributions.
func BenchmarkNewDevice(b *testing.B) {
	cfg := Config{
		Geometry:  Geometry{Banks: 8, RowsPerBank: 256, WordsPerRow: 256},
		Vendor:    VendorB(),
		WeakScale: 100,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := NewDevice(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreAll measures a full refresh sweep without failure
// collection — RestoreAll used to pay ReadCompareAll's fails-slice
// allocation and sort just to discard them; the no-collect sweep pays
// neither.
func BenchmarkRestoreAll(b *testing.B) {
	d := benchReadDevice(b)
	ps := []RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(1)}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(ps[i%len(ps)], now)
		now += 2.048
		d.RestoreAll(now)
		now += 0.5
	}
}

// BenchmarkReadRow measures the single-row activation path used by the
// mitigation and scrubbing layers.
func BenchmarkReadRow(b *testing.B) {
	d := benchReadDevice(b)
	d.WriteAll(patterns.Checkerboard(), 0)
	now := 1.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ReadRow(i%d.Geometry().Banks, i%d.Geometry().RowsPerBank, now); err != nil {
			b.Fatal(err)
		}
		now += 0.001
	}
}
