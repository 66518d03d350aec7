// Command benchdevice measures the device read-path microbenchmarks — the
// innermost loop of every experiment in the repository — at three weak-cell
// densities and writes a machine-readable baseline to BENCH_device.json
// (same schema as BENCH_parallel.json; see internal/benchfmt). The densities
// bracket the experiment harnesses: WeakScale 10 is a sparse research chip,
// 30 is the standard bench density, 100 is a stress density where the active
// band holds thousands of cells per pass.
//
// Beyond the density sweep, the baseline records the banked-parallelism
// micros (read_compare_all_banked_w*: the same full-classification sweep in
// BankStreams mode at 1, 2 and 4 workers — byte-identical results, wall
// clock only moves on multi-core hosts; see the num_cpu/gomaxprocs header),
// the incremental re-profiling micros (incr_round1: every round classifies
// in full; incr_steady: steady-state rounds served from the round cache),
// and the fleet-construction micro (new_device).
//
// Usage:
//
//	benchdevice [-out BENCH_device.json] [-quick] [-rounds N]
//
// -quick runs every benchmark body once instead of until steady state; CI
// uses it as a non-gating smoke check that the hot paths still execute and
// the baseline still marshals. -rounds sets how many steady-state rounds the
// incr_steady micro averages over per op (first, cache-building round
// excluded).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"testing"
	"time"

	"reaper/internal/benchfmt"
	"reaper/internal/dram"
	"reaper/internal/patterns"
)

// seedMicro pins the device read-path numbers measured at this PR's base
// commit, before the sparse active-window index: every pass walked the full
// weak population and evaluated the failure CDF per cell, and RestoreAll
// paid ReadCompareAll's fails-slice allocation and sort just to discard them.
var seedMicro = []benchfmt.MicroResult{
	{Name: "read_compare_all@ws10", NsPerOp: 1_398_424, AllocsPerOp: 9, BytesPerOp: 3007},
	{Name: "read_compare_all@ws30", NsPerOp: 6_055_465, AllocsPerOp: 11, BytesPerOp: 8232},
	{Name: "read_compare_all@ws100", NsPerOp: 36_785_451, AllocsPerOp: 14, BytesPerOp: 39592},
	{Name: "read_compare_all_autorefresh@ws30", NsPerOp: 11_361_610, AllocsPerOp: 1, BytesPerOp: 48},
	{Name: "restore_all@ws10", NsPerOp: 1_160_320, AllocsPerOp: 9, BytesPerOp: 2984},
	{Name: "restore_all@ws30", NsPerOp: 5_153_856, AllocsPerOp: 11, BytesPerOp: 8232},
	{Name: "restore_all@ws100", NsPerOp: 37_875_158, AllocsPerOp: 14, BytesPerOp: 39592},
}

func main() {
	out := flag.String("out", "BENCH_device.json", "output path")
	quick := flag.Bool("quick", false, "run each benchmark body once (CI smoke)")
	rounds := flag.Int("rounds", 8, "steady-state rounds per op for the incr_steady micro (>= 2)")
	flag.Parse()
	if *rounds < 2 {
		log.Fatalf("-rounds %d: need at least 2 (one warm round plus one steady round)", *rounds)
	}

	b := benchfmt.NewBaseline()
	b.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	b.SeedMicro = seedMicro

	for _, ws := range []float64{10, 30, 100} {
		b.Micro = append(b.Micro,
			benchfmt.Micro(fmt.Sprintf("read_compare_all@ws%g", ws),
				measure(*quick, readCompareBody(ws, 0))))
		if ws == 30 {
			b.Micro = append(b.Micro,
				benchfmt.Micro("read_compare_all_autorefresh@ws30",
					measure(*quick, readCompareBody(ws, 0.064))))
		}
		b.Micro = append(b.Micro,
			benchfmt.Micro(fmt.Sprintf("restore_all@ws%g", ws),
				measure(*quick, restoreBody(ws))))
	}

	for _, workers := range []int{1, 2, 4} {
		b.Micro = append(b.Micro,
			benchfmt.Micro(fmt.Sprintf("read_compare_all_banked_w%d@ws30", workers),
				measure(*quick, bankedBody(30, workers))))
	}

	b.Micro = append(b.Micro,
		benchfmt.Micro("incr_round1@ws30", measure(*quick, incrRound1Body(30))))
	steady := benchfmt.Micro("incr_steady@ws30", measure(*quick, incrSteadyBody(30, *rounds)))
	// The body runs rounds-1 steady rounds per op; report per-round cost.
	steady.NsPerOp /= float64(*rounds - 1)
	steady.AllocsPerOp /= int64(*rounds - 1)
	steady.BytesPerOp /= int64(*rounds - 1)
	b.Micro = append(b.Micro, steady)

	b.Micro = append(b.Micro,
		benchfmt.Micro("new_device@ws100", measure(*quick, newDeviceBody(100))))

	if err := b.WriteFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, m := range b.Micro {
		fmt.Printf("  %-36s %.0f ns/op  %d allocs/op  %d B/op\n",
			m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
	_ = os.Stdout.Sync()
}

// newBenchDevice builds the benchmark chip at the given weak-cell density:
// the same geometry and seed as internal/dram's BenchmarkReadCompareAll.
func newBenchDevice(weakScale, autoRef float64) *dram.Device {
	d, err := dram.NewDevice(dram.Config{
		Geometry:  dram.Geometry{Banks: 8, RowsPerBank: 256, WordsPerRow: 256},
		Vendor:    dram.VendorB(),
		Seed:      7,
		WeakScale: weakScale,
	})
	if err != nil {
		log.Fatal(err)
	}
	if autoRef > 0 {
		d.SetAutoRefresh(autoRef)
	}
	return d
}

// readCompareBody is one full write/wait/read profiling pass per op.
func readCompareBody(weakScale, autoRef float64) func(n int) {
	d := newBenchDevice(weakScale, autoRef)
	ps := []dram.RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(1)}
	now := 0.0
	return func(n int) {
		for i := 0; i < n; i++ {
			d.WriteAll(ps[i%len(ps)], now)
			now += 2.048
			_ = d.ReadCompareAll(now)
			now += 0.5
		}
	}
}

// restoreBody is one write plus a full refresh sweep (no failure collection)
// per op — the path auto-refresh modelling and scrubbing lean on.
func restoreBody(weakScale float64) func(n int) {
	d := newBenchDevice(weakScale, 0)
	ps := []dram.RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(1)}
	now := 0.0
	return func(n int) {
		for i := 0; i < n; i++ {
			d.WriteAll(ps[i%len(ps)], now)
			now += 2.048
			d.RestoreAll(now)
			now += 0.5
		}
	}
}

// bankedBody is one full-classification write/wait/read pass in BankStreams
// mode: a fresh random pattern per op defeats the round cache, so the
// sharded classification is what gets measured.
func bankedBody(weakScale float64, workers int) func(n int) {
	d, err := dram.NewDevice(dram.Config{
		Geometry:    dram.Geometry{Banks: 8, RowsPerBank: 256, WordsPerRow: 256},
		Vendor:      dram.VendorB(),
		Seed:        7,
		WeakScale:   weakScale,
		BankStreams: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	d.SetSweepWorkers(workers)
	now := 0.0
	seq := uint64(0)
	return func(n int) {
		for i := 0; i < n; i++ {
			d.WriteAll(patterns.Random(seq), now)
			seq++
			now += 2.048
			_ = d.ReadCompareAll(now)
			now += 0.5
		}
	}
}

// incrRound1Body is the round-1 cost of a profiling cadence: every op writes
// a pattern the device has not seen, so every sweep classifies the
// population in full (sparse-index cursor, threshold tests, DPD hashes, band
// sort) before sampling.
func incrRound1Body(weakScale float64) func(n int) {
	d := newBenchDevice(weakScale, 0)
	now := 0.0
	seq := uint64(0)
	return func(n int) {
		for i := 0; i < n; i++ {
			d.WriteAll(patterns.Random(seq), now)
			seq++
			now += 2.048
			_ = d.ReadCompareAll(now)
			now += 0.5
		}
	}
}

// incrSteadyBody is the steady-state cost: a fixed pattern at a fixed
// cadence, warmed with one cache-building round, then rounds-1 rounds per op
// that replay the cached classification (only the sampling band draws).
func incrSteadyBody(weakScale float64, rounds int) func(n int) {
	d := newBenchDevice(weakScale, 0)
	pat := patterns.Checkerboard()
	now := 0.0
	d.WriteAll(pat, now)
	now += 2.048
	_ = d.ReadCompareAll(now)
	return func(n int) {
		for i := 0; i < n; i++ {
			for r := 1; r < rounds; r++ {
				d.WriteAll(pat, now)
				now += 2.048
				_ = d.ReadCompareAll(now)
			}
		}
	}
}

// newDeviceBody measures fleet-member construction from the analytic vendor
// distributions.
func newDeviceBody(weakScale float64) func(n int) {
	cfg := dram.Config{
		Geometry:  dram.Geometry{Banks: 8, RowsPerBank: 256, WordsPerRow: 256},
		Vendor:    dram.VendorB(),
		WeakScale: weakScale,
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			cfg.Seed = uint64(i + 1)
			if _, err := dram.NewDevice(cfg); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// measure times body until steady state via testing.Benchmark, or exactly
// once in quick mode (alloc figures are only meaningful in full mode).
func measure(quick bool, body func(n int)) testing.BenchmarkResult {
	if quick {
		start := time.Now()
		body(1)
		return testing.BenchmarkResult{N: 1, T: time.Since(start)}
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		body(b.N)
	})
}
