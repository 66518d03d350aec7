// Command benchfleet measures fleet-scale memory behavior — the numbers the
// lazy shard executor exists to move — and writes a machine-readable baseline
// to BENCH_fleet.json (same schema as BENCH_device.json; see
// internal/benchfmt). Two kinds of rows:
//
//   - fleet_dense_resident: bytes of heap resident per materialized chip,
//     measured by holding a cohort of materialized devices live and reading
//     the GC-settled heap delta (runtime.ReadMemStats). This is the per-chip
//     cost a dense fleet pays for every chip at once — multiply by a million
//     and dense execution cannot run on this host.
//   - fleet_lazy_sweep@{1k,100k,1m}: a retention sweep (write, wait, full
//     read-compare classification, evict) over N seed-derived chips in
//     consecutive shards of -shard chips. NsPerOp is ns per chip (chips/sec =
//     1e9 / NsPerOp); BytesPerOp is the peak GC-settled HeapAlloc observed at
//     shard boundaries over the whole run. The lazy invariant the benchdiff
//     gate watches: peak heap at 1M chips stays within noise of peak heap at
//     1k chips, because only the active shard is ever dense.
//
// Usage:
//
//	benchfleet [-out BENCH_fleet.json] [-quick] [-parity] [-shard N] [-workers N]
//
// -quick replaces the 100k/1M scaling rows with a 10k row so CI can smoke the
// fleet path in seconds. -parity runs no benchmarks at all: it sweeps one
// small population through the legacy, sharded, and dense executors at 1 and
// default workers and fails (exit 1) unless every report is byte-identical —
// `make fleet-quick` runs this as part of `make check`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"reaper/internal/benchfmt"
	"reaper/internal/dram"
	"reaper/internal/experiments"
	"reaper/internal/parallel"
	"reaper/internal/patterns"
)

// seedMicro pins the fleet numbers at this PR's base commit, before lazy
// shard execution: construction cost and resident bytes per chip are
// unchanged (the dense row measures the same device), but the sweep held
// every chip's device for the whole run, so its peak heap was fleet size
// times the dense per-chip row — ~171 MB at 1k chips, and an extrapolated
// ~171 GB at 1M chips, which this host cannot hold at all.
var seedMicro = []benchfmt.MicroResult{
	{Name: "fleet_dense_resident@1mbit", NsPerOp: 650_000, AllocsPerOp: 563, BytesPerOp: 170_782},
	{Name: "fleet_lazy_sweep@1k", NsPerOp: 650_000, AllocsPerOp: 585, BytesPerOp: 170_782_000},
}

func main() {
	out := flag.String("out", "BENCH_fleet.json", "output path")
	quick := flag.Bool("quick", false, "scale down to 1k/10k chips (CI smoke)")
	parity := flag.Bool("parity", false, "run the lazy-vs-dense byte-identity check instead of benchmarks")
	shard := flag.Int("shard", 256, "chips holding dense state at once in the lazy rows")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "worker pool size for the lazy rows")
	flag.Parse()
	if *shard < 1 {
		log.Fatalf("benchfleet: -shard must be >= 1 (got %d)", *shard)
	}
	if *workers < 1 {
		log.Fatalf("benchfleet: -workers must be >= 1 (got %d)", *workers)
	}
	if *parity {
		os.Exit(runParity())
	}

	b := benchfmt.NewBaseline()
	b.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	b.SeedMicro = seedMicro

	b.Micro = append(b.Micro, denseResidentRow(1024))

	scales := []struct {
		label string
		chips int
	}{{"1k", 1_000}, {"100k", 100_000}, {"1m", 1_000_000}}
	if *quick {
		scales = scales[:1]
		scales = append(scales, struct {
			label string
			chips int
		}{"10k", 10_000})
	}
	for _, sc := range scales {
		row, chipsPerSec := lazySweepRow(sc.label, sc.chips, *shard, *workers)
		b.Micro = append(b.Micro, row)
		fmt.Fprintf(os.Stderr, "benchfleet: %s: %.0f chips/sec, peak heap %.1f MiB (shard %d, workers %d)\n",
			sc.label, chipsPerSec, float64(row.BytesPerOp)/(1<<20), *shard, *workers)
	}

	if err := b.WriteFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, m := range b.Micro {
		fmt.Printf("  %-28s %12.0f ns/op  %6d allocs/op  %12d B/op\n",
			m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
}

// fleetChipConfig is the benchmark chip: the smallest admissible geometry
// (1 Mbit) at soak density, so the 1M-chip row finishes in minutes while the
// per-chip weak population stays non-trivial.
func fleetChipConfig(seed uint64) dram.Config {
	return dram.Config{
		Geometry:  dram.GeometryForBits(1 << 20),
		Vendor:    dram.VendorB(),
		Seed:      seed,
		WeakScale: 20,
	}
}

// heapNow returns the GC-settled live-heap size. Forcing a collection before
// reading makes the number "bytes resident", not "bytes since last GC".
func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// denseResidentRow materializes a cohort of chips and holds every one of
// them live — the pre-lazy fleet shape — and reports per-chip construction
// time, allocations, and resident heap bytes.
func denseResidentRow(cohort int) benchfmt.MicroResult {
	before := heapNow()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	start := time.Now()
	devs := make([]*dram.Device, cohort)
	for i := range devs {
		ref, err := dram.NewChipRef(fleetChipConfig(uint64(i + 1)))
		if err != nil {
			log.Fatal(err)
		}
		if devs[i], err = ref.Materialize(); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	after := heapNow()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	resident := int64(0)
	if after > before {
		resident = int64(after-before) / int64(cohort)
	}
	row := benchfmt.MicroResult{
		Name:        "fleet_dense_resident@1mbit",
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(cohort),
		AllocsPerOp: int64(msAfter.Mallocs-msBefore.Mallocs) / int64(cohort),
		BytesPerOp:  resident,
	}
	runtime.KeepAlive(devs)
	return row
}

// lazySweepRow runs the shard spin-up/sweep/evict loop over chips seed-derived
// chips: each chip is materialized from its ChipRef, written, classified once
// at an extended interval, folded into a scalar, and dropped. Heap is sampled
// (GC-settled) at shard boundaries; the peak becomes BytesPerOp.
func lazySweepRow(label string, chips, shard, workers int) (benchfmt.MicroResult, float64) {
	pat := patterns.Checkerboard()
	ctx := context.Background()
	if workers > shard {
		workers = shard
	}

	// Sampling at every boundary would spend more time in forced GCs than in
	// the sweep at 1M/256 = ~4k shards; ~64 evenly spaced samples (always
	// including the first and last shard) bound the peak just as well.
	numShards := (chips + shard - 1) / shard
	stride := numShards / 64
	if stride < 1 {
		stride = 1
	}

	var peak uint64
	var failSink uint64
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for lo, si := 0, 0; lo < chips; lo, si = lo+shard, si+1 {
		hi := lo + shard
		if hi > chips {
			hi = chips
		}
		fails, err := parallel.Map(ctx, hi-lo, workers, func(_ context.Context, k int) (uint64, error) {
			ref, err := dram.NewChipRef(fleetChipConfig(uint64(lo + k + 1)))
			if err != nil {
				return 0, err
			}
			dev, err := ref.Materialize()
			if err != nil {
				return 0, err
			}
			dev.WriteAll(pat, 0)
			return uint64(len(dev.ReadCompareAll(2.048))), nil
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range fails {
			failSink += f
		}
		if si%stride == 0 || hi == chips {
			if h := heapNow(); h > peak {
				peak = h
			}
		}
	}
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	nsPerChip := float64(elapsed.Nanoseconds()) / float64(chips)
	row := benchfmt.MicroResult{
		Name:        "fleet_lazy_sweep@" + label,
		NsPerOp:     nsPerChip,
		AllocsPerOp: int64(msAfter.Mallocs-msBefore.Mallocs) / int64(chips),
		BytesPerOp:  int64(peak),
	}
	_ = failSink
	return row, 1e9 / nsPerChip
}

// runParity sweeps one small population through every executor the fleet
// refactor added — legacy single-batch, sharded (sizes 1 and 3), and dense —
// at workers 1 and the host default, and byte-compares the JSON reports.
// Any divergence is a correctness bug in lazy execution, not noise.
func runParity() int {
	base := experiments.DefaultPopulationConfig()
	base.ChipsPerVendor = 2
	base.ChipBits = 4 << 20
	base.Iterations = 4
	base.Workers = 1

	ctx := context.Background()
	want, err := report(ctx, base)
	if err != nil {
		log.Println(err)
		return 2
	}

	mismatches := 0
	for _, v := range []struct {
		name    string
		mutate  func(*experiments.PopulationConfig)
		workers int
	}{
		{"legacy@default-workers", func(*experiments.PopulationConfig) {}, 0},
		{"shard1@w1", func(c *experiments.PopulationConfig) { c.ShardSize = 1 }, 1},
		{"shard3@default-workers", func(c *experiments.PopulationConfig) { c.ShardSize = 3 }, 0},
		{"dense@w1", func(c *experiments.PopulationConfig) { c.Dense = true }, 1},
		{"dense@default-workers", func(c *experiments.PopulationConfig) { c.Dense = true }, 0},
	} {
		cfg := base
		cfg.Workers = v.workers
		v.mutate(&cfg)
		got, err := report(ctx, cfg)
		if err != nil {
			log.Println(err)
			return 2
		}
		if !bytes.Equal(got, want) {
			fmt.Fprintf(os.Stderr, "benchfleet: PARITY FAILURE: %s diverged from the workers=1 legacy sweep\n", v.name)
			mismatches++
			continue
		}
		fmt.Fprintf(os.Stderr, "benchfleet: parity ok: %s\n", v.name)
	}
	if mismatches > 0 {
		return 1
	}
	fmt.Println("benchfleet: lazy, sharded, and dense executors are byte-identical")
	return 0
}

// report renders a sweep's results as canonical JSON for byte comparison.
func report(ctx context.Context, cfg experiments.PopulationConfig) ([]byte, error) {
	res, err := experiments.PopulationSweep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(res, "", "  ")
}
