package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/experiments"
	"reaper/internal/memctrl"
	"reaper/internal/parallel"
	"reaper/internal/stats"
)

// population sweeps a three-vendor fleet at +250 ms reach
// (experiments.PopulationSweep), the paper's 368-chip evidence at bench
// scale. An operation is one chip.
type population struct {
	cfg experiments.PopulationConfig
}

func newPopulation(opt options) *population {
	cfg := experiments.DefaultPopulationConfig()
	cfg.ChipsPerVendor = 8
	cfg.Seed = derive(opt.seed, 0x5eed_0001)
	cfg.Workers = runtime.NumCPU()
	cfg.Reach = core.ReachConditions{DeltaInterval: 0.25}
	if opt.tiny {
		cfg.ChipsPerVendor = 1
		cfg.ChipBits = 4 << 20
		cfg.Iterations = 8
	}
	return &population{cfg: cfg}
}

func (p *population) params() map[string]any {
	return map[string]any{
		"chips_per_vendor": p.cfg.ChipsPerVendor,
		"vendors":          len(dram.Vendors()),
		"chip_bits":        p.cfg.ChipBits,
		"weak_scale":       p.cfg.WeakScale,
		"iterations":       p.cfg.Iterations,
		"target_interval":  p.cfg.TargetInterval,
		"reach_delta_s":    p.cfg.Reach.DeltaInterval,
		"workers":          p.cfg.Workers,
		"fleet_seed":       p.cfg.Seed,
	}
}

// setup warms the construction, oracle and profiling paths on a one-chip
// per vendor fleet of the same chips.
func (p *population) setup(ctx context.Context) error {
	warm := p.cfg
	warm.ChipsPerVendor = 1
	_, err := experiments.PopulationSweep(ctx, warm)
	return err
}

func (p *population) close() {}

func (p *population) chips() int { return len(dram.Vendors()) * p.cfg.ChipsPerVendor }

func (p *population) run(ctx context.Context) (*outcome, error) {
	t0 := time.Now()
	results, err := experiments.PopulationSweep(ctx, p.cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0).Seconds()
	o := p.judge(results)
	o.wall = wall
	o.named = map[string]float64{"chips_per_s": float64(p.chips()) / wall}
	return o, nil
}

// judge checks a sweep's aggregates: every vendor's chips must show the
// paper's trend (AllChipsAgree). A chip breaking the trend is a failed
// operation.
func (p *population) judge(results []experiments.PopulationResult) *outcome {
	o := &outcome{ops: p.chips()}
	enc, err := json.Marshal(results)
	if !o.check(err == nil, "encode results: %v", err) || !o.check(len(results) == len(dram.Vendors()),
		"%d vendor results, want %d", len(results), len(dram.Vendors())) {
		o.failed = o.ops
		return o
	}
	o.digest = digest(enc)
	var covs, fprs []float64
	var chips []experiments.ChipResult
	for _, r := range results {
		o.check(len(r.Chips) == p.cfg.ChipsPerVendor, "vendor %s: %d chips, want %d", r.Vendor, len(r.Chips), p.cfg.ChipsPerVendor)
		if !r.AllChipsAgree {
			for _, c := range r.Chips {
				if !chipAgrees(c) {
					o.failed++
				}
			}
			o.check(false, "vendor %s: not every chip shows the paper's trend", r.Vendor)
		}
		chips = append(chips, r.Chips...)
		for _, c := range r.Chips {
			covs = append(covs, c.Coverage)
			fprs = append(fprs, c.FPR)
		}
	}
	o.replica = chips
	cov, fpr := stats.Mean(covs), stats.Mean(fprs)
	o.fidelity = []fidelity{
		{Claim: "population coverage mean at +250ms reach", Measured: cov, Paper: ">= 0.99", InBand: cov >= 0.99},
		{Claim: "population false positive rate mean at +250ms reach", Measured: fpr, Paper: "< ~0.50", InBand: fpr < 0.5},
	}
	return o
}

// chipAgrees mirrors the per-chip "same trend" criterion behind
// PopulationResult.AllChipsAgree.
func chipAgrees(c experiments.ChipResult) bool {
	return c.Coverage >= 0.85 && c.FPR > 0 && c.FPR < 0.95
}

func (p *population) topLayers() []string {
	return []string{"dram.construct_s", "dram.oracle_s", "core.profile_s"}
}

// runTraced evaluates the same fleet chip by chip — NewStation, Truth,
// Reach through a timing station — on the same number of workers.
func (p *population) runTraced(ctx context.Context, l *layers) (*outcome, error) {
	vendors := dram.Vendors()
	n := len(vendors) * p.cfg.ChipsPerVendor
	var chips []experiments.ChipResult
	err := l.pool(func() error {
		var err error
		chips, err = parallel.Map(ctx, n, p.cfg.Workers, func(_ context.Context, job int) (experiments.ChipResult, error) {
			s := spans{}
			t0 := time.Now()
			c, err := p.tracedChip(vendors, job, s)
			l.merge(s, time.Since(t0).Seconds())
			return c, err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{ops: n, replica: chips}
	for _, c := range chips {
		if !chipAgrees(c) {
			o.failed++
		}
	}
	return o, nil
}

// tracedChip is one chip's pipeline with a span around each layer call.
// The chip seed layout follows PopulationSweep: vendor-major, seed + vendor
// index * 1000 + chip index.
func (p *population) tracedChip(vendors []dram.VendorParams, job int, s spans) (experiments.ChipResult, error) {
	vi, c := job/p.cfg.ChipsPerVendor, job%p.cfg.ChipsPerVendor
	spec := experiments.ChipSpec{
		Bits:      p.cfg.ChipBits,
		WeakScale: p.cfg.WeakScale,
		Vendor:    vendors[vi],
		Seed:      p.cfg.Seed + uint64(vi)*1000 + uint64(c),
	}
	t := time.Now()
	st, err := spec.NewStation()
	if err != nil {
		return experiments.ChipResult{}, err
	}
	t = s.since("dram.construct_s", t)
	s["dram.construct_calls"]++
	s["dram.weak_cells"] += float64(st.Device().WeakCellCount())

	truth := core.Truth(st, p.cfg.TargetInterval, 45)
	t = s.since("dram.oracle_s", t)
	s["dram.oracle_calls"]++
	s["dram.oracle_failing_bits"] += float64(truth.Len())

	prof, err := core.Reach(&timedStation{st: st, s: s}, p.cfg.TargetInterval, p.cfg.Reach, core.Options{
		Iterations:              p.cfg.Iterations,
		FreshRandomPerIteration: true,
		Seed:                    spec.Seed,
	})
	if err != nil {
		return experiments.ChipResult{}, err
	}
	s.since("core.profile_s", t)
	s["core.rounds"]++
	s["memctrl.sim_s"] += prof.RuntimeSeconds()
	return experiments.ChipResult{
		Vendor:   spec.Vendor.Name,
		Seed:     spec.Seed,
		BER1024:  spec.EffectiveBER(truth.Len()),
		Coverage: core.Coverage(prof.Failures, truth),
		FPR:      core.FalsePositiveRate(prof.Failures, truth),
	}, nil
}

func (p *population) same(u, tr *outcome) error {
	a, _ := u.replica.([]experiments.ChipResult)
	b, _ := tr.replica.([]experiments.ChipResult)
	if len(a) != len(b) {
		return fmt.Errorf("traced population: %d chips, untraced %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("traced population: chip %d is %+v, untraced %+v", i, b[i], a[i])
		}
	}
	return nil
}

// timedStation is a core.TestStation that times each station primitive.
type timedStation struct {
	st *memctrl.Station
	s  spans
}

var _ core.TestStation = (*timedStation)(nil)

func (t *timedStation) WritePattern(p dram.RowData) {
	t0 := time.Now()
	t.st.WritePattern(p)
	t.s.since("memctrl.write_pattern_s", t0)
}

func (t *timedStation) DisableRefresh() { t.st.DisableRefresh() }

func (t *timedStation) EnableRefresh() {
	t0 := time.Now()
	t.st.EnableRefresh()
	t.s.since("memctrl.enable_refresh_s", t0)
}

func (t *timedStation) Wait(seconds float64) {
	t0 := time.Now()
	t.st.Wait(seconds)
	t.s.since("memctrl.wait_s", t0)
}

func (t *timedStation) ReadCompare() []uint64 {
	t0 := time.Now()
	fails := t.st.ReadCompare()
	t.s.since("memctrl.read_compare_s", t0)
	t.s["memctrl.passes"]++
	return fails
}

func (t *timedStation) Clock() float64                   { return t.st.Clock() }
func (t *timedStation) Stats() memctrl.Stats             { return t.st.Stats() }
func (t *timedStation) Ambient() float64                 { return t.st.Ambient() }
func (t *timedStation) SetAmbient(tempC float64) float64 { return t.st.SetAmbient(tempC) }
