package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"reaper/internal/experiments"
	"reaper/internal/parallel"
	"reaper/internal/perfmodel"
	"reaper/internal/power"
	"reaper/internal/stats"
	"reaper/internal/sysperf"
	simworkload "reaper/internal/workload"
)

// fig13 is the paper's end-to-end evaluation (experiments.Fig13EndToEnd at
// its default mixes): multi-core system simulations at every refresh
// interval, turned into performance gain and DRAM power per mechanism. An
// operation is one mix simulation.
type fig13 struct {
	cfg experiments.Fig13Config
}

// newFig13 keeps the default mixes (DefaultFig13Config's seed) whatever the
// benchmark seed: mix composition alone moves the simulation cost by about
// 20% between seeds, more than any regression bound could absorb.
func newFig13(opt options) *fig13 {
	cfg := experiments.DefaultFig13Config()
	cfg.Workers = runtime.NumCPU()
	if opt.tiny {
		cfg.Mixes = 2
		cfg.InstructionsPerCore = 20_000
	}
	return &fig13{cfg: cfg}
}

func (f *fig13) params() map[string]any {
	return map[string]any{
		"chip_gbs":              f.cfg.ChipGbs,
		"intervals_s":           f.cfg.Intervals,
		"mixes":                 f.cfg.Mixes,
		"per_mix":               f.cfg.PerMix,
		"instructions_per_core": f.cfg.InstructionsPerCore,
		"workers":               f.cfg.Workers,
		"mix_seed":              f.cfg.Seed,
	}
}

// setup warms the simulator on a two-mix, short-budget evaluation.
func (f *fig13) setup(ctx context.Context) error {
	warm := f.cfg
	warm.Mixes, warm.InstructionsPerCore = 2, 50_000
	_, err := experiments.Fig13EndToEnd(ctx, warm)
	return err
}

func (f *fig13) close() {}

// sims is the number of shared-mode mix simulations per evaluation: the
// 64 ms baseline plus every interval, per chip size.
func (f *fig13) sims() int {
	return len(f.cfg.ChipGbs) * (1 + len(f.cfg.Intervals)) * f.cfg.Mixes
}

func (f *fig13) run(ctx context.Context) (*outcome, error) {
	t0 := time.Now()
	cells, err := experiments.Fig13EndToEnd(ctx, f.cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0).Seconds()
	o := &outcome{ops: f.sims(), wall: wall, replica: cells}
	// %v renders every float, including the +Inf no-refresh cadence.
	o.digest = digest([]byte(fmt.Sprintf("%v", cells)))
	want := len(f.cfg.ChipGbs) * len(f.cfg.Intervals) * 3
	if !o.check(len(cells) == want, "%d Fig 13 cells, want %d", len(cells), want) {
		o.failed = o.ops
	}
	instr := float64(f.sims()) * float64(f.cfg.PerMix) * float64(f.cfg.InstructionsPerCore)
	o.named = map[string]float64{"sim_minstr_per_s": instr / 1e6 / wall}
	if c, ok := experiments.FindCell(cells, 64, 0, "ideal"); ok {
		gain := c.PerfGain.Mean
		o.fidelity = []fidelity{{
			Claim:    "Fig 13 ideal no-refresh performance gain at 64 Gb",
			Measured: gain,
			Paper:    "~0.19 (band 0.15-0.23)",
			InBand:   gain > 0.15 && gain < 0.23,
		}}
	}
	return o, nil
}

func (f *fig13) same(u, tr *outcome) error {
	a := fmt.Sprintf("%v", u.replica)
	b := fmt.Sprintf("%v", tr.replica)
	if a != b {
		return fmt.Errorf("traced fig13: cells differ from untraced")
	}
	return nil
}

func (f *fig13) topLayers() []string {
	return []string{"workload.mixes_s", "sysperf.simulate_s", "sysperf.alone_ipc_s", "power.system_power_s"}
}

// runTraced replays Fig13EndToEnd's default (paper-implied cadence) path
// with spans around the Simulate, alone-IPC and SystemPower calls.
func (f *fig13) runTraced(ctx context.Context, l *layers) (*outcome, error) {
	cfg := f.cfg
	if cfg.Cadence != experiments.CadencePaperImplied {
		return nil, fmt.Errorf("traced fig13 replays only the paper-implied cadence")
	}
	sp := spans{}
	t := time.Now()
	mixes := simworkload.Mixes(cfg.Mixes, cfg.PerMix, cfg.Seed)
	sp.since("workload.mixes_s", t)
	l.merge(sp, 0)
	pp := power.DefaultParams()
	var cells []experiments.Fig13Cell

	for _, gb := range cfg.ChipGbs {
		moduleBytes := int64(cfg.ChipsPerModule) * int64(gb) * (1 << 30) / 8
		baseCfg, err := sysperf.DefaultConfig(gb, 0.064)
		if err != nil {
			return nil, err
		}
		baseCfg.InstructionsPerCore = cfg.InstructionsPerCore
		baseCfg.Seed = cfg.Seed
		baseAlone := sysperf.NewAloneIPCCache(baseCfg)

		runAll := func(tREFI float64) (ws, pw []float64, err error) {
			scfg, err := sysperf.DefaultConfig(gb, tREFI)
			if err != nil {
				return nil, nil, err
			}
			scfg.InstructionsPerCore = cfg.InstructionsPerCore
			scfg.Seed = cfg.Seed
			type mixOut struct{ ws, power float64 }
			var per []mixOut
			err = l.pool(func() error {
				var err error
				per, err = parallel.Map(ctx, len(mixes), cfg.Workers, func(_ context.Context, i int) (mixOut, error) {
					s := spans{}
					t0 := time.Now()
					defer func() { l.merge(s, time.Since(t0).Seconds()) }()
					mix := mixes[i]
					res, err := sysperf.Simulate(mix, scfg)
					if err != nil {
						return mixOut{}, err
					}
					t := s.since("sysperf.simulate_s", t0)
					s["sysperf.simulate_calls"]++
					s["sysperf.requests"] += float64(res.Traffic.Reads + res.Traffic.Writes)
					alone := func(spec simworkload.Spec) (float64, error) {
						t := time.Now()
						v, err := baseAlone.IPC(spec)
						s.since("sysperf.alone_ipc_s", t)
						return v, err
					}
					w, err := sysperf.WeightedSpeedup(res, mix, alone)
					if err != nil {
						return mixOut{}, err
					}
					dur := res.DurationSec
					rbps := float64(res.Traffic.Reads) * 64 / dur
					wbps := float64(res.Traffic.Writes) * 64 / dur
					aps := float64(res.Traffic.Activations) / dur
					t = time.Now()
					b := pp.SystemPower(moduleBytes, tREFI, rbps, wbps, aps)
					s.since("power.system_power_s", t)
					return mixOut{ws: w, power: b.TotalW()}, nil
				})
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			for _, m := range per {
				ws = append(ws, m.ws)
				pw = append(pw, m.power)
			}
			return ws, pw, nil
		}

		baseWS, basePW, err := runAll(0.064)
		if err != nil {
			return nil, err
		}
		for _, interval := range cfg.Intervals {
			ws, pw, err := runAll(interval)
			if err != nil {
				return nil, err
			}
			overBrute, overReaper, cadence := 0.0, 0.0, math.Inf(1)
			if interval > 0 {
				cadence = experiments.PaperImpliedCadenceHours(interval)
				round := perfmodel.RoundConfig{
					TREFI: interval, NumPatterns: cfg.NumPatterns,
					NumIterations: cfg.NumIterations, TotalBytes: moduleBytes,
				}
				overBrute = round.OverheadFraction(cadence * 3600)
				round.SpeedupFactor = cfg.ReaperSpeedup
				overReaper = round.OverheadFraction(cadence * 3600)
			}
			for _, m := range []struct {
				name string
				over float64
			}{{"brute", overBrute}, {"reaper", overReaper}, {"ideal", 0}} {
				var gains, reductions []float64
				for i := range mixes {
					gains = append(gains, perfmodel.RealIPC(ws[i]/baseWS[i], m.over)-1)
					reductions = append(reductions, 1-pw[i]/basePW[i])
				}
				cells = append(cells, experiments.Fig13Cell{
					ChipGb:           gb,
					IntervalS:        interval,
					Mechanism:        m.name,
					PerfGain:         stats.Box(gains),
					PowerReduction:   stats.Box(reductions),
					OverheadFraction: m.over,
					CadenceHours:     cadence,
				})
			}
		}
	}
	l.ratio("sysperf.ns_per_request", "sysperf.simulate_s", "sysperf.requests", 1e9)
	return &outcome{ops: f.sims(), replica: cells}, nil
}
