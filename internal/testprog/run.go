package testprog

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"reaper/internal/core"
	"reaper/internal/experiments"
	"reaper/internal/faultinject"
	"reaper/internal/memctrl"
	"reaper/internal/parallel"
	"reaper/internal/patterns"
	"reaper/internal/rng"
	"reaper/internal/telemetry"
)

// injectSalt separates the per-chip fault-injection rng streams from the
// chip device seeds (API.md "Determinism contract"): chip c's injection
// stream is rng.Derive(program.seed, injectSalt + c).
const injectSalt = 0x17EC7

// RunOptions tunes program execution without affecting the result bytes:
// for a fixed program, the result is byte-identical at any Workers count.
type RunOptions struct {
	// Workers bounds the worker pool fanning chips (device programs) or
	// grid points / fleet shards (campaign stages) out; <= 0 means one
	// worker per CPU.
	Workers int
	// Telemetry, when non-nil, receives commutative testprog_* execution
	// counters (programs and stages run). It may be shared across
	// concurrent Run calls — e.g. a server-wide registry — and is never
	// embedded in the result; the snapshot embedded when the program's
	// output.include_metrics is set comes from a per-run registry, so
	// results stay deterministic per program.
	Telemetry *telemetry.Registry
	// TraceCapacity sizes each chip's trace ring when the program's
	// output.include_trace is set; <= 0 means
	// telemetry.DefaultTraceCapacity.
	TraceCapacity int
	// OnProgress, when non-nil, is invoked after every completed
	// (chip, stage) unit. It may be called concurrently from worker
	// goroutines; Done is monotonic across the run.
	OnProgress func(ProgressEvent)
}

// ProgressEvent reports one completed unit of program execution.
type ProgressEvent struct {
	// Chip is the fleet index for device programs, 0 for campaigns.
	Chip int
	// Stage is the stage index; StageType its type token.
	Stage     int
	StageType string
	// Done counts completed (chip, stage) units so far; Total is the
	// run's unit count (chips × stages for device programs, stage count
	// for campaigns).
	Done, Total int64
}

// chipOut carries one chip's run plus its raw trace events; traces merge
// deterministically after the parallel join.
type chipOut struct {
	run    ChipRun
	events []telemetry.Event
}

// Run validates the program and executes it: device programs fan the
// fleet out on the deterministic worker pool and run the stage pipeline
// once per chip; campaign programs run each campaign stage in order over
// the experiment harnesses. The result is byte-identical for a given
// program at any opt.Workers count. Cancelling ctx aborts the run.
func Run(ctx context.Context, p *Program, opt RunOptions) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Name: p.Name, Seed: p.Seed, Version: p.Version, Kind: p.Kind()}
	var reg *telemetry.Registry
	if p.Output.IncludeMetrics {
		reg = telemetry.New()
	}
	opt.Telemetry.Counter("testprog_programs_total", telemetry.L("kind", string(res.Kind))).Inc()

	var err error
	if res.Kind == KindCampaign {
		err = runCampaign(ctx, p, opt, reg, res)
	} else {
		err = runDevice(ctx, p, opt, reg, res)
	}
	if err != nil {
		return nil, err
	}
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	return res, nil
}

// runDevice executes a device program: one stage pipeline per chip,
// fanned out on the pool in chip order.
func runDevice(ctx context.Context, p *Program, opt RunOptions, reg *telemetry.Registry, res *Result) error {
	chips := p.Fleet.chips()
	total := p.Units()
	var done atomic.Int64
	runs, err := parallel.Map(ctx, chips, opt.Workers, func(ctx context.Context, chip int) (chipOut, error) {
		return runChip(ctx, p, chip, opt, reg, &done, total)
	})
	if err != nil {
		return err
	}
	res.Chips = make([]ChipRun, 0, len(runs))
	for _, r := range runs {
		res.Chips = append(res.Chips, r.run)
	}
	if p.Output.IncludeTrace {
		traces := make([]telemetry.Trace, 0, len(runs))
		for i, r := range runs {
			traces = append(traces, telemetry.Trace{
				Source: fmt.Sprintf("chip-%03d", i),
				Events: r.events,
			})
		}
		res.Trace = telemetry.Merge(traces...)
	}
	return nil
}

// runChip executes every stage against one chip's station. All
// randomness is derived inside this call (which runs inside the worker
// closure): the station from the chip seed, the injection stream from
// rng.Derive(seed, injectSalt+chip).
func runChip(ctx context.Context, p *Program, chip int, opt RunOptions, reg *telemetry.Registry, done *atomic.Int64, total int64) (chipOut, error) {
	chipSeed := p.Seed + uint64(chip)
	st, err := p.Fleet.chipSpec(chipSeed).NewStation()
	if err != nil {
		return chipOut{}, fmt.Errorf("testprog: chip %d: %w", chip, err)
	}
	var tracer *telemetry.Tracer
	if p.Output.IncludeTrace {
		tracer = telemetry.NewTracer(opt.TraceCapacity)
	}
	injectSrc := rng.Derive(p.Seed, injectSalt+uint64(chip))
	acc := core.NewFailureSet()
	out := chipOut{run: ChipRun{Chip: chip, Seed: chipSeed}}
	for i, s := range p.Stages {
		if err := ctx.Err(); err != nil {
			return chipOut{}, err
		}
		sr, err := runDeviceStage(p, s, st, acc, injectSrc, chipSeed, reg, tracer)
		if err != nil {
			return chipOut{}, fmt.Errorf("testprog: chip %d stage %d (%s): %w", chip, i, s.StageType(), err)
		}
		sr.Stage = s.StageType()
		sr.Index = i
		sr.ClockS = st.Clock()
		tracer.Emit(st.Clock(), "stage-done", fmt.Sprintf("index=%d type=%s", i, s.StageType()))
		out.run.Stages = append(out.run.Stages, sr)
		recordStage(opt, reg, s.StageType())
		progress(opt, ProgressEvent{
			Chip: chip, Stage: i, StageType: s.StageType(),
			Done: done.Add(1), Total: total,
		})
	}
	out.run.ClockS = st.Clock()
	out.run.UniqueFailures = acc.Len()
	if tracer != nil {
		out.events = tracer.Events()
	}
	return out, nil
}

// runDeviceStage lowers one device stage onto the station primitives.
// acc is the chip's cumulative failure set; injectSrc the chip's
// fault-injection stream, consumed in stage order.
func runDeviceStage(p *Program, s Stage, st *memctrl.Station, acc *core.FailureSet, injectSrc *rng.Source, chipSeed uint64, reg *telemetry.Registry, tracer *telemetry.Tracer) (StageResult, error) {
	var sr StageResult
	switch s := s.(type) {
	case *WritePatternStage:
		pat, err := patterns.Parse(s.Pattern)
		if err != nil {
			return sr, err
		}
		st.WritePattern(pat)
	case *SetTempStage:
		st.SetAmbient(s.AmbientC)
	case *DisableRefreshStage:
		st.DisableRefresh()
	case *EnableRefreshStage:
		st.EnableRefresh()
	case *WaitStage:
		st.Wait(s.Seconds)
	case *ReadCompareStage:
		fails := st.ReadCompare()
		added := acc.AddAll(fails)
		rc := &ReadCompareResult{Label: s.Label, Failures: len(fails), NewFailures: added}
		if n := p.Output.FailingBits; n > 0 {
			bits := slices.Clone(fails)
			slices.Sort(bits)
			if len(bits) > n {
				bits = bits[:n]
			}
			rc.FailingBits = bits
		}
		sr.ReadCompare = rc
	case *ClassifyStage:
		truth := core.Truth(st, s.TargetIntervalS, s.TargetTempC)
		sr.Classify = &ClassifyResult{
			TruthSize:         truth.Len(),
			Found:             acc.Len(),
			Coverage:          core.Coverage(acc, truth),
			FalsePositiveRate: core.FalsePositiveRate(acc, truth),
		}
	case *InjectFaultStage:
		now := st.Clock()
		var bits []uint64
		switch s.Kind {
		case FaultWeakArrival:
			bits = st.Device().InjectWeakCells(injectSrc, s.Cells, s.MaxMuS, now)
		case FaultVRTBurst:
			bits = st.Device().ForceVRTLowBurst(injectSrc, s.Cells, s.MaxMuS, now)
		case FaultDPDRescramble:
			bits = st.Device().RescrambleDPD(injectSrc, s.Cells)
		}
		sr.Inject = &InjectResult{Kind: s.Kind, Cells: len(bits)}
	case *ProfileStage:
		seed := s.Seed
		if seed == 0 {
			seed = chipSeed
		}
		reach := core.ReachConditions{DeltaInterval: s.DeltaIntervalS, DeltaTempC: s.DeltaTempC}
		r, err := core.Reach(st, s.TargetIntervalS, reach, core.Options{
			Iterations:              s.Iterations,
			FreshRandomPerIteration: s.FreshRandom,
			Seed:                    seed,
			Telemetry:               reg,
			Tracer:                  tracer,
		})
		if err != nil {
			return sr, err
		}
		added := acc.AddAll(r.Failures.Sorted())
		pr := &ProfileResult{
			IntervalS:   r.ProfilingInterval,
			TempC:       r.ProfilingTempC,
			Iterations:  r.Iterations,
			Failures:    r.Failures.Len(),
			NewFailures: added,
			RuntimeS:    r.RuntimeSeconds(),
		}
		if p.Output.IncludeRecords {
			pr.Records = make([]PassRecord, 0, len(r.Records))
			for _, rec := range r.Records {
				pr.Records = append(pr.Records, PassRecord{
					Iteration:   rec.Iteration,
					Pattern:     rec.PatternName,
					Failures:    rec.Failures,
					NewFailures: rec.NewFailures,
					ClockS:      rec.ClockSeconds,
				})
			}
		}
		sr.Profile = pr
	default:
		return sr, fmt.Errorf("testprog: stage type %q is not a device stage", s.StageType())
	}
	return sr, nil
}

// runCampaign executes a campaign program: each stage lowers onto its
// experiments harness, in order, sharing the run's worker budget.
func runCampaign(ctx context.Context, p *Program, opt RunOptions, reg *telemetry.Registry, res *Result) error {
	runCtx := ctx
	if reg != nil {
		runCtx = telemetry.WithRegistry(ctx, reg)
	}
	total := int64(len(p.Stages))
	for i, s := range p.Stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		sr := StageResult{Stage: s.StageType(), Index: i}
		switch s := s.(type) {
		case *TradeoffGridStage:
			pts, err := experiments.Fig9Fig10Tradeoff(runCtx, experiments.Fig9Config{
				Chip:           p.Fleet.chipSpec(p.Seed),
				TargetInterval: s.TargetIntervalS,
				TargetTempC:    s.TargetTempC,
				DeltaIntervals: s.DeltaIntervalsS,
				DeltaTemps:     s.DeltaTempsC,
				Iterations:     s.Iterations,
				CoverageGoal:   s.CoverageGoal,
				MaxIterations:  s.MaxIterations,
				Seed:           p.Seed,
				Workers:        opt.Workers,
			})
			if err != nil {
				return fmt.Errorf("testprog: stage %d (%s): %w", i, s.StageType(), err)
			}
			sr.Tradeoff = pts
		case *SoakStage:
			rep, err := runSoakStage(runCtx, p, s, opt, reg)
			if err != nil {
				return fmt.Errorf("testprog: stage %d (%s): %w", i, s.StageType(), err)
			}
			sr.Soak = rep
		case *PopulationSweepStage:
			results, err := experiments.PopulationSweep(runCtx, experiments.PopulationConfig{
				ChipsPerVendor: s.ChipsPerVendor,
				TargetInterval: s.TargetIntervalS,
				Reach:          core.ReachConditions{DeltaInterval: s.DeltaIntervalS, DeltaTempC: s.DeltaTempC},
				Iterations:     s.Iterations,
				ChipBits:       p.Fleet.Bits,
				WeakScale:      p.Fleet.WeakScale,
				Seed:           p.Seed,
				Workers:        opt.Workers,
			})
			if err != nil {
				return fmt.Errorf("testprog: stage %d (%s): %w", i, s.StageType(), err)
			}
			sr.Population = results
		default:
			return fmt.Errorf("testprog: stage type %q is not a campaign stage", s.StageType())
		}
		res.Stages = append(res.Stages, sr)
		recordStage(opt, reg, s.StageType())
		progress(opt, ProgressEvent{
			Stage: i, StageType: s.StageType(),
			Done: int64(i + 1), Total: total,
		})
	}
	return nil
}

// runSoakStage builds the soak configuration from the stage and the
// program fleet, mirroring cmd/soak's derivations (scenario seed split,
// default chip) so named scenarios are bit-identical across entry points.
func runSoakStage(ctx context.Context, p *Program, s *SoakStage, opt RunOptions, reg *telemetry.Registry) (*experiments.SoakReport, error) {
	cfg := experiments.DefaultSoakConfig(p.Seed)
	cfg.Chips = p.Fleet.chips()
	cfg.Hours = s.Hours
	cfg.TargetInterval = s.TargetIntervalS
	cfg.Controller = s.Controller
	cfg.Workers = opt.Workers
	cfg.ShardSize = s.ShardSize
	if s.WindowHours > 0 {
		cfg.WindowHours = s.WindowHours
	}
	if s.CadenceHours > 0 {
		cfg.CadenceHours = s.CadenceHours
	}
	if s.MaxUBER > 0 {
		cfg.MaxUBER = s.MaxUBER
	}
	if p.Fleet.Bits != 0 {
		cfg.Chip.Bits = p.Fleet.Bits
	}
	if p.Fleet.WeakScale != 0 {
		cfg.Chip.WeakScale = p.Fleet.WeakScale
	}
	if p.Fleet.Vendor != "" {
		v, err := p.Fleet.vendor()
		if err != nil {
			return nil, err
		}
		cfg.Chip.Vendor = v
	}
	cfg.Chip.DisableVRT = p.Fleet.DisableVRT
	cfg.Chip.DisableDPD = p.Fleet.DisableDPD
	name := s.Scenario
	if name == "" {
		name = "default"
	}
	// Same seed split as cmd/soak, so a named scenario in a program is
	// bit-identical to the same -scenario flag.
	sc, err := faultinject.NamedScenario(name, p.Seed^0xFA177, cfg.TargetInterval)
	if err != nil {
		return nil, err
	}
	cfg.Scenario = sc
	cfg.Telemetry = reg
	rep, err := experiments.Soak(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// The program-level metrics snapshot already carries the registry;
	// drop the report's own embedded copy so the result stays compact
	// (and identical whether or not other stages also recorded metrics).
	rep.Telemetry = nil
	rep.TraceEvents = nil
	return rep, nil
}

// recordStage bumps the per-stage execution counters on both the per-run
// registry (embedded in the result when requested) and the caller's
// shared registry. Both handles are nil-safe.
func recordStage(opt RunOptions, reg *telemetry.Registry, stageType string) {
	reg.Counter("testprog_stages_total", telemetry.L("stage", stageType)).Inc()
	opt.Telemetry.Counter("testprog_stages_total", telemetry.L("stage", stageType)).Inc()
}

// progress invokes the progress callback when set.
func progress(opt RunOptions, ev ProgressEvent) {
	if opt.OnProgress != nil {
		opt.OnProgress(ev)
	}
}
