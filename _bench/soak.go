package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"reaper/internal/checkpoint"
	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/experiments"
	"reaper/internal/faultinject"
	"reaper/internal/firmware"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
	"reaper/internal/parallel"
	"reaper/internal/patterns"
	"reaper/internal/rng"
	"reaper/internal/scrub"
	"reaper/internal/telemetry"
)

// soak is the two-week fleet campaign (experiments.Soak) with the
// resilience controller on and checkpointing to a scratch directory. An
// operation is one chip's campaign.
type soak struct {
	opt options
	cfg experiments.SoakConfig
}

// newSoak runs the default campaign (seed 1, as cmd/soak does) whatever the
// benchmark seed: a four-chip campaign's cost is set by its fault events
// and early reprofiles, and moved chip_hours_per_s by about 20% between seeds,
// more than any regression bound could absorb.
func newSoak(opt options) *soak {
	cfg := experiments.DefaultSoakConfig(1)
	cfg.Workers = runtime.NumCPU()
	if opt.tiny {
		cfg.Chips = 2
		cfg.Hours = 48
	}
	return &soak{opt: opt, cfg: cfg}
}

func (s *soak) params() map[string]any {
	return map[string]any{
		"chips":           s.cfg.Chips,
		"hours":           s.cfg.Hours,
		"window_hours":    s.cfg.WindowHours,
		"target_interval": s.cfg.TargetInterval,
		"controller":      s.cfg.Controller,
		"chip_bits":       s.cfg.Chip.Bits,
		"weak_scale":      s.cfg.Chip.WeakScale,
		"checkpoint":      fmt.Sprintf("every %d windows", experiments.DefaultCheckpointEveryWindows),
		"workers":         s.cfg.Workers,
		"campaign_seed":   s.cfg.Seed,
	}
}

// setup creates the scratch directory and warms the campaign path with a
// one-chip, one-day checkpointed soak.
func (s *soak) setup(ctx context.Context) error {
	if err := os.MkdirAll(s.opt.workdir, 0o755); err != nil {
		return err
	}
	warm := s.cfg
	warm.Chips, warm.Hours = 1, 24
	_, err := s.campaign(ctx, warm)
	return err
}

func (s *soak) close() {}

// campaign runs experiments.Soak checkpointing into a fresh directory that
// it removes afterwards.
func (s *soak) campaign(ctx context.Context, cfg experiments.SoakConfig) (*experiments.SoakReport, error) {
	dir, err := os.MkdirTemp(s.opt.workdir, "soak-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.Checkpoint = &experiments.CheckpointOptions{Dir: dir}
	return experiments.Soak(ctx, cfg)
}

func (s *soak) run(ctx context.Context) (*outcome, error) {
	t0 := time.Now()
	rep, err := s.campaign(ctx, s.cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0).Seconds()
	o := &outcome{ops: s.cfg.Chips, wall: wall}
	enc, err := json.Marshal(rep)
	if !o.check(err == nil, "encode report: %v", err) {
		o.failed = o.ops
		return o, nil
	}
	o.digest = digest(enc)
	o.check(rep.Survived, "fleet did not survive: worst UBER %g > %g", rep.WorstUBER, rep.MaxUBER)
	o.check(len(rep.ChipReports) == s.cfg.Chips, "%d chip reports, want %d", len(rep.ChipReports), s.cfg.Chips)
	o.failed = s.cfg.Chips - len(rep.ChipReports)
	chips := make([]soakChipCounts, len(rep.ChipReports))
	for i, c := range rep.ChipReports {
		if !c.Survived {
			o.failed++
		}
		chips[i] = soakChipCounts{c.Windows, c.ViolationWindows, c.UEEvents, c.CorrectedTotal, c.WordsScanned, c.Rounds}
	}
	o.replica = chips
	o.named = map[string]float64{"chip_hours_per_s": float64(s.cfg.Chips) * s.cfg.Hours / wall}
	o.fidelity = []fidelity{{
		Claim:    "soak worst per-chip UBER with the resilience controller",
		Measured: rep.WorstUBER,
		Paper:    "<= 1e-4 budget",
		InBand:   rep.WorstUBER <= 1e-4,
	}}
	return o, nil
}

// soakChipCounts are the per-chip counters the traced replica must
// reproduce.
type soakChipCounts struct {
	Windows, ViolationWindows, UEEvents, Corrected int
	WordsScanned                                   int64
	Rounds                                         int
}

func (s *soak) same(u, tr *outcome) error {
	a, _ := u.replica.([]soakChipCounts)
	b, _ := tr.replica.([]soakChipCounts)
	if !slices.Equal(a, b) {
		return fmt.Errorf("traced soak: chip counts %+v, untraced %+v", b, a)
	}
	return nil
}

func (s *soak) topLayers() []string {
	return []string{"dram.construct_s", "soak.build_s", "faultinject.run_until_s", "firmware.tick_s",
		"experiments.write_resident_s", "scrub.scrub_s", "checkpoint.encode_s", "checkpoint.save_s",
		"dram.rematerialize_s"}
}

// runTraced replays the checkpointed campaign from the public constructors:
// segments of DefaultCheckpointEveryWindows windows on the worker pool, and
// at each barrier every chip's state encoded and the snapshot saved through
// checkpoint.Store. At the first barrier it also rebuilds chip 0 from its
// seed plus delta (the cost of barrier eviction).
func (s *soak) runTraced(ctx context.Context, l *layers) (*outcome, error) {
	dir, err := os.MkdirTemp(s.opt.workdir, "soak-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		return nil, err
	}
	identity := checkpoint.Identity([]byte(fmt.Sprintf("bench soak %+v", s.params())))

	cfg := s.cfg
	// Seeds follow experiments.Soak: chip i draws from split i+1 of the
	// campaign root, derived up front in fleet order.
	root := rng.New(cfg.Seed)
	seeds := make([]uint64, cfg.Chips)
	for i := range seeds {
		seeds[i] = root.Split(uint64(i) + 1).Uint64()
	}
	chips := make([]*soakChip, cfg.Chips)
	for seg := 0; ; seg++ {
		var active []int
		for i, c := range chips {
			if c == nil || !c.done() {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		err := l.pool(func() error {
			_, err := parallel.Map(ctx, len(active), cfg.Workers, func(ctx context.Context, k int) (struct{}, error) {
				i := active[k]
				sp := spans{}
				t0 := time.Now()
				defer func() { l.merge(sp, time.Since(t0).Seconds()) }()
				if chips[i] == nil {
					c, err := newSoakChip(cfg, i, seeds[i], sp)
					if err != nil {
						return struct{}{}, err
					}
					chips[i] = c
				}
				chips[i].s = sp
				return struct{}{}, chips[i].runWindows(ctx, experiments.DefaultCheckpointEveryWindows)
			})
			return err
		})
		if err != nil {
			return nil, err
		}

		sp := spans{}
		files := map[string][]byte{}
		t := time.Now()
		for i, c := range chips {
			blob, err := c.encode()
			if err != nil {
				return nil, fmt.Errorf("soak chip %d: encode: %w", i, err)
			}
			files[fmt.Sprintf("chip-%03d-%06d.ckpt", i, seg+1)] = blob
		}
		t = sp.since("checkpoint.encode_s", t)
		if err := store.Save(seg+1, identity, files); err != nil {
			return nil, err
		}
		sp.since("checkpoint.save_s", t)
		for _, b := range files {
			sp["checkpoint.bytes"] += float64(len(b))
		}
		if seg == 0 {
			if err := rematerialize(chips[0].st.Device(), sp); err != nil {
				return nil, err
			}
		}
		l.merge(sp, 0)
	}

	o := &outcome{ops: cfg.Chips}
	counts := make([]soakChipCounts, len(chips))
	sp := spans{}
	for i, c := range chips {
		counts[i] = c.counts
		counts[i].Rounds = c.mgr.Rounds()
		sp["firmware.rounds"] += float64(c.mgr.Rounds())
		sp["faultinject.events"] += float64(len(c.inj.Events()))
		sp["scrub.words_read"] += float64(c.counts.WordsScanned)
		sp["scrub.corrected"] += float64(c.counts.Corrected)
		sp["scrub.uncorrectable"] += float64(c.counts.UEEvents)
		if uber := 2 * float64(c.counts.UEEvents) / (64 * float64(c.counts.WordsScanned)); uber > cfg.MaxUBER {
			o.failed++
		}
	}
	l.merge(sp, 0)
	o.replica = counts
	return o, nil
}

// rematerialize rebuilds a device from its seed-derived ref plus its delta
// — what barrier eviction does for every chip at every barrier — and checks
// the rebuilt device re-encodes to the same delta.
func rematerialize(dev *dram.Device, sp spans) error {
	enc := checkpoint.NewEncoder()
	if err := dev.EncodeDelta(enc); err != nil {
		return err
	}
	t := time.Now()
	twin, err := dev.Ref().Materialize()
	if err != nil {
		return err
	}
	if err := twin.RestoreDelta(checkpoint.NewDecoder(enc.Data()), resolveRowData); err != nil {
		return fmt.Errorf("rematerialize: %w", err)
	}
	sp.since("dram.rematerialize_s", t)
	again := checkpoint.NewEncoder()
	if err := twin.EncodeDelta(again); err != nil {
		return err
	}
	if string(again.Data()) != string(enc.Data()) {
		return fmt.Errorf("rematerialize: rebuilt device encodes a different delta")
	}
	return nil
}

func resolveRowData(name string) (dram.RowData, error) {
	p, err := patterns.Parse(name)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// soakChip is one chip's simulation stack, built from the public
// constructors in the order experiments.Soak builds it, so every rng draw
// matches the untraced campaign.
type soakChip struct {
	cfg      experiments.SoakConfig
	idx      int
	seed     uint64
	st       *memctrl.Station
	shield   *mitigate.ArchShield
	mem      *scrub.ECCMemory
	scr      *scrub.Scrubber
	inj      *faultinject.Injector
	mgr      *firmware.Manager
	resident []mitigate.WordAddr
	end      float64
	counts   soakChipCounts

	// s receives the spans of the job currently driving the chip; the
	// firmware hooks record into it.
	s         spans
	profStart time.Time // when the current profiling round passed its gate
	hookTime  float64   // write_resident seconds spent inside the current Tick
}

func newSoakChip(cfg experiments.SoakConfig, idx int, seed uint64, sp spans) (*soakChip, error) {
	c := &soakChip{cfg: cfg, idx: idx, seed: seed, s: sp}
	spec := cfg.Chip
	spec.Seed = seed
	spec.Chamber = false
	t := time.Now()
	st, err := spec.NewStation()
	if err != nil {
		return nil, err
	}
	t = sp.since("dram.construct_s", t)
	sp["dram.construct_calls"]++
	sp["dram.weak_cells"] += float64(st.Device().WeakCellCount())
	c.st = st
	st.SetRefreshInterval(cfg.TargetInterval)

	if c.shield, err = mitigate.NewArchShield(st, cfg.SpareFraction); err != nil {
		return nil, err
	}
	if c.mem, err = scrub.NewECCMemory(st); err != nil {
		return nil, err
	}
	c.mem.SetMapper(c.shield.Resolve)
	if c.scr, err = scrub.NewScrubber(c.mem); err != nil {
		return nil, err
	}
	scen := faultinject.DefaultScenario(seed^0xFA177, cfg.TargetInterval)
	if c.inj, err = faultinject.New(st, cfg.TargetInterval, scen); err != nil {
		return nil, err
	}
	c.inj.AttachShield(c.shield)
	c.resident = selectResidentWords(st, c.shield, cfg.TargetInterval, cfg.ResidentWords)

	gate := c.inj.RoundGate()
	c.mgr, err = firmware.New(st, firmware.Config{
		TargetInterval: cfg.TargetInterval,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Profiling:      core.Options{Iterations: 4, FreshRandomPerIteration: true, Seed: seed},
		CadenceHours:   cfg.CadenceHours,
		PreRound: func() error {
			err := gate()
			if err == nil {
				c.profStart = time.Now()
			}
			return err
		},
		Install: func(fs *core.FailureSet) error {
			c.endProfile()
			return c.shield.Install(fs)
		},
		AfterRound: func() error {
			c.endProfile()
			t := time.Now()
			err := c.writeResident()
			d := time.Since(t).Seconds()
			c.s["experiments.write_resident_s"] += d
			c.hookTime += d
			return err
		},
		Resilience: firmware.ResilienceConfig{Enabled: cfg.Controller},
	})
	if err != nil {
		return nil, err
	}
	if err := c.writeResident(); err != nil {
		return nil, err
	}
	c.end = st.Clock() + cfg.Hours*3600
	sp.since("soak.build_s", t)
	return c, nil
}

// endProfile closes the profiling span a passed round gate opened.
func (c *soakChip) endProfile() {
	if c.profStart.IsZero() {
		return
	}
	c.s.since("core.profile_s", c.profStart)
	c.s["core.rounds"]++
	c.profStart = time.Time{}
}

func (c *soakChip) done() bool { return c.st.Clock() >= c.end-1e-6 }

// runWindows advances the chip by up to n scrub windows, exactly as the
// campaign's window loop does.
func (c *soakChip) runWindows(ctx context.Context, n int) error {
	windowSec := c.cfg.WindowHours * 3600
	for ran := 0; !c.done() && ran < n; ran++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := time.Now()
		c.inj.RunUntil(math.Min(c.st.Clock()+windowSec, c.end))
		t = c.s.since("faultinject.run_until_s", t)

		c.hookTime = 0
		if _, err := c.mgr.Tick(ctx); err != nil {
			return err
		}
		now := time.Now()
		c.s["firmware.tick_s"] += now.Sub(t).Seconds() - c.hookTime
		t = now

		srep, err := c.scr.Scrub()
		if err != nil {
			return err
		}
		t = c.s.since("scrub.scrub_s", t)
		c.counts.Windows++
		c.counts.Corrected += srep.Corrected
		c.counts.WordsScanned += int64(srep.WordsScanned)
		if srep.Uncorrectable > 0 {
			c.counts.ViolationWindows++
			c.counts.UEEvents += srep.Uncorrectable
			// Page reload: the OS restores each SECDED-fatal word.
			cells := cellsByPhysicalWord(c.st)
			for _, wa := range srep.Uncorrectables {
				if err := c.mem.Write(wa, stressPayload(wa, cells[c.shield.Resolve(wa)])); err != nil {
					return err
				}
			}
			c.s.since("experiments.write_resident_s", t)
		}
		c.mgr.ReportScrub(firmware.Telemetry{
			WindowSeconds: windowSec,
			Corrected:     srep.Corrected,
			Uncorrectable: srep.Uncorrectable,
		})
	}
	return nil
}

// writeResident rewrites the resident data set (the AfterRound hook).
func (c *soakChip) writeResident() error {
	cells := cellsByPhysicalWord(c.st)
	for _, wa := range c.resident {
		if err := c.mem.Write(wa, stressPayload(wa, cells[c.shield.Resolve(wa)])); err != nil {
			return err
		}
	}
	return nil
}

// encode serializes the chip's campaign state in the layout of the soak
// checkpoint: runner header, then each component's own codec.
func (c *soakChip) encode() ([]byte, error) {
	e := checkpoint.NewEncoder()
	e.Section("soak.runner")
	e.Int(c.idx)
	e.U64(c.seed)
	e.F64(c.end)
	e.Int(c.counts.Windows)
	e.Int(c.counts.ViolationWindows)
	e.Int(c.counts.UEEvents)
	e.Int(c.counts.Corrected)
	e.I64(c.counts.WordsScanned)
	e.Len(len(c.resident))
	for _, wa := range c.resident {
		e.Int(wa.Bank)
		e.Int(wa.Row)
		e.Int(wa.Word)
	}
	c.st.EncodeState(e)
	if err := c.st.Device().EncodeDelta(e); err != nil {
		return nil, err
	}
	c.shield.EncodeState(e)
	c.mem.EncodeState(e)
	if err := c.scr.EncodeState(e); err != nil {
		return nil, err
	}
	c.inj.EncodeState(e)
	if err := c.mgr.EncodeState(e); err != nil {
		return nil, err
	}
	var tracer *telemetry.Tracer // the campaign is uninstrumented
	tracer.EncodeState(e)
	return e.Data(), nil
}

// selectResidentWords picks the resident data set as experiments.Soak does:
// words whose contents are hardest to keep alive at the extended interval,
// in address order — half for words profiling will find and remap, a
// quarter for VRT words, the rest for excursion-marginal words.
func selectResidentWords(st *memctrl.Station, shield *mitigate.ArchShield, target float64, limit int) []mitigate.WordAddr {
	g := st.Device().Geometry()
	type wordClass struct{ vrt, marginal, failing int }
	classes := map[mitigate.WordAddr]*wordClass{}
	for _, c := range st.Device().Cells(st.Clock()) {
		a := g.AddrOf(c.Bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if shield.InReservedSegment(wa) {
			continue
		}
		cl := classes[wa]
		if cl == nil {
			cl = &wordClass{}
			classes[wa] = cl
		}
		switch {
		case c.VRT:
			cl.vrt++
		case c.Mu <= target*1.25:
			cl.failing++
		case c.Mu <= target*2:
			cl.marginal++
		}
	}
	addrs := make([]mitigate.WordAddr, 0, len(classes))
	for wa := range classes {
		addrs = append(addrs, wa)
	}
	sortWordAddrs(addrs)
	pick := func(keep func(*wordClass) bool, quota int, out []mitigate.WordAddr) []mitigate.WordAddr {
		for _, wa := range addrs {
			if quota <= 0 || len(out) >= limit {
				break
			}
			if keep(classes[wa]) && !slices.Contains(out, wa) {
				out = append(out, wa)
				quota--
			}
		}
		return out
	}
	var out []mitigate.WordAddr
	out = pick(func(c *wordClass) bool { return c.failing > 0 }, limit/2, out)
	out = pick(func(c *wordClass) bool { return c.vrt > 0 }, limit/4, out)
	out = pick(func(c *wordClass) bool { return c.marginal >= 2 }, limit-len(out), out)
	sortWordAddrs(out)
	return out
}

func sortWordAddrs(addrs []mitigate.WordAddr) {
	slices.SortFunc(addrs, func(a, b mitigate.WordAddr) int {
		if a.Bank != b.Bank {
			return a.Bank - b.Bank
		}
		if a.Row != b.Row {
			return a.Row - b.Row
		}
		return a.Word - b.Word
	})
}

// cellsByPhysicalWord groups the device's weak cells by containing word.
func cellsByPhysicalWord(st *memctrl.Station) map[mitigate.WordAddr][]dram.CellInfo {
	g := st.Device().Geometry()
	out := map[mitigate.WordAddr][]dram.CellInfo{}
	for _, c := range st.Device().Cells(st.Clock()) {
		a := g.AddrOf(c.Bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		out[wa] = append(out[wa], c)
	}
	return out
}

// stressPayload is a word's resident value: a per-word base pattern with
// every weak cell's bit at its charged (leak-prone) value.
func stressPayload(wa mitigate.WordAddr, cells []dram.CellInfo) uint64 {
	h := uint64(wa.Bank)<<40 ^ uint64(wa.Row)<<20 ^ uint64(wa.Word)
	h *= 0x9e3779b97f4a7c15
	val := 0xa5a5a5a5a5a5a5a5 ^ h
	for _, c := range cells {
		bit := c.Bit % 64
		if c.ChargedVal == 1 {
			val |= 1 << bit
		} else {
			val &^= 1 << bit
		}
	}
	return val
}
