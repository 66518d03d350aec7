package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"syscall"
	"time"

	"reaper/client"
	"reaper/internal/core"
	"reaper/internal/experiments"
	"reaper/internal/memctrl"
	"reaper/internal/reaperd"
	"reaper/internal/rng"
	"reaper/internal/testprog"
)

// service drives an in-process reaperd on loopback under an open loop:
// programs are sent on a fixed seeded schedule whatever the server's state,
// about four small device programs per tradeoff_grid campaign program, from
// one submitter connection, while one poller connection watches each
// program's status. An operation is one program; its latency runs from its
// scheduled send time until the poller sees its result available, so it is
// read to the poll interval. Because the loop is open, programs per wall
// second would only read back the offered rate, so ops_per_ref_s counts
// programs per second of the process's CPU time in the live phase: the
// load generator's and the server's cost per program.
type service struct {
	progs    []svcProgram
	slot     time.Duration // mean gap between scheduled sends
	drain    time.Duration // how long an iteration waits after its last send
	poll     time.Duration // status poll interval, the latency resolution
	maxConc  int
	srv      *reaperd.Server
	stop     context.CancelFunc
	served   chan error
	submitC  *client.Client
	pollC    *client.Client
	submitTr *http.Transport
	pollTr   *http.Transport
}

// svcProgram is one scheduled submission.
type svcProgram struct {
	doc  []byte
	at   time.Duration // send offset from the iteration start
	grid *testprog.TradeoffGridStage
	prog *testprog.Program
}

// Program templates: a small write/wait/read/classify device program and a
// tradeoff grid whose station rebuilds and profiling rounds make it several
// times longer.
const (
	deviceProgram = `{"version":1,"name":"bench-device","seed":%d,"fleet":{"bits":4194304,"weak_scale":40},` +
		`"stages":[{"type":"write_pattern","pattern":"checker"},{"type":"disable_refresh"},{"type":"wait","seconds":2},` +
		`{"type":"enable_refresh"},{"type":"read_compare","label":"after-2s"},` +
		`{"type":"classify","target_interval_s":1.024,"target_temp_c":45}]}`
	gridProgram = `{"version":1,"name":"bench-grid","seed":%d,"fleet":{"bits":4194304,"weak_scale":20},` +
		`"stages":[{"type":"tradeoff_grid","target_interval_s":1.024,"target_temp_c":45,` +
		`"delta_intervals_s":[0,0.25],"delta_temps_c":[0,5],"iterations":8,"max_iterations":16}]}`
)

func newService(opt options) *service {
	s := &service{
		slot:    50 * time.Millisecond,
		drain:   2 * time.Second,
		poll:    5 * time.Millisecond,
		maxConc: runtime.NumCPU(),
	}
	groups := 16 // of five programs: 80 programs, a 4 s schedule
	if opt.tiny {
		groups = 2
	}
	src := rng.New(derive(opt.seed, 0x5eed_0003))
	for g := 0; g < groups; g++ {
		for k := 0; k < 5; k++ {
			i := len(s.progs)
			seed := derive(opt.seed, uint64(0x1000+i)) % (1 << 48)
			p := svcProgram{
				// Sends are spread one per slot with a seeded jitter of up
				// to half a slot.
				at: time.Duration(i)*s.slot + time.Duration(src.Float64()*float64(s.slot)/2),
			}
			if k == 4 {
				p.doc = []byte(fmt.Sprintf(gridProgram, seed))
			} else {
				p.doc = []byte(fmt.Sprintf(deviceProgram, seed))
			}
			s.progs = append(s.progs, p)
		}
	}
	return s
}

func (s *service) params() map[string]any {
	grids := 0
	for _, p := range s.progs {
		if p.grid != nil {
			grids++
		}
	}
	return map[string]any{
		"programs_per_iteration": len(s.progs),
		"grid_programs":          grids,
		"rate_per_s":             float64(time.Second) / float64(s.slot),
		"loop":                   "open",
		"max_concurrent":         s.maxConc,
		"job_workers":            1,
		"poll_interval_s":        s.poll.Seconds(), // the latency resolution
		"drain_s":                s.drain.Seconds(),
		"connections":            "1 submitter + 1 poller",
	}
}

// setup loads the programs, starts the daemon on a loopback port with its
// scheduler, connects the two clients, and runs one device and one grid
// program through it.
func (s *service) setup(ctx context.Context) error {
	for i := range s.progs {
		p, err := testprog.Load(s.progs[i].doc)
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		s.progs[i].prog = p
		if g, ok := p.Stages[0].(*testprog.TradeoffGridStage); ok {
			s.progs[i].grid = g
		}
	}
	s.srv = reaperd.New(reaperd.Config{MaxConcurrent: s.maxConc, JobWorkers: 1})
	runCtx, stop := context.WithCancel(context.WithoutCancel(ctx))
	s.stop = stop
	if err := s.srv.Start(runCtx, "127.0.0.1:0"); err != nil {
		stop()
		return err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(runCtx) }()

	base := "http://" + s.srv.Addr()
	s.submitTr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.pollTr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.submitC = client.New(base).WithHTTPClient(&http.Client{Transport: s.submitTr})
	s.pollC = client.New(base).WithHTTPClient(&http.Client{Transport: s.pollTr})

	warm := []int{0, slices.IndexFunc(s.progs, func(p svcProgram) bool { return p.grid != nil })}
	for _, i := range warm {
		if i < 0 {
			continue
		}
		if _, err := s.submitC.Run(ctx, s.progs[i].doc, s.poll); err != nil {
			return fmt.Errorf("warm-up program %d: %w", i, err)
		}
	}
	return nil
}

// close drains the scheduler, waits for it, and closes the listener and the
// clients' connections.
func (s *service) close() {
	if s.srv == nil {
		return
	}
	s.stop()
	<-s.served
	s.srv.Close()
	s.submitTr.CloseIdleConnections()
	s.pollTr.CloseIdleConnections()
	s.srv = nil
}

// track is one program's observed lifecycle in an iteration.
type track struct {
	id         string
	sent       time.Time // when the submitter started the request
	accepted   time.Time // when the submit response arrived
	lastQueued time.Time // last poll that still saw it queued
	running    time.Time // first poll that saw it running
	finished   time.Time // first poll that saw it terminal
	state      reaperd.State
	err        error
	doc        []byte
}

// liveStats are the host-side timings of one iteration's live phase.
type liveStats struct {
	start      time.Time
	end        time.Time
	late       []float64
	submitSecs float64 // client wall inside submit requests
	pollSecs   float64 // client wall inside status requests
	polls      int
	cpu        float64 // process CPU seconds from start to end
}

// processCPU returns the process's user and system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// drive runs the schedule once: the submitter sends each program at its
// slot while the poller watches every accepted program until it finishes
// or the drain deadline passes.
func (s *service) drive(ctx context.Context) ([]*track, liveStats, error) {
	tracks := make([]*track, len(s.progs))
	for i := range tracks {
		tracks[i] = &track{}
	}
	cpu0 := processCPU()
	ls := liveStats{start: time.Now()}
	accepted := make(chan int, len(s.progs)) // one send per program
	subDone := make(chan float64, 1)
	go func() {
		submitSecs := 0.0
		defer func() { close(accepted); subDone <- submitSecs }()
		for i, p := range s.progs {
			due := ls.start.Add(p.at)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			t := tracks[i]
			t.sent = time.Now()
			st, err := s.submitC.Submit(ctx, p.doc)
			t.accepted = time.Now()
			submitSecs += t.accepted.Sub(t.sent).Seconds()
			if err != nil {
				t.err = err
				continue
			}
			t.id, t.state, t.lastQueued = st.ID, st.State, t.accepted
			accepted <- i
		}
	}()

	deadline := ls.start.Add(s.progs[len(s.progs)-1].at + s.drain)
	var outstanding []int
	open := true
	tick := time.NewTicker(s.poll)
	defer tick.Stop()
poll:
	for open || len(outstanding) > 0 {
		if time.Now().After(deadline) {
			break
		}
		select {
		case i, ok := <-accepted:
			if !ok {
				open = false
				accepted = nil
				continue
			}
			outstanding = append(outstanding, i)
			continue
		case <-tick.C:
		case <-ctx.Done():
			break poll
		}
		kept := outstanding[:0]
		for _, i := range outstanding {
			t := tracks[i]
			t0 := time.Now()
			st, err := s.pollC.Status(ctx, t.id)
			now := time.Now()
			ls.pollSecs += now.Sub(t0).Seconds()
			ls.polls++
			if err != nil {
				t.err = err
				continue
			}
			t.state = st.State
			switch st.State {
			case reaperd.StateQueued:
				t.lastQueued = now
			case reaperd.StateRunning:
				if t.running.IsZero() {
					t.running = now
				}
			default:
				t.finished = now
				continue
			}
			kept = append(kept, i)
		}
		outstanding = kept
	}
	ls.end = time.Now()
	ls.cpu = processCPU() - cpu0
	if accepted != nil {
		// The deadline passed mid-schedule or the run was cancelled: wait
		// for the submitter to finish before reading what it recorded.
		for range accepted {
		}
	}
	ls.submitSecs = <-subDone
	if err := ctx.Err(); err != nil {
		return nil, ls, err
	}
	for i, t := range tracks {
		if !t.sent.IsZero() {
			ls.late = append(ls.late, t.sent.Sub(ls.start.Add(s.progs[i].at)).Seconds())
		}
	}
	// Fetch the results once the live phase is over, so fetching does not
	// add load to it.
	for _, t := range tracks {
		if t.state == reaperd.StateDone && t.err == nil {
			t.doc, t.err = s.pollC.ResultBytes(ctx, t.id)
		}
	}
	return tracks, ls, nil
}

// judge turns an iteration's tracks into an outcome. A program that was
// rejected, failed, is still queued or running at the deadline, or whose
// result does not decode counts as failed, with the iteration's full span
// as its latency.
func (s *service) judge(tracks []*track, ls liveStats) *outcome {
	o := &outcome{ops: len(s.progs), extra: map[string]float64{}}
	var docs [][]byte
	var results []*testprog.Result
	rejected, unfinished := 0, 0
	lastDone := ls.start
	for i, t := range tracks {
		due := ls.start.Add(s.progs[i].at)
		var res *testprog.Result
		ok := t.err == nil && t.state == reaperd.StateDone
		if ok {
			res = &testprog.Result{}
			if err := json.Unmarshal(t.doc, res); err != nil || !wellFormed(res, s.progs[i]) {
				ok = o.check(false, "program %d: result document does not decode to the program's shape", i)
			}
		}
		var apiErr *client.APIError
		switch {
		case ok:
			o.latencies = append(o.latencies, t.finished.Sub(due).Seconds())
			if t.finished.After(lastDone) {
				lastDone = t.finished
			}
		case errors.As(t.err, &apiErr) && (apiErr.StatusCode == http.StatusTooManyRequests || apiErr.StatusCode == http.StatusServiceUnavailable):
			rejected++
		case t.err == nil && t.state != reaperd.StateDone:
			unfinished++
		}
		if !ok {
			o.failed++
			o.latencies = append(o.latencies, ls.end.Sub(due).Seconds())
			if t.err != nil {
				o.check(false, "program %d: %v", i, t.err)
			} else if t.state != reaperd.StateDone {
				o.check(false, "program %d: %s at the deadline", i, t.state)
			}
			res = nil
		}
		docs = append(docs, t.doc)
		results = append(results, res)
	}
	o.digest = digest(docs...)
	o.replica = results
	// The span from the first scheduled send to the last result.
	o.wall = lastDone.Sub(ls.start).Seconds()
	o.busy = ls.cpu
	o.extra["rejected"] = float64(rejected)
	o.extra["unfinished_at_deadline"] = float64(unfinished)
	o.extra["generator_late_p50_s"] = quantile(ls.late, 0.5)
	o.extra["generator_late_p90_s"] = quantile(ls.late, 0.9)
	o.extra["generator_late_max_s"] = quantile(ls.late, 1)
	// What the load generator's own requests cost, to compare with the
	// server's run time: the poller is in-process and shares the CPUs.
	o.extra["submit_http_s"] = ls.submitSecs
	o.extra["poll_http_s"] = ls.pollSecs
	o.extra["poll_requests"] = float64(ls.polls)
	return o
}

// wellFormed checks a decoded result against the program that produced it.
func wellFormed(res *testprog.Result, p svcProgram) bool {
	if res.Seed != p.prog.Seed {
		return false
	}
	if p.grid != nil {
		want := len(p.grid.DeltaIntervalsS) * len(p.grid.DeltaTempsC)
		return len(res.Stages) == 1 && len(res.Stages[0].Tradeoff) == want
	}
	return len(res.Chips) == 1 && len(res.Chips[0].Stages) == len(p.prog.Stages) &&
		res.Chips[0].Stages[len(p.prog.Stages)-1].Classify != nil
}

func (s *service) run(ctx context.Context) (*outcome, error) {
	tracks, ls, err := s.drive(ctx)
	if err != nil {
		return nil, err
	}
	return s.judge(tracks, ls), nil
}

func (s *service) topLayers() []string {
	return []string{"testprog.load_s", "reaperd.queue_wait_s", "reaperd.run_s", "reaperd.overhead_s",
		"dram.construct_s", "core.explore_s"}
}

// runTraced drives the same schedule, splits each program's latency into
// queue wait, run time and the rest from the observed state transitions,
// and replays every grid program through core.ExploreTradeoffs with a
// timing station factory; the replica must match the service's result.
func (s *service) runTraced(ctx context.Context, l *layers) (*outcome, error) {
	sp := spans{}
	t := time.Now()
	for _, p := range s.progs {
		if _, err := testprog.Load(p.doc); err != nil {
			return nil, err
		}
	}
	sp.since("testprog.load_s", t)

	var tracks []*track
	var ls liveStats
	err := l.pool(func() error {
		var err error
		tracks, ls, err = s.drive(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	o := s.judge(tracks, ls)
	busy := 0.0
	for i, t := range tracks {
		if t.finished.IsZero() || t.accepted.IsZero() {
			continue
		}
		due := ls.start.Add(s.progs[i].at)
		running := t.running
		if running.IsZero() {
			// Queued to done between two polls: split the gap.
			running = t.lastQueued.Add(t.finished.Sub(t.lastQueued) / 2)
		}
		latency := t.finished.Sub(due).Seconds()
		queue := running.Sub(t.accepted).Seconds()
		runS := t.finished.Sub(running).Seconds()
		sp["reaperd.queue_wait_s"] += queue
		sp["reaperd.run_s"] += runS
		sp["reaperd.overhead_s"] += latency - queue - runS
		busy += latency
	}
	sp["reaperd.http_s"] += ls.submitSecs + ls.pollSecs
	sp["loadgen.late_p90_s"] = quantile(ls.late, 0.9)
	l.merge(sp, busy)

	results, _ := o.replica.([]*testprog.Result)
	for i, p := range s.progs {
		if p.grid == nil || results[i] == nil {
			continue
		}
		pts, err := s.replayGrid(ctx, p, l)
		if err != nil {
			return nil, err
		}
		a, _ := json.Marshal(pts)
		b, _ := json.Marshal(results[i].Stages[0].Tradeoff)
		if string(a) != string(b) {
			o.check(false, "program %d: traced grid replica differs from the service's result", i)
			o.failed++
		}
	}
	return o, nil
}

// replayGrid runs one grid program's tradeoff exploration as the service
// lowers it (experiments.Fig9Fig10Tradeoff), on one worker so its spans nest.
func (s *service) replayGrid(ctx context.Context, p svcProgram, l *layers) ([]core.TradeoffPoint, error) {
	g, f := p.grid, p.prog.Fleet
	spec := experiments.ChipSpec{Bits: f.Bits, WeakScale: f.WeakScale, Seed: p.prog.Seed}
	sp := spans{}
	mk := func() (*memctrl.Station, error) {
		t := time.Now()
		st, err := spec.NewStation()
		sp.since("dram.construct_s", t)
		sp["dram.construct_calls"]++
		if err == nil {
			sp["dram.weak_cells"] += float64(st.Device().WeakCellCount())
		}
		return st, err
	}
	t := time.Now()
	pts, err := core.ExploreTradeoffs(ctx, mk, core.TradeoffConfig{
		TargetInterval: g.TargetIntervalS,
		TargetTempC:    g.TargetTempC,
		DeltaIntervals: g.DeltaIntervalsS,
		DeltaTemps:     g.DeltaTempsC,
		Iterations:     g.Iterations,
		CoverageGoal:   g.CoverageGoal,
		MaxIterations:  g.MaxIterations,
		Workers:        1,
		Options:        core.Options{FreshRandomPerIteration: true, Seed: p.prog.Seed},
	})
	sp["core.explore_s"] += time.Since(t).Seconds() - sp["dram.construct_s"]
	l.merge(sp, 0)
	return pts, err
}

func (s *service) same(u, tr *outcome) error {
	if u.digest != tr.digest {
		return fmt.Errorf("traced service: result documents differ from the untraced iteration's")
	}
	return nil
}
