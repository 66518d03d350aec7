package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// workload is one benchmark workload. setup builds the fixed inputs and any
// long-lived state (it may run several times; each call replaces the last),
// run performs one untraced iteration, and runTraced performs the same
// iteration through the layers' public functions with spans around each
// call. same reports how a traced outcome departs from an untraced one.
type workload interface {
	params() map[string]any
	setup(ctx context.Context) error
	run(ctx context.Context) (*outcome, error)
	runTraced(ctx context.Context, l *layers) (*outcome, error)
	same(untraced, traced *outcome) error
	// topLayers names the disjoint layers whose busy time, with
	// experiments.other_s, accounts for the traced busy time.
	topLayers() []string
	close()
}

// outcome is what one iteration produced.
type outcome struct {
	// wall is the iteration's host seconds; the harness fills it unless
	// the workload measured it itself.
	wall float64
	// busy is the host seconds throughput is counted over; 0 means wall.
	busy float64
	// ops and failed count operations attempted and failed (a failed
	// check counts as a failed operation).
	ops, failed int
	// digest fingerprints the deterministic output.
	digest string
	// latencies are per-operation latencies in host seconds; nil means the
	// iteration's wall time is the latency sample.
	latencies []float64
	// named holds the workload's own end-to-end readings, such as
	// chips_per_s, recorded in the report line.
	named    map[string]float64
	fidelity []fidelity
	problems []string
	// extra holds diagnostics recorded in the report line.
	extra map[string]float64
	// replica is the output the traced run must reproduce exactly.
	replica any
}

// setupRepeats is how many times setup runs; setup_s is their median.
const setupRepeats = 9

// endToEnd lists the end-to-end metrics with their units, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"ok_share", "share"},
	{"ops_per_ref_s", "1/ref_s"},
	{"latency_p50_ref_s", "ref_s"},
	{"latency_p90_ref_s", "ref_s"},
}

// perLayer lists the per-layer metrics with their units, in BENCHMARK.json
// order. Times are host seconds per iteration summed over workers; counts
// are per iteration; sim_s is simulated time. A workload that never reaches
// a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"dram.construct_s", "s"},
	{"dram.construct_calls", "count"},
	{"dram.weak_cells", "count"},
	{"dram.oracle_s", "s"},
	{"dram.oracle_calls", "count"},
	{"dram.oracle_failing_bits", "count"},
	{"dram.rematerialize_s", "s"},
	{"core.profile_s", "s"},
	{"core.rounds", "count"},
	{"core.explore_s", "s"},
	{"memctrl.write_pattern_s", "s"},
	{"memctrl.enable_refresh_s", "s"},
	{"memctrl.read_compare_s", "s"},
	{"memctrl.wait_s", "s"},
	{"memctrl.passes", "count"},
	{"memctrl.sim_s", "sim_s"},
	{"soak.build_s", "s"},
	{"faultinject.run_until_s", "s"},
	{"faultinject.events", "count"},
	{"firmware.tick_s", "s"},
	{"firmware.rounds", "count"},
	{"experiments.write_resident_s", "s"},
	{"scrub.scrub_s", "s"},
	{"scrub.words_read", "count"},
	{"scrub.corrected", "count"},
	{"scrub.uncorrectable", "count"},
	{"checkpoint.encode_s", "s"},
	{"checkpoint.save_s", "s"},
	{"checkpoint.bytes", "bytes"},
	{"testprog.load_s", "s"},
	{"reaperd.queue_wait_s", "s"},
	{"reaperd.run_s", "s"},
	{"reaperd.http_s", "s"},
	{"reaperd.overhead_s", "s"},
	{"loadgen.late_p90_s", "s"},
	{"sysperf.simulate_s", "s"},
	{"sysperf.simulate_calls", "count"},
	{"sysperf.requests", "count"},
	{"sysperf.ns_per_request", "ns"},
	{"sysperf.alone_ipc_s", "s"},
	{"workload.mixes_s", "s"},
	{"power.system_power_s", "s"},
	{"experiments.busy_s", "s"},
	{"experiments.other_s", "s"},
	{"trace.overhead_s", "s"},
}

// measure runs the workload for opt.seconds and assembles the result and
// report lines. Reference samples are taken before and after every setup
// and iteration, and the run's times are reported in reference seconds
// (reference.go); the host seconds are kept in the report line.
func measure(ctx context.Context, opt options, w workload) (*result, *report, error) {
	if opt.trace == 1 {
		return measureTraced(ctx, opt, w)
	}
	refs, err := refSamples(nil)
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if refs, err = refSamples(refs); err != nil {
			return nil, nil, err
		}
	}
	defer w.close()

	heap := startHeapSampler()
	defer heap.stop()
	var (
		outs  []*outcome
		peaks []float64
	)
	start := time.Now()
	for {
		runtime.GC()
		heap.reset()
		t0 := time.Now()
		o, err := w.run(ctx)
		if err != nil {
			return nil, nil, err
		}
		if o.wall == 0 {
			o.wall = time.Since(t0).Seconds()
		}
		peaks = append(peaks, float64(heap.peak())/(1<<20))
		outs = append(outs, o)
		if refs, err = refSamples(refs); err != nil {
			return nil, nil, err
		}
		if !more(start, o.wall, opt.seconds) || ctx.Err() != nil {
			break
		}
	}

	res, rep := tally(opt, outs)
	var lat, rates []float64
	for _, o := range outs {
		if o.latencies != nil {
			lat = append(lat, o.latencies...)
		} else {
			lat = append(lat, o.wall)
		}
		busy := o.busy
		if busy == 0 {
			busy = o.wall
		}
		rates = append(rates, float64(o.ops)/busy)
	}
	scale := refScale(refs)
	rep.Samples["latency"] = len(lat)
	rep.Samples["setup"] = len(setups)
	rep.Samples["reference"] = len(refs)
	rep.Extra["reference_sample_s"] = median(refs)
	rep.Extra["host_setup_s"] = median(setups)
	rep.Extra["host_ops_per_s"] = median(rates)
	rep.Extra["host_latency_p50_s"] = quantile(lat, 0.5)
	rep.Extra["host_latency_p90_s"] = quantile(lat, 0.9)
	res.Metrics = map[string]metric{
		"setup_s":           {median(setups) * scale, "s"},
		"peak_heap_mb":      {median(peaks), "MiB"},
		"ok_share":          {float64(res.Attempted-res.Failed) / float64(res.Attempted), "share"},
		"ops_per_ref_s":     {median(rates) / scale, "1/ref_s"},
		"latency_p50_ref_s": {quantile(lat, 0.5) * scale, "ref_s"},
		"latency_p90_ref_s": {quantile(lat, 0.9) * scale, "ref_s"},
	}
	return res, rep, nil
}

// measureTraced alternates untraced and traced iterations, checks that each
// traced replica reproduces its untraced twin, and reports the per-layer
// medians.
func measureTraced(ctx context.Context, opt options, w workload) (*result, *report, error) {
	if err := w.setup(ctx); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer w.close()

	var (
		outs        []*outcome
		plain, trcd []float64
		perIter     = map[string][]float64{}
		mismatches  []string
	)
	start := time.Now()
	for {
		// Both twins are timed here, whole, whatever wall a workload
		// reports for itself (service's covers its live phase only), so
		// trace.overhead_s includes every step the traced run adds.
		runtime.GC()
		t0 := time.Now()
		u, err := w.run(ctx)
		if err != nil {
			return nil, nil, err
		}
		uWall := time.Since(t0).Seconds()
		runtime.GC()
		l := newLayers()
		t0 = time.Now()
		tr, err := w.runTraced(ctx, l)
		if err != nil {
			return nil, nil, fmt.Errorf("traced: %w", err)
		}
		wall := time.Since(t0).Seconds()
		// A traced replica has no digest of its own: it carries its
		// untraced twin's once it has reproduced that twin's output.
		if err := w.same(u, tr); err != nil {
			mismatches = append(mismatches, err.Error())
			tr.failed = tr.ops
		} else {
			tr.digest = u.digest
		}
		outs = append(outs, u, tr)
		plain = append(plain, uWall)
		trcd = append(trcd, wall)

		vals := l.values(wall)
		covered := 0.0
		for _, name := range w.topLayers() {
			covered += vals[name]
		}
		vals["experiments.other_s"] = vals["experiments.busy_s"] - covered
		for k, v := range vals {
			perIter[k] = append(perIter[k], v)
		}
		if !more(start, uWall+wall, opt.seconds) || ctx.Err() != nil {
			break
		}
	}

	res, rep := tally(opt, outs)
	rep.Trace = true
	rep.Problems = append(rep.Problems, mismatches...)
	if len(mismatches) > 0 {
		res.Correct = false
	}
	rep.Samples["traced_iterations"] = len(trcd)
	res.Metrics = map[string]metric{}
	for _, m := range perLayer {
		v := 0.0
		if s, ok := perIter[m.name]; ok {
			v = median(s)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	res.Metrics["trace.overhead_s"] = metric{median(trcd) - median(plain), "s"}
	for _, name := range sortedKeys(perIter) {
		if _, ok := res.Metrics[name]; !ok {
			return nil, nil, fmt.Errorf("layer %q is not a declared per-layer metric", name)
		}
	}
	return res, rep, nil
}

// more reports whether another iteration of about last seconds still fits
// in the measurement window.
func more(start time.Time, last, seconds float64) bool {
	return time.Since(start).Seconds()+last <= seconds
}

// tally folds the iterations' counts, digests and readings into the result
// and report skeletons. Every iteration of one seed must produce the same
// digest.
func tally(opt options, outs []*outcome) (*result, *report) {
	res := &result{Correct: true}
	rep := &report{
		Workload: opt.workload,
		Samples:  map[string]int{"iterations": len(outs)},
		Named:    map[string]float64{},
		Extra:    map[string]float64{},
		Digest:   outs[0].digest,
	}
	named := map[string][]float64{}
	extra := map[string][]float64{}
	for i, o := range outs {
		res.Attempted += o.ops
		res.Failed += o.failed
		rep.Problems = append(rep.Problems, o.problems...)
		if o.digest != rep.Digest {
			res.Failed += o.ops - o.failed
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("iteration %d: output digest %s differs from %s", i, o.digest, rep.Digest))
		}
		for k, v := range o.named {
			named[k] = append(named[k], v)
		}
		for k, v := range o.extra {
			extra[k] = append(extra[k], v)
		}
	}
	for k, v := range named {
		rep.Named[k] = median(v)
	}
	for k, v := range extra {
		rep.Extra[k] = median(v)
	}
	rep.Fidelity = outs[0].fidelity
	rep.Problems = distinct(rep.Problems, maxProblems)
	if res.Failed > 0 || len(rep.Problems) > 0 {
		res.Correct = false
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	return res, rep
}

// maxProblems caps how many distinct problems a report lists.
const maxProblems = 20

// distinct returns xs without repeats, in first-seen order, at most max
// long.
func distinct(xs []string, max int) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] && len(out) < max {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// layers accumulates one traced iteration's spans and counts. Jobs on the
// worker pool record into their own span set and merge it on completion,
// so the hot path takes no lock.
type layers struct {
	mu       sync.Mutex
	vals     map[string]float64
	jobBusy  float64 // host seconds inside worker jobs
	poolWall float64 // wall seconds of the parallel phases
}

func newLayers() *layers { return &layers{vals: map[string]float64{}} }

// spans is a single goroutine's private accumulator.
type spans map[string]float64

// since adds the seconds elapsed from t0 to name and returns now, so
// consecutive spans can chain.
func (s spans) since(name string, t0 time.Time) time.Time {
	now := time.Now()
	s[name] += now.Sub(t0).Seconds()
	return now
}

// merge folds a job's spans into the iteration; busy is the job's wall.
func (l *layers) merge(s spans, busy float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range s {
		l.vals[k] += v
	}
	l.jobBusy += busy
}

// ratio sets name to scale * num / den over the values recorded so far.
func (l *layers) ratio(name, num, den string, scale float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d := l.vals[den]; d > 0 {
		l.vals[name] = scale * l.vals[num] / d
	}
}

// pool runs fn, a phase that fans jobs out over workers, and records its
// wall time so serial time outside pools still counts as busy.
func (l *layers) pool(fn func() error) error {
	t0 := time.Now()
	err := fn()
	l.mu.Lock()
	l.poolWall += time.Since(t0).Seconds()
	l.mu.Unlock()
	return err
}

// values returns the iteration's layer values plus its busy time: every
// job's time, and the serial time of an iteration that took wall seconds.
func (l *layers) values(wall float64) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(l.vals)+1)
	for k, v := range l.vals {
		out[k] = v
	}
	out["experiments.busy_s"] = l.jobBusy + wall - l.poolWall
	return out
}

// heapSampler tracks the peak live heap between resets.
type heapSampler struct {
	mu    sync.Mutex
	max   uint64
	quit  chan struct{}
	done  chan struct{}
	probe []metrics.Sample
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapSamplePeriod is how often the sampler reads the heap size.
const heapSamplePeriod = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		probe: []metrics.Sample{{Name: heapMetric}},
	}
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	tick := time.NewTicker(heapSamplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-h.quit:
			return
		case <-tick.C:
			h.sample()
		}
	}
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.probe)
	if v := h.probe[0].Value.Uint64(); v > h.max {
		h.max = v
	}
}

func (h *heapSampler) reset() {
	h.mu.Lock()
	h.max = 0
	h.mu.Unlock()
	h.sample()
}

func (h *heapSampler) peak() uint64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// stop ends the sampling goroutine and waits for it.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// median returns the middle of xs (the mean of the middle two for an even
// count); NaN for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs with linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// digest fingerprints a textual rendering of deterministic output.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// check appends a problem to o when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// derive mixes the benchmark seed with a workload salt so workloads draw
// unrelated inputs from the same --seed.
func derive(seed, salt uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 ^ salt
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x
}
