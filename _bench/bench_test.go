package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"reaper/internal/experiments"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyOptions(t *testing.T, workload string, trace int) options {
	return options{workload: workload, seed: 3, seconds: 0.5, trace: trace, tiny: true,
		workdir: t.TempDir(), commit: "test"}
}

// TestDeclaredMetrics checks that the metric tables the binary prints from
// are exactly BENCHMARK.json's, in its order and with its units.
func TestDeclaredMetrics(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, binary %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: BENCHMARK.json %d/%d, binary %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], binary %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s], binary %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result line: correct, nothing failed, and exactly the declared
// metrics with their units. The traced run fails unless every traced
// replica reproduced its untraced twin.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, name := range workloadNames {
		for _, trace := range []int{0, 1} {
			opt := tinyOptions(t, name, trace)
			w, err := newWorkload(opt)
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := measure(context.Background(), opt, w)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d problems=%q",
					name, trace, res.Correct, res.Attempted, res.Failed, rep.Problems)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for k, m := range res.Metrics {
				if unit, ok := want[k]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s [%s] not declared as such", name, trace, k, m.Unit)
				}
			}
			// The traced service run adds program loading and grid
			// replays to the same open-loop schedule, so it must take
			// longer than its untraced twin.
			if trace == 1 && name == "service" {
				if v := res.Metrics["trace.overhead_s"].Value; !(v > 0) {
					t.Errorf("service: trace.overhead_s = %v, want > 0", v)
				}
			}
			if trace == 0 {
				for _, k := range []string{"setup_s", "ops_per_ref_s", "latency_p50_ref_s", "peak_heap_mb"} {
					if v := res.Metrics[k].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", name, k, v)
					}
				}
			}
		}
	}
}

// TestTracedReplicaEquality runs one untraced and one traced iteration of
// each workload, requires the replica to match, and requires the check to
// notice a replica that does not.
func TestTracedReplicaEquality(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		opt := tinyOptions(t, name, 1)
		w, err := newWorkload(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(ctx); err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		u, err := w.run(ctx)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		tr, err := w.runTraced(ctx, newLayers())
		if err != nil {
			t.Fatalf("%s: traced: %v", name, err)
		}
		if err := w.same(u, tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := w.same(u, corrupt(t, name, tr)); err == nil {
			t.Errorf("%s: a corrupted replica passed the equality check", name)
		}
		w.close()
	}
}

// corrupt returns a copy of a traced outcome with one output value changed.
func corrupt(t *testing.T, name string, o *outcome) *outcome {
	t.Helper()
	bad := *o
	switch r := o.replica.(type) {
	case []soakChipCounts:
		c := append([]soakChipCounts(nil), r...)
		c[0].UEEvents++
		bad.replica = c
	case []experiments.ChipResult:
		c := append([]experiments.ChipResult(nil), r...)
		c[0].Coverage += 1e-9
		bad.replica = c
	case []experiments.Fig13Cell:
		c := append([]experiments.Fig13Cell(nil), r...)
		c[0].PerfGain.Mean += 1e-9
		bad.replica = c
	default:
		if name != "service" {
			t.Fatalf("%s: unexpected replica type %T", name, o.replica)
		}
		bad.digest = "corrupted"
	}
	return &bad
}

// TestDigestStable requires two runs of one seed to agree on the output
// digest.
func TestDigestStable(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		var digests []string
		for i := 0; i < 2; i++ {
			opt := tinyOptions(t, name, 0)
			w, err := newWorkload(opt)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := measure(ctx, opt, w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			digests = append(digests, rep.Digest)
		}
		if digests[0] != digests[1] || digests[0] == "" {
			t.Errorf("%s: digests %q across two runs of one seed", name, digests)
		}
	}
}

// TestReferenceKernel requires the reference kernel to allocate nothing, so
// that no collection of the program's heap can run inside a reference
// sample, and the reference scale to be positive and finite.
func TestReferenceKernel(t *testing.T) {
	ring, err := refRing()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() { refSink[0] = refKernel(ring, 1) }); n != 0 {
		t.Errorf("reference kernel allocates %v times per run, want 0", n)
	}
	refs, err := refSamples(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := refScale(refs); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("reference scale %v, want positive and finite", s)
	}
}
