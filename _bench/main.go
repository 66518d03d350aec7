// Command bench is the repository's end-to-end benchmark. It drives one of
// four REAPER workloads through the public functions of the simulator's
// layers, checks the outputs, and prints one JSON result line:
//
//	go build -o reaper-bench . && ./reaper-bench --workload population --seed 1 --seconds 25 --trace 0
//
// (run.py at this directory wraps the build and keeps every artifact inside
// the checkout). With --trace 0 the result carries the end-to-end metrics
// listed in BENCHMARK.json; with --trace 1 it carries the per-layer metrics
// from a traced replica of the same work, which must reproduce the untraced
// outputs exactly. End-to-end times are in reference seconds, host seconds
// corrected for the shared host's drifting speed (reference.go). The line
// before the result is a report with provenance, sample counts, output
// digest and fidelity readings against the paper.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"population", "soak", "service", "fig13"}

func main() { os.Exit(run()) }

func run() int {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 0, "host seconds to measure for (required; BENCHMARK.json's run_seconds)")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replica")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build/work", "scratch directory for checkpoints")
	flag.StringVar(&opt.commit, "commit", "unknown", "source revision recorded in the report")
	flag.Parse()

	if opt.trace != 0 && opt.trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: --trace must be 0 or 1, got %d\n", opt.trace)
		return 2
	}
	if opt.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: --seconds is required and must be positive\n")
		return 2
	}
	w, err := newWorkload(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, rep, err := measure(ctx, opt, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", opt.workload, err)
		return 1
	}
	rep.Provenance = provenance(opt, w)
	rep.ModelNote = modelNote
	if err := printJSON(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	workdir  string
	commit   string
	// tiny shrinks every workload's inputs for the package's own smoke
	// tests; the command line always runs the full size.
	tiny bool
}

// newWorkload builds the named workload from the options.
func newWorkload(opt options) (workload, error) {
	switch opt.workload {
	case "population":
		return newPopulation(opt), nil
	case "soak":
		return newSoak(opt), nil
	case "service":
		return newService(opt), nil
	case "fig13":
		return newFig13(opt), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", opt.workload, strings.Join(workloadNames, ", "))
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, the benchmark's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: everything a reader needs to trust
// or reproduce the numbers, none of which the contract line has room for.
type report struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Provenance map[string]any     `json:"provenance"`
	Samples    map[string]int     `json:"samples"`
	Named      map[string]float64 `json:"named_metrics,omitempty"`
	Digest     string             `json:"output_digest"`
	Fidelity   []fidelity         `json:"fidelity,omitempty"`
	ModelNote  string             `json:"model_note"`
	Problems   []string           `json:"problems,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// fidelity is one reading of the reproduction against the paper. It is
// recorded, not gated: for a given seed the value is exact.
type fidelity struct {
	Claim    string  `json:"claim"`
	Measured float64 `json:"measured"`
	Paper    string  `json:"paper"`
	InBand   bool    `json:"in_band"`
}

// modelNote accompanies every report.
const modelNote = "only the readings listed are compared with the paper; the simulator is otherwise unvalidated"

func provenance(opt options, w workload) map[string]any {
	return map[string]any{
		"commit":     opt.commit,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"params":     w.params(),
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode output: %w", err)
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
