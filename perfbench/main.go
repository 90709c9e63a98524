// Command perfbench is PRoof's end-to-end and layer-by-layer benchmark:
// the paper's own method (an end-to-end figure plus a per-layer
// breakdown) turned on the profiler itself.
//
//	perfbench --workload zoo-cold --seed 1 --seconds 30 --trace 0
//	perfbench steady -runs 10
//
// Workloads:
//
//	zoo-cold     core.ProfileCtx in-process, one caller, every zoo model on
//	             every platform that supports it, no cache of any kind
//	proofd-mix   cmd/proofd as its own process, driven over loopback by
//	             closed-loop clients replaying a seeded request mix
//	paper-regen  every table and figure of `experiments -run all`,
//	             regenerated in-process from an empty session each time
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1, as BENCHMARK.json
// in the working directory lists them). A human-readable
// summary goes to standard error. run.sh builds this command and proofd
// from the checkout and runs it; README.md describes every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it; Bound is set
// for end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the benchmark's declaration and the
// one list of the metrics this command reports.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	proofd   string // proofd binary (proofd-mix)
	tmpDir   string // scratch space inside the checkout
}

// outcome is what one workload run measured and found.
type outcome struct {
	attempted, failed int
	// failures counts failed operations by name (printed to stderr).
	failures map[string]int
	// problems lists correctness violations among the operations that
	// did not fail; any entry makes the run incorrect.
	problems []string
	// metrics holds the end-to-end or per-layer values, by trace mode.
	metrics map[string]float64
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]int{}, metrics: map[string]float64{}}
}

// problem records a correctness violation, keeping the first few.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == 20 {
		o.problems = append(o.problems, "... further problems suppressed")
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"zoo-cold":    runZoo,
	"proofd-mix":  runProofd,
	"paper-regen": runRegen,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload: zoo-cold, proofd-mix or paper-regen")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 30, "measured run length in seconds (whole rounds; the last round finishes)")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		proofd   = flag.String("proofd", "", "proofd binary (proofd-mix)")
		tmpDir   = flag.String("tmp", ".bench_build/tmp", "scratch directory")
		file     = flag.String("benchmark", "BENCHMARK.json", "benchmark declaration: the metrics to report")
		probe    = flag.String("setup-probe", "", "internal: set the named workload up, print ready and exit")
	)
	flag.Parse()
	if *probe != "" {
		os.Exit(setupProbe(*probe))
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (zoo-cold|proofd-mix|paper-regen), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	bench, err := readBenchmark(*file)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*tmpDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		proofd:   *proofd,
		tmpDir:   *tmpDir,
	}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := printResult(os.Stdout, bench, cfg, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the stderr summary and the final JSON line. Every
// metric BENCHMARK.json lists for the mode is reported; an end-to-end
// metric the workload did not produce is an error, a per-layer one
// reads 0.
func printResult(f *os.File, bench *benchmarkFile, cfg config, out *outcome) error {
	defs := bench.EndToEnd
	if cfg.trace {
		defs = bench.PerLayer
	}
	known := map[string]bool{}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := out.metrics[d.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s did not measure %s", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range out.metrics {
		if !known[name] {
			return fmt.Errorf("%s measured %s, which BENCHMARK.json does not list", cfg.workload, name)
		}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s attempted no operation", cfg.workload)
	}

	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v: attempted %d, failed %d, correct %v\n",
		cfg.workload, cfg.seed, cfg.trace, out.attempted, out.failed, res.Correct)
	names := make([]string, 0, len(out.failures))
	for name := range out.failures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  failed %-40s x%d\n", name, out.failures[name])
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "  problem: %s\n", p)
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}
