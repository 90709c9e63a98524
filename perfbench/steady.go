package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pyQuantiles returns the quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) computes them.
func pyQuantiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{d[0], d[0], d[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// steadyMain repeats each workload with consecutive seeds and prints,
// for each end-to-end metric, the median, the quartiles and the
// quartile spread as a share of the median against the metric's bound.
// It exits 1 when a spread exceeds its bound, when the failed share
// differs between runs or when a run is incorrect.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	var (
		runs    = fs.Int("runs", 10, "runs per workload")
		seed0   = fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
		only    = fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
		seconds = fs.Int("seconds", 0, "run length (default: run_seconds of BENCHMARK.json)")
		file    = fs.String("benchmark", "BENCHMARK.json", "benchmark declaration")
		proofd  = fs.String("proofd", "", "proofd binary")
		tmp     = fs.String("tmp", ".bench_build/tmp", "scratch directory")
	)
	fs.Parse(args)
	b, err := readBenchmark(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = b.RunSeconds
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}

	ok := true
	for _, w := range names {
		values := map[string][]float64{}
		shares := map[string]bool{}
		for i := 0; i < *runs; i++ {
			seed := *seed0 + uint64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", "0", "--proofd", *proofd, "--tmp", *tmp, "--benchmark", *file)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			t0 := time.Now()
			err := cmd.Run()
			wall := time.Since(t0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n%s", w, seed, err, stderr.String())
				return 1
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d is incorrect\n%s", w, seed, stderr.String())
				ok = false
			}
			share := fmt.Sprintf("%d/%d", res.Failed, res.Attempted)
			shares[strconv.FormatFloat(float64(res.Failed)/float64(res.Attempted), 'g', -1, 64)] = true
			fmt.Printf("%-12s seed %-3d %5.1fs failed %-12s", w, seed, wall.Seconds(), share)
			for _, m := range b.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				fmt.Printf(" %s=%.4g", m.Name, v)
			}
			fmt.Println()
		}
		if len(shares) != 1 {
			fmt.Printf("%-12s failed share differs between runs: %v\n", w, shares)
			ok = false
		}
		fmt.Printf("%-12s %-16s %12s %12s %12s %8s %7s  %s\n", w, "metric", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, m := range b.EndToEnd {
			vs := values[m.Name]
			q := pyQuantiles(vs)
			med := quantile(vs, 0.5) // statistics.median
			spread := 0.0
			if med != 0 {
				spread = (q[2] - q[0]) / med
			}
			verdict := "steady (< bound/3)"
			switch {
			case spread > m.Bound:
				verdict = "TOO WIDE"
				ok = false
			case spread > m.Bound/3:
				verdict = "within bound"
			}
			fmt.Printf("%-12s %-16s %12.4f %12.4f %12.4f %7.1f%% %6.0f%%  %s\n",
				w, m.Name, med, q[0], q[2], 100*spread, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
