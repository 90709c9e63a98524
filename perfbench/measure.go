package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"proof/internal/core"
	"proof/internal/experiments"
)

// setupRuns is how many times a run sets its system up to report
// setup_s as a median.
//
// setup_s is the CPU time (user + system, all threads) the system under
// test spends setting up, not the wall time: on a shared two-vCPU VM the
// host steals up to a quarter of the CPU in bursts of tens of seconds,
// which spread the wall time of zoo-cold's 40 ms set-up by 30% over ten
// runs, while its CPU time, which the guest kernel accounts without the
// stolen time, spread by 8% and 15% over two later sets of ten. Work
// moved into set-up shows in it all the same.
const setupRuns = 9

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tailQuantile is quantile for a tail percentile: it returns false when
// fewer than ten samples lie beyond q, where the percentile would be no
// tail at all.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	if float64(len(xs))*(1-q) < 10 {
		return 0, false
	}
	return quantile(xs, q), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time (user + system, all threads) this process has
// used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSamples reads the runtime counters the benchmark needs without
// allocating: cumulative heap bytes allocated and GC CPU seconds.
type runtimeSamples struct {
	s [2]metrics.Sample
}

func newRuntimeSamples() *runtimeSamples {
	r := &runtimeSamples{}
	r.s[0].Name = "/gc/heap/allocs:bytes"
	r.s[1].Name = "/cpu/classes/gc/total:cpu-seconds"
	return r
}

// heapAlloc returns the cumulative bytes allocated on the heap.
func (r *runtimeSamples) heapAlloc() uint64 {
	metrics.Read(r.s[:1])
	return r.s[0].Value.Uint64()
}

// gcCPU returns the cumulative CPU time spent in the garbage collector,
// as the runtime estimates it.
func (r *runtimeSamples) gcCPU() time.Duration {
	metrics.Read(r.s[1:])
	return time.Duration(r.s[1].Value.Float64() * float64(time.Second))
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// setupModel is the model zoo-cold's set-up profiles on every platform
// that supports it, as `proof -model resnet-50 -all-platforms` does:
// a mid-size CNN, so every runtime's first-use work is included.
const setupModel = "resnet-50"

// setupProbe is the child side of in-process set-up timing: it runs
// the named workload's path to its first results in a fresh process,
// says so and exits. The parent takes the probe's CPU time from exec to
// exit, so package initialization (model zoo, platform and backend
// registries) and any work done lazily on first use are part of set-up:
//
//   - zoo-cold: time to the first profiles, one ProfileCtx call for
//     setupModel on each platform that supports it;
//   - paper-regen: time to the first tables, Tables 2 and 3 from an
//     empty session, rendered (Table 3 builds every Table 3 model).
func setupProbe(workload string) int {
	switch workload {
	case "zoo-cold":
		n := 0
		for _, p := range zooPoints() {
			if p.model.Key != setupModel {
				continue
			}
			if _, err := core.ProfileCtx(context.Background(), zooOptions(p, 1)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			n++
		}
		if n == 0 {
			return 1
		}
	case "paper-regen":
		experiments.ResetSession()
		rows, err := experiments.Table3()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(experiments.FormatTable2(experiments.Table2()))+len(experiments.FormatTable3(rows)) == 0 {
			return 1
		}
	default:
		return 2
	}
	fmt.Println("ready")
	return 0
}

// measureInProcessSetup runs setupRuns fresh processes of this binary
// through the set-up probe and returns the median of their CPU times
// in seconds, from exec to exit.
func measureInProcessSetup(workload string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(self, "-setup-probe", workload)
		out, err := cmd.Output()
		if err != nil || string(out) != "ready\n" {
			return 0, fmt.Errorf("setup probe for %s: %q, %v", workload, out, err)
		}
		ps := cmd.ProcessState
		secs = append(secs, (ps.UserTime() + ps.SystemTime()).Seconds())
	}
	return quantile(secs, 0.5), nil
}

// schedCPU returns another process's CPU time so far at nanosecond
// resolution: the sum of its threads' on-CPU time from
// /proc/<pid>/task/*/schedstat. (/proc/<pid>/stat counts in 10 ms
// ticks, too coarse for a set-up of a few hundred milliseconds.) Go's
// runtime keeps its threads until the process exits (only a goroutine
// that exits locked to its thread ends one, and proofd locks none), so
// summing the live threads loses no time.
func schedCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}
