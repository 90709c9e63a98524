package main

import (
	"fmt"
	"math"
	"time"

	"proof/internal/core"
)

// table3Tolerance is how far a Table 3 model's profiled FLOP per sample
// may sit from the paper's published GFLOP.
const table3Tolerance = 0.05

// checkReport verifies the invariants every profiling report must hold,
// whatever produced it (core.ProfileCtx in-process or a proofd answer).
// nodes, when non-nil, is the exact set of original node names the
// model has; paperGFLOP, when positive, is the paper's Table 3 GFLOP
// per sample for the model. It returns one line per violation.
//
// There is deliberately no "attained <= ceiling" check: the simulator's
// run-to-run jitter puts some predicted-mode matmul layers slightly
// above the compute ceiling (up to 1.06x on rpi4b), which is modelled
// behaviour, not a defect.
func checkReport(r *core.Report, nodes map[string]bool, paperGFLOP float64) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s/%s: ", r.Model, r.Platform)+fmt.Sprintf(format, args...))
	}

	if r.NodeCount < 0 || r.Batch <= 0 || r.TotalLatency < 0 ||
		r.EndToEnd.FLOP < 0 || r.EndToEnd.Bytes < 0 || r.EndToEnd.Latency < 0 {
		fail("negative or zero count: nodes %d, batch %d, total %d ns, flop %d, bytes %d",
			r.NodeCount, r.Batch, r.TotalLatency, r.EndToEnd.FLOP, r.EndToEnd.Bytes)
	}

	mapped := make(map[string]bool, r.NodeCount)
	var latency time.Duration
	var flop int64
	for _, l := range r.Layers {
		p := l.Point
		if p.FLOP < 0 || p.Bytes < 0 || p.Latency < 0 {
			fail("layer %s has a negative count: flop %d, bytes %d, latency %d ns", l.Name, p.FLOP, p.Bytes, p.Latency)
		}
		latency += p.Latency
		flop += p.FLOP
		for _, n := range l.OriginalNodes {
			if mapped[n] {
				fail("node %s is mapped to more than one layer", n)
			}
			if nodes != nil && !nodes[n] {
				fail("layer %s maps node %s, which the model does not have", l.Name, n)
			}
			mapped[n] = true
		}
		if len(l.Kernels) > 0 {
			var k time.Duration
			for _, kr := range l.Kernels {
				if kr.Latency < 0 {
					fail("kernel %s of layer %s has negative latency", kr.Name, l.Name)
				}
				k += kr.Latency
			}
			// Each kernel's share is truncated to whole nanoseconds.
			if d := p.Latency - k; d < 0 || d > time.Duration(len(l.Kernels)) {
				fail("layer %s kernels sum to %d ns, layer latency is %d ns", l.Name, k, p.Latency)
			}
		}
	}
	if len(mapped) != r.NodeCount {
		fail("%d distinct nodes mapped, node_count is %d", len(mapped), r.NodeCount)
	}
	if nodes != nil && len(nodes) != r.NodeCount {
		fail("node_count %d, the model has %d nodes", r.NodeCount, len(nodes))
	}
	if latency != r.TotalLatency {
		fail("layer latencies sum to %d ns, total_latency_ns is %d", latency, r.TotalLatency)
	}
	if flop != r.EndToEnd.FLOP {
		fail("layer FLOP sums to %d, end_to_end.flop is %d", flop, r.EndToEnd.FLOP)
	}
	if paperGFLOP > 0 && r.Batch > 0 {
		perSample := float64(r.EndToEnd.FLOP) / float64(r.Batch) / 1e9
		if rel := perSample/paperGFLOP - 1; math.Abs(rel) > table3Tolerance {
			fail("%.3f GFLOP per sample, paper Table 3 has %.3f (%+.1f%%)", perSample, paperGFLOP, rel*100)
		}
	}
	return bad
}
