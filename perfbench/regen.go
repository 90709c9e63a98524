package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"proof/internal/core"
	"proof/internal/dataviewer"
	"proof/internal/experiments"
	"proof/internal/power"
)

// paperBatch is the evaluation batch `experiments -run all` uses where
// the paper does not give one per experiment.
const paperBatch = 128

// regenOutput holds one regeneration's structured results, for checking.
type regenOutput struct {
	table2   []experiments.Table2Row
	table3   []experiments.Table3Row
	table4   []experiments.Table4Row
	perLayer []experiments.PerLayerAccuracy
	figure4  []*experiments.Figure4Series
	figure5  map[string]*core.Report
	table5   []experiments.Table5Row
	figure6  *experiments.Figure6Result
	table6   []power.PeakRow
	table7   []experiments.Table7Row
	tune     *power.TuneResult
	figure8  *experiments.Figure8Result
	// text is every rendered table, summary and SVG chart.
	text int
}

// regenTimes splits one regeneration by experiment.
type regenTimes struct {
	figure4, table4, table7, total time.Duration
}

// regenerate produces every table and figure of `experiments -run all`
// from an empty profiling session: the same calls in the same order,
// including the text renderings and the SVG charts (which the command
// renders even without -outdir).
func regenerate(ctx context.Context) (*regenOutput, regenTimes, error) {
	var t regenTimes
	out := &regenOutput{}
	var sb strings.Builder
	start := time.Now()
	experiments.ResetSession()

	out.table2 = experiments.Table2()
	sb.WriteString(experiments.FormatTable2(out.table2))
	var err error
	if out.table3, err = experiments.Table3(); err != nil {
		return nil, t, fmt.Errorf("table3: %w", err)
	}
	sb.WriteString(experiments.FormatTable3(out.table3))
	t0 := time.Now()
	if out.table4, err = experiments.Table4WithBatchCtx(ctx, paperBatch); err != nil {
		return nil, t, fmt.Errorf("table4: %w", err)
	}
	sb.WriteString(experiments.FormatTable4(out.table4))
	t.table4 = time.Since(t0)
	if out.perLayer, err = experiments.PerLayerTable4Ctx(ctx, paperBatch); err != nil {
		return nil, t, fmt.Errorf("table4layers: %w", err)
	}
	sb.WriteString(experiments.FormatPerLayerTable4(out.perLayer))

	t0 = time.Now()
	if out.figure4, err = experiments.Figure4AllCtx(ctx); err != nil {
		return nil, t, fmt.Errorf("figure4: %w", err)
	}
	for _, s := range out.figure4 {
		sb.WriteString(experiments.FormatFigure4(s))
		sb.WriteString(dataviewer.MultiModelRooflineSVG(s.Model, s.Points,
			fmt.Sprintf("Figure 4: end-to-end roofline on %s", s.Platform)))
	}
	t.figure4 = time.Since(t0)

	if out.figure5, err = experiments.Figure5(paperBatch); err != nil {
		return nil, t, fmt.Errorf("figure5: %w", err)
	}
	sb.WriteString(experiments.FormatFigure5(out.figure5))
	for key, r := range out.figure5 {
		sb.WriteString(dataviewer.RooflineSVG(r.Roofline, experiments.Figure6Points(r),
			dataviewer.ChartOptions{Title: "Figure 5: " + key + " layer-wise roofline (A100)"}))
	}
	if out.table5, err = experiments.Table5(nil); err != nil {
		return nil, t, fmt.Errorf("table5: %w", err)
	}
	sb.WriteString(experiments.FormatTable5(out.table5))
	if out.figure6, err = experiments.Figure6(2048); err != nil {
		return nil, t, fmt.Errorf("figure6: %w", err)
	}
	f6 := out.figure6
	sb.WriteString(experiments.FormatFigure6(f6))
	for _, r := range []*core.Report{f6.Original, f6.Modified} {
		pts := experiments.Figure6Points(r)
		sb.WriteString(dataviewer.RooflineSVG(r.Roofline, pts, dataviewer.ChartOptions{Title: "Figure 6: " + r.Model}))
		sb.WriteString(dataviewer.LatencyHistogramSVG(pts, "ai", "Figure 6: latency vs arithmetic intensity", 0, 0))
	}
	if out.table6, err = experiments.Table6Ctx(ctx); err != nil {
		return nil, t, fmt.Errorf("table6: %w", err)
	}
	sb.WriteString(experiments.FormatTable6(out.table6))

	t0 = time.Now()
	if out.table7, out.tune, err = experiments.Table7(paperBatch); err != nil {
		return nil, t, fmt.Errorf("table7: %w", err)
	}
	sb.WriteString(experiments.FormatTable7(out.table7))
	t.table7 = time.Since(t0)

	if out.figure8, err = experiments.Figure8(paperBatch); err != nil {
		return nil, t, fmt.Errorf("figure8: %w", err)
	}
	sb.WriteString(experiments.FormatFigure8(out.figure8))
	sb.WriteString(dataviewer.RooflineSVG(out.figure8.Report.Roofline, experiments.Figure6Points(out.figure8.Report),
		dataviewer.ChartOptions{Title: "Figure 8", ExtraBWLines: out.figure8.BWLines}))
	out.text = sb.Len()
	t.total = time.Since(start)
	return out, t, nil
}

// checkRegen compares one regeneration with the paper's published
// values, within the tolerances internal/experiments and
// internal/hardware/characterize assert, and runs the report checker
// over every full report the regeneration returns.
func checkRegen(o *regenOutput) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	within := func(got, want, tol float64) bool { return math.Abs(got/want-1) <= tol }

	if len(o.table2) != 7 {
		fail("table2: %d platforms, want 7", len(o.table2))
	}
	if len(o.table3) != 20 {
		fail("table3: %d models, want 20", len(o.table3))
	}
	for _, r := range o.table3 {
		if !within(r.ParamsM, r.PaperParamsM, 0.15) || !within(r.GFLOP, r.PaperGFLOP, 0.10) {
			fail("table3: %s has %.1fM params / %.3f GFLOP, paper %.1fM / %.3f", r.Name, r.ParamsM, r.GFLOP, r.PaperParamsM, r.PaperGFLOP)
		}
	}

	if len(o.table4) != 5 {
		fail("table4: %d models, want 5", len(o.table4))
	}
	t4 := map[string]experiments.Table4Row{}
	for _, r := range o.table4 {
		t4[r.Model] = r
		if math.Abs(r.MemoryDiff) > 0.12 {
			fail("table4: %s memory prediction off by %+.1f%%, tolerance 12%%", r.Model, r.MemoryDiff*100)
		}
	}
	if t4["mobilenetv2-1.0"].FLOPDiff > -0.05 || t4["efficientnetv2-s"].FLOPDiff > -0.03 ||
		t4["vit-t"].FLOPDiff < 0 || t4["resnet-50"].FLOPDiff < -0.15 || t4["resnet-50"].FLOPDiff > 0.05 {
		fail("table4: FLOP diff signs differ from the paper's")
	}
	for _, r := range o.perLayer {
		if r.Layers == 0 || r.MemoryErrP50 > 0.10 || r.MemoryErrP90 > 0.25 {
			fail("table4layers: %s has %d layers, memory error p50 %.1f%% p90 %.1f%%", r.Model, r.Layers, r.MemoryErrP50*100, r.MemoryErrP90*100)
		}
	}

	checkFigure4(o.figure4, fail)

	if len(o.figure5) != 4 {
		fail("figure5: %d reports, want 4", len(o.figure5))
	} else {
		if o.figure5["vit-t"].Mode != core.ModePredicted || o.figure5["resnet-50"].Mode != core.ModeMeasured {
			fail("figure5: vit-t must use predicted and resnet-50 measured mode")
		}
		if o.figure5["efficientnetv2-t"].EndToEnd.FLOPS <= o.figure5["efficientnet-b4"].EndToEnd.FLOPS {
			fail("figure5: EfficientNetV2-T should attain more FLOP/s than EfficientNet B4")
		}
		var matmul float64
		for _, l := range o.figure5["vit-t"].Layers {
			if l.Category == "matmul" {
				matmul += l.Point.Share
			}
		}
		if matmul < 0.4 {
			fail("figure5: ViT matmul latency share %.2f, should dominate", matmul)
		}
	}

	speedup := map[int]float64{}
	for _, r := range o.table5 {
		if r.Model == "shufflenetv2-1.0-mod" {
			speedup[r.Batch] = r.Speedup
			if r.Speedup < 1.2 || r.Speedup > 2.2 {
				fail("table5: batch %d speedup %.2fx, paper 1.39-1.64x", r.Batch, r.Speedup)
			}
		}
	}
	if len(o.table5) != 6 || !(speedup[2048] > speedup[1]) {
		fail("table5: %d rows, speedups %v should grow with batch", len(o.table5), speedup)
	}

	orig, mod := experiments.DataMovementShare(o.figure6.Original), experiments.DataMovementShare(o.figure6.Modified)
	if orig < 0.35 || mod >= orig/1.5 || experiments.ConvShare(o.figure6.Original) > 0.6 {
		fail("figure6: data movement %.2f -> %.2f, conv share %.2f", orig, mod, experiments.ConvShare(o.figure6.Original))
	}

	if len(o.table6) != len(experiments.Table6Paper) {
		fail("table6: %d rows, want %d", len(o.table6), len(experiments.Table6Paper))
	}
	for i, r := range o.table6 {
		if i >= len(experiments.Table6Paper) {
			break
		}
		ref := experiments.Table6Paper[i]
		if !within(r.FLOPS/1e12, ref[0], 0.05) || !within(r.BW/1e9, ref[1], 0.05) || !within(r.PowerW, ref[2], 0.10) {
			fail("table6: row %d %.3f TFLOP/s %.3f GB/s %.1f W, paper %.3f %.3f %.1f",
				i+1, r.FLOPS/1e12, r.BW/1e9, r.PowerW, ref[0], ref[1], ref[2])
		}
	}

	checkTable7(o.table7, o.tune, fail)

	f8 := o.figure8
	cs := experiments.ConvShare(f8.Report)
	var a2133, a665 float64
	for _, a := range f8.EMCAnalyses {
		switch a.EMCMHz {
		case 2133:
			a2133 = a.AffectedShare
		case 665:
			a665 = a.AffectedShare
		}
	}
	if len(f8.BWLines) != 2 || cs < 0.45 || cs > 0.9 || a2133 > 0.45 || a665 < 0.5 {
		fail("figure8: %d lines, conv share %.2f, share above EMC 2133 %.2f, above 665 %.2f", len(f8.BWLines), cs, a2133, a665)
	}

	reports := []*core.Report{o.figure6.Original, o.figure6.Modified, f8.Report}
	for _, r := range o.figure5 {
		reports = append(reports, r)
	}
	for _, r := range reports {
		bad = append(bad, checkReport(r, nil, 0)...)
	}
	if o.text == 0 {
		fail("nothing rendered")
	}
	return bad
}

// checkFigure4 asserts §4.3's shape of the end-to-end rooflines.
func checkFigure4(series []*experiments.Figure4Series, fail func(string, ...any)) {
	byPlat := map[string]*experiments.Figure4Series{}
	for _, s := range series {
		byPlat[s.Platform] = s
	}
	flops := func(s *experiments.Figure4Series, key string) float64 {
		for _, p := range s.Points {
			if strings.HasSuffix(p.Name, " "+key) {
				return p.FLOPS
			}
		}
		return 0
	}
	a100, rpi, npu := byPlat["a100"], byPlat["rpi4b"], byPlat["npu3720"]
	if len(series) != 7 || a100 == nil || rpi == nil || npu == nil {
		fail("figure4: %d platform series", len(series))
		return
	}
	memBound, overHalf := 0, 0
	for _, p := range a100.Points {
		if p.Bound == "memory" {
			memBound++
		}
		if p.FLOPS > a100.Model.TheoreticalFLOPS/2 {
			overHalf++
		}
		if p.FLOPS > a100.Model.PeakFLOPS*1.05 {
			fail("figure4: %s attains %.3g FLOP/s, above the A100 ceiling", p.Name, p.FLOPS)
		}
	}
	if len(a100.Points) != 20 || memBound < 10 || overHalf == 0 || overHalf > 8 {
		fail("figure4: A100 has %d points, %d memory-bound, %d above half peak", len(a100.Points), memBound, overHalf)
	}
	if flops(a100, "resnet-50") <= flops(a100, "mobilenetv2-1.0") ||
		flops(a100, "efficientnetv2-t") <= flops(a100, "efficientnet-b4") {
		fail("figure4: A100 efficiency ordering differs from §4.3/§4.4")
	}
	if flops(a100, "resnet-50") < 100*flops(rpi, "resnet-50") {
		fail("figure4: A100 should attain 100x the Raspberry Pi on ResNet-50")
	}
	for _, p := range rpi.Points {
		if strings.Contains(p.Name, "vit") || strings.Contains(p.Name, "swin") || strings.Contains(p.Name, "sd-unet") {
			fail("figure4: edge platform runs %s", p.Name)
		}
	}
	if len(npu.Points) == 0 || len(npu.Points) >= 20 {
		fail("figure4: NPU runs %d models, the paper a small portion", len(npu.Points))
	}
}

// checkTable7 asserts §4.6's power-tuning result.
func checkTable7(rows []experiments.Table7Row, tune *power.TuneResult, fail func(string, ...any)) {
	var ours, maxn experiments.Table7Row
	for _, r := range rows {
		switch r.Profile {
		case "optimal (ours)":
			ours = r
		case `stock "MAXN"`:
			maxn = r
		}
	}
	if len(rows) != 10 || ours.PowerW > 15 || maxn.PowerW <= 15 || maxn.Latency >= ours.Latency {
		fail("table7: %d rows, tuned %.1f W %v, MAXN %.1f W %v", len(rows), ours.PowerW, ours.Latency, maxn.PowerW, maxn.Latency)
	}
	for _, r := range rows {
		if r.Profile != ours.Profile && r.PowerW <= 15 && r.Latency < ours.Latency {
			fail("table7: %q fits the 15 W budget and beats the tuned profile", r.Profile)
		}
	}
	if tune.ChosenEMCMHz != 2133 {
		fail("table7: tuning chose EMC %d MHz, paper 2133", tune.ChosenEMCMHz)
	}
}

// runRegen regenerates the paper's evaluation repeatedly. One untimed
// regeneration comes first, so process-wide lazy set-up is not timed;
// every timed regeneration starts from an empty session.
func runRegen(cfg config) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	var setup float64
	if !cfg.trace {
		var err error
		if setup, err = measureInProcessSetup("paper-regen"); err != nil {
			return nil, err
		}
	}
	// regen returns the regeneration's times and session misses (the
	// session's counters survive ResetSession, so this is a difference).
	regen := func() (regenTimes, int64, bool) {
		m0 := experiments.SessionStats().Misses
		o, t, err := regenerate(ctx)
		if err != nil {
			out.problem("%v", err)
			return t, 0, false
		}
		for _, msg := range checkRegen(o) {
			out.problem("%s", msg)
		}
		return t, experiments.SessionStats().Misses - m0, true
	}
	regen()

	rs := newRuntimeSamples()
	var lat []float64
	var busy, cpu, gc, fig4, tab4, tab7 time.Duration
	var alloc uint64
	var misses int64
	start := time.Now()
	for time.Since(start) < cfg.duration {
		c0, a0, g0 := cpuTime(), rs.heapAlloc(), rs.gcCPU()
		t, m, ok := regen()
		a1, c1, g1 := rs.heapAlloc(), cpuTime(), rs.gcCPU()
		out.attempted++
		if !ok {
			out.failed++
			out.failures["regeneration"]++
			continue
		}
		lat = append(lat, ms(t.total))
		busy += t.total
		cpu += c1 - c0
		alloc += a1 - a0
		gc += g1 - g0
		fig4 += t.figure4
		tab4 += t.table4
		tab7 += t.table7
		misses += m
	}
	n := float64(len(lat))
	if n == 0 {
		return nil, fmt.Errorf("paper-regen: no regeneration succeeded")
	}
	if cfg.trace {
		out.metrics["experiments.figure4_ms"] = ms(fig4) / n
		out.metrics["experiments.table4_ms"] = ms(tab4) / n
		out.metrics["experiments.table7_ms"] = ms(tab7) / n
		out.metrics["experiments.rest_ms"] = ms(busy-fig4-tab4-tab7) / n
		out.metrics["experiments.session_misses"] = float64(misses) / n
		out.metrics["runtime.gc_cpu_ms"] = ms(gc) / n
		return out, nil
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup
	out.metrics["op_p50_ms"] = quantile(lat, 0.5)
	out.metrics["ops_per_s"] = n / busy.Seconds()
	out.metrics["cpu_ms_per_op"] = ms(cpu) / n
	out.metrics["alloc_kb_per_op"] = float64(alloc) / 1024 / n
	out.metrics["peak_rss_mb"] = rss
	return out, nil
}
