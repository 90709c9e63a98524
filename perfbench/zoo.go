package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"time"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/graphops"
	"proof/internal/hardware"
	"proof/internal/models"
	"proof/internal/roofline"
)

// zooPoint is one (model, platform) pair of the zoo-cold sweep.
type zooPoint struct {
	model models.Info
	plat  *hardware.Platform
}

// zooPoints lists every zoo model on every platform that supports its
// family: 151 points, 100 to 1,590 nodes, all three simulated runtimes.
func zooPoints() []zooPoint {
	var pts []zooPoint
	for _, m := range models.List() {
		for _, p := range hardware.List() {
			if p.Supports(m.Type) {
				pts = append(pts, zooPoint{m, p})
			}
		}
	}
	return pts
}

// zooExpect holds what the checker needs per model: its node names
// (built once, outside any timing) and its Table 3 GFLOP.
type zooExpect struct {
	nodes      map[string]bool
	paperGFLOP float64
}

func zooExpectations(pts []zooPoint) (map[string]zooExpect, error) {
	out := map[string]zooExpect{}
	for _, p := range pts {
		if _, ok := out[p.model.Key]; ok {
			continue
		}
		g, err := p.model.Build()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", p.model.Key, err)
		}
		names := make(map[string]bool, len(g.Nodes))
		for _, n := range g.Nodes {
			names[n.Name] = true
		}
		out[p.model.Key] = zooExpect{nodes: names, paperGFLOP: p.model.PaperGFLOP}
	}
	return out, nil
}

// zooRound returns the points in this round's seeded order. Every round
// holds each point exactly once, so a run is whole rounds of one mix.
func zooRound(pts []zooPoint, seed uint64, round int) []zooPoint {
	order := append([]zooPoint(nil), pts...)
	rng := rand.New(rand.NewPCG(seed, uint64(round)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func zooOptions(p zooPoint, seed uint64) core.Options {
	return core.Options{Model: p.model.Key, Platform: p.plat.Key, Mode: core.ModePredicted, Seed: seed}
}

// runZoo profiles the zoo sweep cold, one call at a time. One untimed
// round comes first so the heap reaches its working size (traced or
// not); then whole rounds run until the run length is reached. Each
// call is timed on its own, so the report check between calls is not
// counted.
func runZoo(cfg config) (*outcome, error) {
	var setup float64
	if !cfg.trace {
		// Timed first, before the checker's model builds leave garbage
		// that could compete with it.
		var err error
		if setup, err = measureInProcessSetup("zoo-cold"); err != nil {
			return nil, err
		}
	}
	pts := zooPoints()
	expect, err := zooExpectations(pts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rs := newRuntimeSamples()
	out := newOutcome()
	profile := func(p zooPoint) (*core.Report, bool) {
		rep, err := core.ProfileCtx(ctx, zooOptions(p, cfg.seed))
		if err != nil {
			out.problem("%s/%s: %v", p.model.Key, p.plat.Key, err)
			return nil, false
		}
		return rep, true
	}
	check := func(p zooPoint, rep *core.Report) {
		e := expect[p.model.Key]
		for _, msg := range checkReport(rep, e.nodes, e.paperGFLOP) {
			out.problem("%s", msg)
		}
	}

	for _, p := range zooRound(pts, cfg.seed, -1) {
		if rep, ok := profile(p); ok {
			check(p, rep)
		}
	}
	if cfg.trace {
		return runZooTraced(cfg, pts, expect, out)
	}

	var lat []float64
	var busy, cpu time.Duration
	var alloc uint64
	start := time.Now()
	for round := 0; time.Since(start) < cfg.duration; round++ {
		for _, p := range zooRound(pts, cfg.seed, round) {
			c0, a0, t0 := cpuTime(), rs.heapAlloc(), time.Now()
			rep, ok := profile(p)
			wall := time.Since(t0)
			a1, c1 := rs.heapAlloc(), cpuTime()
			out.attempted++
			if !ok {
				out.failed++
				out.failures[p.model.Key+"/"+p.plat.Key]++
				continue
			}
			lat = append(lat, ms(wall))
			busy += wall
			cpu += c1 - c0
			alloc += a1 - a0
			check(p, rep)
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	n := float64(len(lat))
	if n == 0 {
		return nil, fmt.Errorf("zoo-cold: no profile succeeded")
	}
	out.metrics["setup_s"] = setup
	out.metrics["op_p50_ms"] = quantile(lat, 0.5)
	out.metrics["ops_per_s"] = n / busy.Seconds()
	out.metrics["cpu_ms_per_op"] = ms(cpu) / n
	out.metrics["alloc_kb_per_op"] = float64(alloc) / 1024 / n
	out.metrics["peak_rss_mb"] = rss
	return out, nil
}

// Stages of the staged replay, in pipeline order. Each is the time
// spent inside the named module's exported functions.
const (
	stModelsBuild = iota
	stGraphValidate
	stAnalysisRep
	stBackendBuild
	stSimProfile
	stMapLayers
	stLayerCost
	stRoofline
	nStages
)

var stageNames = [nStages]string{
	"models.build", "graph.validate", "analysis.rep", "backend.build",
	"sim.profile", "backend.map_layers", "analysis.layer_cost", "roofline.model",
}

// stageClock accumulates wall time and heap allocation per stage. A nil
// clock records nothing: the replay then runs untraced.
type stageClock struct {
	rs    *runtimeSamples
	ns    [nStages]time.Duration
	alloc [nStages]uint64
	t     time.Time
	a     uint64
}

func (c *stageClock) start() {
	if c == nil {
		return
	}
	c.a = c.rs.heapAlloc()
	c.t = time.Now()
}

// lap closes stage i and opens the next one.
func (c *stageClock) lap(i int) {
	if c == nil {
		return
	}
	now := time.Now()
	a := c.rs.heapAlloc()
	c.ns[i] += now.Sub(c.t)
	c.alloc[i] += a - c.a
	c.a = a
	c.t = time.Now()
}

// mappingSignature hashes each mapped layer's name and original nodes,
// in layer order: equal signatures mean equal layer-to-node mappings.
type mappingSignature struct {
	layers int
	sum    uint64
}

func reportSignature(r *core.Report) mappingSignature {
	h := fnv.New64a()
	for _, l := range r.Layers {
		h.Write([]byte(l.Name))
		for _, n := range l.OriginalNodes {
			h.Write([]byte{0})
			h.Write([]byte(n))
		}
		h.Write([]byte{1})
	}
	return mappingSignature{len(r.Layers), h.Sum64()}
}

// replay runs core.ProfileCtx's predicted-mode pipeline stage by stage
// through the modules' exported functions, timing each stage. It
// returns the mapping signature and the node and layer counts.
func replay(ctx context.Context, p zooPoint, seed uint64, c *stageClock) (mappingSignature, int, int, error) {
	var sig mappingSignature
	plat := p.plat
	dt, batch := plat.DefaultDType, plat.DefaultBatch
	be, err := backend.Get(plat.Runtime)
	if err != nil {
		return sig, 0, 0, err
	}

	c.start()
	g, err := p.model.Build()
	if err != nil {
		return sig, 0, 0, err
	}
	c.lap(stModelsBuild)
	if err := g.Validate(); err != nil {
		return sig, 0, 0, err
	}
	c.lap(stGraphValidate)
	if graphops.IsQuantized(g) {
		dt = graph.Int8
	} else {
		g.ConvertFloatTensors(dt)
	}
	rep, err := analysis.NewRepWithBatch(g, batch)
	if err != nil {
		return sig, 0, 0, err
	}
	c.lap(stAnalysisRep)
	eng, err := be.Build(ctx, rep, backend.Config{Platform: plat, DType: dt, Batch: batch})
	if err != nil {
		return sig, 0, 0, err
	}
	c.lap(stBackendBuild)
	prof, err := eng.Profile(seed)
	if err != nil {
		return sig, 0, 0, err
	}
	eng.TimingsInto(nil, seed)
	c.lap(stSimProfile)
	opt := analysis.NewOptimizedRep(rep)
	mapping, err := be.MapLayers(ctx, eng, opt)
	if err != nil {
		return sig, 0, 0, err
	}
	c.lap(stMapLayers)
	layers := eng.Layers()
	flop := make([]int64, len(layers))
	bytes := make([]int64, len(layers))
	for i, bl := range layers {
		if bl.IsReformat {
			if t := rep.Graph.Tensor(bl.InputTensors[0]); t != nil {
				bytes[i] = 2 * t.Bytes()
			}
			continue
		}
		l := mapping[bl.Name]
		if l == nil {
			return sig, 0, 0, fmt.Errorf("no mapping for backend layer %q", bl.Name)
		}
		cost, err := opt.LayerCost(l)
		if err != nil {
			return sig, 0, 0, err
		}
		flop[i], bytes[i] = cost.FLOP, cost.MemoryBytes()
	}
	c.lap(stLayerCost)
	rl := roofline.NewModel(plat, dt, hardware.Clocks{})
	lw := &roofline.LayerWise{Model: rl, Points: make([]roofline.Point, 0, len(layers))}
	for i, bl := range layers {
		lw.Points = append(lw.Points, roofline.NewPoint(bl.Name, flop[i], bytes[i], prof.LayerLatency[bl.Name], rl))
	}
	lw.FillShares()
	lw.EndToEnd(p.model.Key)
	c.lap(stRoofline)

	h := fnv.New64a()
	for _, bl := range layers {
		h.Write([]byte(bl.Name))
		if l := mapping[bl.Name]; l != nil {
			for _, n := range l.OriginalNodes() {
				h.Write([]byte{0})
				h.Write([]byte(n.Name))
			}
		}
		h.Write([]byte{1})
	}
	return mappingSignature{len(layers), h.Sum64()}, rep.NodeCount(), len(layers), nil
}

// runZooTraced measures the per-layer metrics. For each point of each
// round it times core.ProfileCtx (the reference the stages must cover),
// then the staged replay of the same point with and without the stage
// clock (alternating which goes first), and checks that the replay maps
// the same layers to the same nodes as ProfileCtx.
func runZooTraced(cfg config, pts []zooPoint, expect map[string]zooExpect, out *outcome) (*outcome, error) {
	ctx := context.Background()
	rs := newRuntimeSamples()
	clock := &stageClock{rs: rs}
	var lat []float64
	var refTotal, tracedTotal, plainTotal time.Duration
	var refAlloc uint64
	var nodes, layers, matched int
	timeReplay := func(p zooPoint, c *stageClock, total *time.Duration) (mappingSignature, int, int, error) {
		t0 := time.Now()
		sig, n, l, err := replay(ctx, p, cfg.seed, c)
		*total += time.Since(t0)
		return sig, n, l, err
	}
	gc0, alloc0 := rs.gcCPU(), rs.heapAlloc()
	start := time.Now()
	for round := 0; time.Since(start) < cfg.duration; round++ {
		for i, p := range zooRound(pts, cfg.seed, round) {
			out.attempted++
			a0, t0 := rs.heapAlloc(), time.Now()
			rep, err := core.ProfileCtx(ctx, zooOptions(p, cfg.seed))
			d := time.Since(t0)
			refAlloc += rs.heapAlloc() - a0
			if err != nil {
				out.failed++
				out.failures[p.model.Key+"/"+p.plat.Key]++
				continue
			}
			refTotal += d
			lat = append(lat, ms(d))
			e := expect[p.model.Key]
			for _, msg := range checkReport(rep, e.nodes, e.paperGFLOP) {
				out.problem("%s", msg)
			}

			if i%2 == 1 {
				if _, _, _, err := timeReplay(p, nil, &plainTotal); err != nil {
					out.problem("%s/%s: replay: %v", p.model.Key, p.plat.Key, err)
				}
			}
			sig, n, l, err := timeReplay(p, clock, &tracedTotal)
			if err != nil {
				out.problem("%s/%s: replay: %v", p.model.Key, p.plat.Key, err)
				continue
			}
			if i%2 == 0 {
				if _, _, _, err := timeReplay(p, nil, &plainTotal); err != nil {
					out.problem("%s/%s: replay: %v", p.model.Key, p.plat.Key, err)
				}
			}
			if want := reportSignature(rep); sig != want {
				out.problem("%s/%s: replay maps %d layers (signature %x), ProfileCtx %d (%x)",
					p.model.Key, p.plat.Key, sig.layers, sig.sum, want.layers, want.sum)
			} else {
				matched++
			}
			nodes += n
			layers += l
		}
	}
	gc, alloc := rs.gcCPU()-gc0, rs.heapAlloc()-alloc0
	n := float64(len(lat))
	if n == 0 {
		return nil, fmt.Errorf("zoo-cold: no profile succeeded")
	}
	var staged time.Duration
	for i, name := range stageNames {
		out.metrics[name+"_ms"] = ms(clock.ns[i]) / n
		staged += clock.ns[i]
		if i <= stMapLayers {
			out.metrics[name+"_alloc_kb"] = float64(clock.alloc[i]) / 1024 / n
		}
	}
	coverage := 100 * staged.Seconds() / refTotal.Seconds()
	out.metrics["core.unattributed_ms"] = ms(refTotal-staged) / n
	out.metrics["core.stage_coverage_pct"] = coverage
	if coverage < 90 {
		out.problem("the stages cover %.1f%% of ProfileCtx time, below 90%%", coverage)
	}
	out.metrics["trace.overhead_pct"] = 100 * (tracedTotal.Seconds()/plainTotal.Seconds() - 1)
	fmt.Fprintf(os.Stderr, "staged replay: same layer count and mapped node sets as ProfileCtx on %d of %d profiles; "+
		"stages cover %.1f%% of ProfileCtx time; the stage clock adds %+.2f%% to the replay\n",
		matched, len(lat), coverage, out.metrics["trace.overhead_pct"])
	// GC CPU is shared between ProfileCtx, the two replays and the
	// checker by the heap bytes each allocated; ProfileCtx's share is
	// reported per profile.
	out.metrics["runtime.gc_cpu_ms"] = ms(gc) * float64(refAlloc) / float64(alloc) / n
	out.metrics["graph.nodes"] = float64(nodes) / n
	out.metrics["backend.layers"] = float64(layers) / n
	if p90, ok := tailQuantile(lat, 0.9); ok {
		out.metrics["op_p90_ms"] = p90
	}
	return out, nil
}
