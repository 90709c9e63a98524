package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"proof/internal/core"
	"proof/internal/models"
)

// The per-client round of proofd-mix. Every client round holds the same
// operations in a seeded order, so a run's mix (and with it the failed
// share of the two named faults) does not depend on its seed or length.
// The shares follow the repository's hot-key load scenario
// (internal/workload, builtin "hot-key"): hot configurations take 90%
// of profile traffic, and 1% of requests may fail within its error
// budget, about the share the named faults get here.
const (
	// hotRepeats is asks per hot configuration per round, all cache
	// hits: 8 × 112 = 896 of the round's 996 profile requests (89.96%;
	// the other 100 are the misses listed in round).
	hotRepeats = 112
	// historyHits is history reads per hot configuration per round: 16
	// reads beside the round's 100 history writes, enough for a median
	// read latency from every run.
	historyHits = 2
	// faultStride puts a named fault before every 100th operation: 11
	// of the round's 1,023 requests (1.08%). Pre-warmed, the faults are
	// session hits; each client touches each fault within every
	// 2*faultStride of its operations, during which the two clients
	// insert about 40 other configurations, far below the 256-report
	// default capacity, so they never leave the session cache and
	// their outcome never varies.
	faultStride = 100
)

// hotSet are the pre-warmed configurations, fixed so that every seed
// serves the same hit mix: one per platform and runtime, CNNs and
// transformers, small and large reports.
var hotSet = []string{
	"resnet-50/a100", "vit-t/a100", "bert-base/rtx4090", "distilbert/xeon-6330",
	"mobilenetv2-1.0/orin-nx", "efficientnet-b0/xavier-nx", "shufflenetv2-1.0/rpi4b", "resnet-34/npu3720",
}

// Named faults: requests outside the input domain that proofd answers
// with a report today. The correct answer to both is a 4xx.
var namedFaults = []struct{ name, body string }{
	{"F1 bert-base/a100 batch 2^31-1 accepted", `{"model":"bert-base","platform":"a100","batch":2147483647}`},
	{"F2 orin-nx gpu_clock_mhz -5 accepted", `{"model":"resnet-50","platform":"orin-nx","gpu_clock_mhz":-5}`},
}

// inlineModels are the zoo models sent as inline graphs, each on two
// hot-set platforms per round (small models: the body must stay well
// under proofd's 1 MiB cap).
var inlineModels = []string{"resnet-18", "mobilenetv2-0.5", "resnet-34", "shufflenetv2-1.0-mod"}

// op is one request of the schedule with what its answer must satisfy.
type op struct {
	kind   string // warm, hot, unique, pair0, pairN, inline, history, fault
	method string
	path   string
	body   []byte
	// expect is the X-Cache outcome the schedule predicts ("" = none).
	expect string
	// model and platform are the history filter (history ops) or the
	// configuration (profile ops).
	model, platform string
	// key names a hot configuration, for the byte-identity check.
	key   string
	fault string
}

// mixPlan is everything the schedule draws from, fixed per run.
type mixPlan struct {
	seed uint64
	// shares splits the zoo points between the clients: together the
	// clients' rounds cover every point, and each share has the same
	// length, so every client round holds the same number of requests.
	shares [][]zooPoint
	hot    []zooPoint
	inline map[string]json.RawMessage
	expect map[string]zooExpect // zoo and inline models by key
}

func newMixPlan(seed uint64, clients int) (*mixPlan, error) {
	pts := zooPoints()
	expect, err := zooExpectations(pts)
	if err != nil {
		return nil, err
	}
	p := &mixPlan{seed: seed, shares: make([][]zooPoint, clients), inline: map[string]json.RawMessage{}, expect: expect}
	// Point i goes to client i mod clients (the zoo lists each model's
	// platforms together, so every share gets a slice of every model);
	// a short share is padded from the start of the zoo.
	for i, pt := range pts {
		p.shares[i%clients] = append(p.shares[i%clients], pt)
	}
	for c := range p.shares {
		for i := 0; len(p.shares[c]) < len(p.shares[0]); i++ {
			p.shares[c] = append(p.shares[c], pts[i])
		}
	}
	for _, key := range hotSet {
		i := slices.IndexFunc(pts, func(pt zooPoint) bool { return pt.model.Key+"/"+pt.plat.Key == key })
		if i < 0 {
			return nil, fmt.Errorf("hot configuration %s is not a zoo point", key)
		}
		p.hot = append(p.hot, pts[i])
	}
	for _, key := range inlineModels {
		info, ok := models.Lookup(key)
		if !ok {
			return nil, fmt.Errorf("inline model %s is not in the zoo", key)
		}
		g, err := info.Build()
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		p.inline[key] = raw
		names := make(map[string]bool, len(g.Nodes))
		for _, n := range g.Nodes {
			names[n.Name] = true
		}
		p.expect[key] = zooExpect{nodes: names, paperGFLOP: info.PaperGFLOP}
	}
	return p, nil
}

func profileOp(kind string, body map[string]any, model, platform, expect string) op {
	raw, _ := json.Marshal(body) // maps of strings and numbers always encode
	return op{kind: kind, method: http.MethodPost, path: "/v1/profile", body: raw,
		expect: expect, model: model, platform: platform}
}

func hotOp(p zooPoint) op {
	o := profileOp("hot", map[string]any{"model": p.model.Key, "platform": p.plat.Key}, p.model.Key, p.plat.Key, "hit")
	o.key = p.model.Key + "/" + p.plat.Key
	return o
}

// round builds one client's operations for one round, in seeded order:
//
//   - each zoo point of the client's share once, at a seeded batch:
//     misses through memo and the pipeline;
//   - each hot configuration hotRepeats times: hits;
//   - each hot configuration as a batch-0 / explicit-default-batch pair,
//     back to back: two session misses, the second a memo plan hit;
//   - each inline model on two platforms: misses;
//   - historyHits history reads per hot configuration, half filtered by
//     model and platform, half by model;
//   - F1 and F2, alternately before every faultStride-th operation.
//
// The batches of the unique misses are drawn uniformly from 1, 2, 8 and
// 32, an assumed spread over the small end of core.DefaultBatchCandidates
// (serving batches; the paper's large batches are paper-regen's).
//
// Every configuration asked for once carries a seed unique to (client,
// round, slot), so no two clients ever ask for the same uncached
// configuration at once.
func (p *mixPlan) round(client, round int) []op {
	rng := rand.New(rand.NewPCG(p.seed, uint64(client)<<32|uint64(round)))
	slot := 0
	uniq := func() uint64 {
		slot++
		return uint64(client)<<40 | uint64(round)<<16 | uint64(slot)
	}

	var units [][]op
	for _, pt := range p.shares[client] {
		body := map[string]any{"model": pt.model.Key, "platform": pt.plat.Key,
			"batch": []int{1, 2, 8, 32}[rng.IntN(4)], "seed": uniq()}
		units = append(units, []op{profileOp("unique", body, pt.model.Key, pt.plat.Key, "miss")})
	}
	for i, h := range p.hot {
		for r := 0; r < hotRepeats; r++ {
			units = append(units, []op{hotOp(h)})
		}
		m, pl := h.model.Key, h.plat.Key
		s := uniq()
		units = append(units, []op{
			profileOp("pair0", map[string]any{"model": m, "platform": pl, "seed": s}, m, pl, "miss"),
			profileOp("pairN", map[string]any{"model": m, "platform": pl, "batch": h.plat.DefaultBatch, "seed": s}, m, pl, "miss"),
		})
		key := inlineModels[i%len(inlineModels)]
		in := map[string]any{"graph": p.inline[key], "platform": pl, "seed": uniq()}
		units = append(units, []op{profileOp("inline", in, key, pl, "miss")})
		for j := 0; j < historyHits; j++ {
			q := url.Values{"model": {m}, "limit": {"50"}}
			if j%2 == 0 {
				q.Set("platform", pl)
				q.Set("limit", "20")
			}
			units = append(units, []op{{kind: "history", method: http.MethodGet, path: "/v1/history?" + q.Encode(),
				model: m, platform: q.Get("platform")}})
		}
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	var ops []op
	for _, u := range units {
		for _, o := range u {
			if len(ops)%faultStride == 0 {
				f := namedFaults[len(ops)/faultStride%len(namedFaults)]
				ops = append(ops, op{kind: "fault", method: http.MethodPost, path: "/v1/profile", body: []byte(f.body), fault: f.name})
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// proofdProc is one running proofd.
type proofdProc struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	debug string // http://127.0.0.1:port of the debug listener
	dir   string // history store directory
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startProofd starts proofd with its deployed defaults plus a history
// store in a fresh directory, and returns once /healthz answers 200.
// The debug listener serves runtime MemStats for alloc_kb_per_op; it
// is idle otherwise.
func startProofd(bin, tmp string, hc *http.Client) (*proofdProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "proofd-store-")
	if err != nil {
		return nil, err
	}
	p := &proofdProc{
		base:  fmt.Sprintf("http://127.0.0.1:%d", port),
		debug: fmt.Sprintf("http://127.0.0.1:%d", dport),
		dir:   dir,
	}
	p.cmd = exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport), "-store-dir", dir)
	// Should the benchmark itself be killed, proofd goes with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Since(start) > 20*time.Second {
			p.stop()
			return nil, fmt.Errorf("proofd did not become healthy: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop drains proofd with SIGTERM, waits for it to exit (killing it if
// the drain hangs) and removes its store.
func (p *proofdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
	os.RemoveAll(p.dir)
}

// scrape reads proofd's /metrics into series → value.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

var totalAllocRE = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)$`)

// totalAlloc reads proofd's cumulative heap allocation from the MemStats
// trailer of the debug listener's allocation profile.
func totalAlloc(hc *http.Client, debug string) (uint64, error) {
	resp, err := hc.Get(debug + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := totalAllocRE.FindSubmatch(raw)
	if m == nil {
		return 0, fmt.Errorf("no TotalAlloc in proofd's allocation profile")
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

// sample is one answered request.
type sample struct {
	kind   string
	ms     float64
	status int
	cache  string
	size   int
}

// mixClient is one closed-loop caller: it sends its next request only
// after the previous answer is read and checked.
type mixClient struct {
	hc      *http.Client
	base    string
	plan    *mixPlan
	hotHash map[string][32]byte // read-only after warm-up
	out     *outcome            // own outcome; merged after the run
	samples []sample
	misses  []answer // answers awaiting the report checker
}

// answer is one profile answer kept for checking.
type answer struct {
	o   op
	raw []byte
}

func (c *mixClient) do(o op) (sample, []byte, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+o.path, body)
	if err != nil {
		return sample{}, nil, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return sample{}, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return sample{}, nil, err
	}
	return sample{kind: o.kind, ms: ms(d), status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), size: len(raw)}, raw, nil
}

// run sends whole rounds, numbered from first, until the deadline has
// passed; it always sends at least one.
func (c *mixClient) run(id, first int, deadline time.Time) {
	for round := first; round == first || time.Now().Before(deadline); round++ {
		for _, o := range c.plan.round(id, round) {
			c.out.attempted++
			s, raw, err := c.do(o)
			if err != nil {
				c.out.failed++
				c.out.failures[o.kind+" transport error"]++
				continue
			}
			c.samples = append(c.samples, s)
			c.judge(o, s, raw)
		}
	}
}

// judge classifies one answer: a named fault fails unless answered 4xx;
// any other unexpected status fails; a wrong body is a problem. Hits are
// compared with their miss body at once; miss bodies are kept for
// checkMisses.
func (c *mixClient) judge(o op, s sample, raw []byte) {
	switch {
	case o.kind == "fault":
		if s.status < 400 || s.status >= 500 {
			c.out.failed++
			c.out.failures[o.fault]++
		}
		return
	case s.status != http.StatusOK:
		c.out.failed++
		c.out.failures[fmt.Sprintf("%s answered %d", o.kind, s.status)]++
		return
	case o.kind == "history":
		c.checkHistory(o, raw)
		return
	}
	if s.cache != o.expect {
		c.out.problem("%s %s/%s: X-Cache %q, schedule predicts %q", o.kind, o.model, o.platform, s.cache, o.expect)
	}
	if o.kind == "hot" {
		if sha256.Sum256(raw) != c.hotHash[o.key] {
			c.out.problem("hit for %s differs from its miss body", o.key)
		}
		return
	}
	c.misses = append(c.misses, answer{o, raw})
}

// warmUp asks every hot configuration and each named fault once and
// returns the hashes of the hot answers: the miss bodies every later
// hit must equal.
func (c *mixClient) warmUp() (map[string][32]byte, error) {
	hash := map[string][32]byte{}
	for _, h := range c.plan.hot {
		o := hotOp(h)
		o.kind, o.expect = "warm", "miss"
		s, raw, err := c.do(o)
		if err != nil || s.status != http.StatusOK {
			return nil, fmt.Errorf("warming %s: status %d, %v", o.key, s.status, err)
		}
		c.judge(o, s, raw)
		hash[o.key] = sha256.Sum256(raw)
	}
	for _, f := range namedFaults {
		if _, _, err := c.do(op{method: http.MethodPost, path: "/v1/profile", body: []byte(f.body)}); err != nil {
			return nil, fmt.Errorf("warming %s: %v", f.name, err)
		}
	}
	return hash, nil
}

// checkMisses runs the report checker over the miss answers judge kept.
// It runs after the measured window: decoding reports is client CPU
// that would otherwise compete with proofd for the two cores.
func (c *mixClient) checkMisses() {
	for _, a := range c.misses {
		var r core.Report
		if err := json.Unmarshal(a.raw, &r); err != nil {
			c.out.problem("%s %s/%s: undecodable report: %v", a.o.kind, a.o.model, a.o.platform, err)
			continue
		}
		e := c.plan.expect[a.o.model]
		for _, msg := range checkReport(&r, e.nodes, e.paperGFLOP) {
			c.out.problem("%s: %s", a.o.kind, msg)
		}
	}
	c.misses = nil
}

func (c *mixClient) checkHistory(o op, raw []byte) {
	var h struct {
		Entries []struct{ Model, Platform string }
		Total   int
		Limit   int
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		c.out.problem("history: undecodable answer: %v", err)
		return
	}
	if len(h.Entries) > h.Limit || h.Total < len(h.Entries) {
		c.out.problem("history: %d entries, limit %d, total %d", len(h.Entries), h.Limit, h.Total)
	}
	for _, e := range h.Entries {
		if e.Model != o.model || (o.platform != "" && e.Platform != o.platform) {
			c.out.problem("history: filter %s/%s returned %s/%s", o.model, o.platform, e.Model, e.Platform)
			return
		}
	}
}

// runProofd drives proofd over loopback with one closed-loop client per
// core (at most two).
func runProofd(cfg config) (*outcome, error) {
	if cfg.proofd == "" {
		return nil, fmt.Errorf("proofd-mix needs --proofd")
	}
	clients := min(2, runtime.NumCPU())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2}}
	defer hc.CloseIdleConnections()

	plan, err := newMixPlan(cfg.seed, clients)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	// The plan's garbage must not compete with the timed set-ups.
	runtime.GC()
	// Set-up is starting proofd and warming it: exec to /healthz 200,
	// then the hot configurations and the faults; setup_s is proofd's
	// CPU time over it. It runs setupRuns times (once when traced:
	// setup_s is not reported); the last instance serves the run.
	runs := setupRuns
	if cfg.trace {
		runs = 1
	}
	var setups []float64
	var pd *proofdProc
	var hotHash map[string][32]byte
	for i := 0; i < runs; i++ {
		p, err := startProofd(cfg.proofd, cfg.tmpDir, hc)
		if err != nil {
			return nil, err
		}
		warm := &mixClient{hc: hc, base: p.base, plan: plan, out: newOutcome()}
		h, err := warm.warmUp()
		if err == nil {
			var cpu time.Duration
			cpu, err = schedCPU(p.cmd.Process.Pid)
			setups = append(setups, cpu.Seconds())
		}
		if err != nil || i < runs-1 {
			p.stop()
			if err != nil {
				return nil, err
			}
			continue
		}
		pd, hotHash = p, h
		warm.checkMisses()
		for _, msg := range warm.out.problems {
			out.problem("warm-up: %s", msg)
		}
	}
	defer pd.stop()

	runClients := func(first int, deadline time.Time) []*mixClient {
		cs := make([]*mixClient, clients)
		var wg sync.WaitGroup
		for i := range cs {
			cs[i] = &mixClient{hc: hc, base: pd.base, plan: plan, hotHash: hotHash, out: newOutcome()}
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cs[id].run(id, first, deadline)
			}(i)
		}
		wg.Wait()
		return cs
	}
	// One untimed round per client first: the memo units, the session
	// and stale caches and the history store reach their working size,
	// so every timed round meets the same warm state.
	for _, c := range runClients(0, time.Now()) {
		c.checkMisses()
		for _, p := range c.out.problems {
			out.problem("warm-up: %s", p)
		}
	}

	before, err := settledScrape(hc, pd.base)
	if err != nil {
		return nil, err
	}
	alloc0, err := totalAlloc(hc, pd.debug)
	if err != nil {
		return nil, err
	}
	cpu0, err := schedCPU(pd.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cs := runClients(1, start.Add(cfg.duration))
	window := time.Since(start)

	cpu1, err := schedCPU(pd.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	alloc1, err := totalAlloc(hc, pd.debug)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(pd.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	var all []sample
	for _, c := range cs {
		c.checkMisses()
		all = append(all, c.samples...)
		out.attempted += c.out.attempted
		out.failed += c.out.failed
		for k, v := range c.out.failures {
			out.failures[k] += v
		}
		for _, p := range c.out.problems {
			out.problem("%s", p)
		}
	}
	var hits, misses, pairs int
	for _, s := range all {
		switch s.cache {
		case "hit":
			hits++
		case "miss":
			misses++
		}
		if s.kind == "pairN" {
			pairs++
		}
	}
	after, err := settledScrape(hc, pd.base)
	if err != nil {
		return nil, err
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	if d := int(delta("proofd_session_hits_total")); d != hits {
		out.problem("proofd counted %d session hits, answers said hit %d times", d, hits)
	}
	if d := int(delta("proofd_session_misses_total")); d != misses {
		out.problem("proofd counted %d session misses, answers said miss %d times", d, misses)
	}
	if d := delta("proofd_session_dedups_total"); d != 0 {
		out.problem("%v dedups: two clients asked for one uncached configuration at once", d)
	}
	if d := int(delta("proofd_memo_plan_hits_total")); d != pairs {
		out.problem("%d memo plan hits, the schedule predicts %d (one per batch-0/default pair)", d, pairs)
	}

	n := float64(len(all))
	if n == 0 {
		return nil, fmt.Errorf("proofd-mix: no request was answered")
	}
	if !cfg.trace {
		lat := make([]float64, 0, len(all))
		for _, s := range all {
			lat = append(lat, s.ms)
		}
		out.metrics["setup_s"] = quantile(setups, 0.5)
		out.metrics["op_p50_ms"] = quantile(lat, 0.5)
		out.metrics["ops_per_s"] = n / window.Seconds()
		out.metrics["cpu_ms_per_op"] = ms(cpu1-cpu0) / n
		out.metrics["alloc_kb_per_op"] = float64(alloc1-alloc0) / 1024 / n
		out.metrics["peak_rss_mb"] = rss
		return out, nil
	}

	var lat, hitLat, missLat, histLat []float64
	var respBytes, responses int
	for _, s := range all {
		lat = append(lat, s.ms)
		switch {
		case s.kind == "history":
			histLat = append(histLat, s.ms)
		case s.cache == "hit":
			hitLat = append(hitLat, s.ms)
		case s.cache == "miss":
			missLat = append(missLat, s.ms)
		}
		if s.kind != "history" && s.status == http.StatusOK {
			respBytes += s.size
			responses++
		}
	}
	m := out.metrics
	if p90, ok := tailQuantile(lat, 0.9); ok {
		m["op_p90_ms"] = p90
	}
	m["hit_p50_ms"] = quantile(hitLat, 0.5)
	m["miss_p50_ms"] = quantile(missLat, 0.5)
	m["histstore.query_p50_ms"] = quantile(histLat, 0.5)
	if responses > 0 {
		m["server.response_kb"] = float64(respBytes) / 1024 / float64(responses)
	}
	sh, sm := delta("proofd_session_hits_total"), delta("proofd_session_misses_total")
	m["profsession.hits"] = sh
	m["profsession.misses"] = sm
	if sh+sm > 0 {
		m["profsession.hit_ratio"] = sh / (sh + sm)
	}
	m["memo.plan_hits"] = delta("proofd_memo_plan_hits_total")
	if uh, um := delta("proofd_memo_hits_total"), delta("proofd_memo_misses_total"); uh+um > 0 {
		m["memo.unit_hit_ratio"] = uh / (uh + um)
	}
	for _, stage := range []string{"model_build", "backend_build", "layer_map", "analysis", "session", "request"} {
		sum := delta(`proofd_stage_duration_seconds_sum{stage="` + stage + `"}`)
		cnt := delta(`proofd_stage_duration_seconds_count{stage="` + stage + `"}`)
		if cnt > 0 {
			m["server.stage."+stage+"_ms"] = 1000 * sum / cnt
		}
	}
	m["server.shed"] = delta("proofd_admission_rejected_total")
	m["histstore.appends"] = delta("proofd_store_appends_total")
	m["histstore.dropped"] = delta("proofd_store_dropped_writes_total")
	return out, nil
}

// settledScrape reads /metrics once the asynchronous history writer has
// stored or dropped one record per session miss so far (it persists
// exactly the misses), or after five seconds.
func settledScrape(hc *http.Client, base string) (map[string]float64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := scrape(hc, base)
		if err != nil {
			return nil, err
		}
		if m["proofd_store_appends_total"]+m["proofd_store_dropped_writes_total"] >= m["proofd_session_misses_total"] ||
			time.Now().After(deadline) {
			return m, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}
