package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/incr"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// clients is how many client goroutines and connections an open loop
// uses: the machine's two vCPUs.
const clients = 2

// servingOptions is the pipeline configuration every served inversion
// runs with; delta hints are digests under these options.
func servingOptions() core.Options {
	opts := core.DefaultOptions(8)
	opts.NB = 64
	return opts
}

func shardConfig(incremental bool) serve.Config {
	return serve.Config{
		Concurrency: 4,
		QueueDepth:  64,
		CacheBytes:  64 << 20,
		Opts:        servingOptions(),
		Incr:        incr.Config{Enabled: incremental},
	}
}

// servingStats is the part of serve.Server.Snapshot or fed.Fleet.Snapshot
// the benchmark reports, summed over shards.
type servingStats struct {
	cacheHits, cacheMisses, rejected int64
	queueDepth                       int
	incr                             incr.Stats
	spills, baseRouted               int64
}

func (t *servingStats) addShard(s serve.Stats) {
	t.cacheHits += s.CacheHits
	t.cacheMisses += s.CacheMisses
	t.rejected += s.Rejected
	t.queueDepth += s.QueueDepth
	if s.Incr != nil {
		t.incr.Fallbacks += s.Incr.Fallbacks
		t.incr.ResidualRejects += s.Incr.ResidualRejects
		t.incr.Declined += s.Incr.Declined
	}
}

// target is a server or fleet running in this process behind a loopback
// listener.
type target struct {
	url   string
	stats func() servingStats
	close func()
}

// listen serves h on a loopback port until the returned stop is called;
// stop returns once the serving goroutine has ended.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// startServer builds one serve.Server listening on a loopback port.
func startServer() (*target, error) {
	s, err := serve.New(shardConfig(false))
	if err != nil {
		return nil, err
	}
	url, stop, err := listen(serve.NewHandler(s))
	if err != nil {
		s.Close()
		return nil, err
	}
	t := &target{url: url,
		stats: func() servingStats {
			var st servingStats
			st.addShard(s.Snapshot())
			return st
		},
		close: func() { stop(); s.Close() }}
	return t, nil
}

// startFleet builds a 2-shard federated fleet with the incremental path
// on every shard, listening on a loopback port.
func startFleet() (*target, error) {
	f, err := fed.New(fed.Config{Shards: 2, Shard: shardConfig(true)})
	if err != nil {
		return nil, err
	}
	url, stop, err := listen(fed.NewHandler(f))
	if err != nil {
		f.Close()
		return nil, err
	}
	t := &target{url: url,
		stats: func() servingStats {
			fs := f.Snapshot()
			st := servingStats{spills: fs.Spills, baseRouted: fs.BaseRouted}
			for _, sh := range fs.Shards {
				st.addShard(sh.Serve)
			}
			return st
		},
		close: func() { stop(); f.Close() }}
	return t, nil
}

// ready waits for the target's first successful /healthz.
func ready(c *http.Client, t *target) error {
	var last error
	for try := 0; try < 100; try++ {
		resp, err := c.Get(t.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		last = err
		time.Sleep(time.Millisecond)
	}
	return last
}

// request is one generated serving request. Its matrix is a, or a with
// patch applied, or, when a is empty, the order x order dominant matrix
// drawn from seed: generated when it is sent, so the benchmark's inputs
// do not sit in the heap the program's garbage collector works on.
type request struct {
	path  string // "/invert" or "/lstsq"
	a     dense  // the matrix; for a delta, its base
	b     dense  // right-hand side of a /lstsq request
	patch *rowPatch
	order int
	seed  int64
	hint  string // X-Base-Digest: digest of the delta's base
	kind  string // fresh, dup, hot or delta
}

// rows is the order of the request's matrix.
func (r request) rows() int {
	if r.a.data == nil {
		return r.order
	}
	return r.a.rows
}

// build writes the request's matrix into dst, or returns a itself when
// there is nothing to build.
func (r request) build(dst *dense, rng *rand.Rand) dense {
	switch {
	case r.patch != nil:
		r.patch.apply(dst, r.a)
	case r.a.data == nil:
		rng.Seed(r.seed)
		fillDominant(dst, rng, r.order)
	default:
		return r.a
	}
	return *dst
}

// answer is what came back for one request.
type answer struct {
	status        int
	source, route string
	elapsed, slot time.Duration // X-Elapsed, X-Slot-Wait
	jobs          int
	ok            bool // 200 with an answer that passed its check
}

// servingWorkload is an open-loop traffic mix against a target.
type servingWorkload struct {
	rate   float64
	slo    time.Duration
	start  func() (*target, error)
	stream func(rng *rand.Rand, n int) []request
}

// scratch is one client's reusable request storage.
type scratch struct {
	rng  *rand.Rand
	buf  dense
	a    dense // the matrix of the client's current request
	body []byte
}

// setup times building the target until its listener is open: from then
// on connections are accepted.
func (w servingWorkload) setup() (time.Duration, error) {
	return medianSetup(4, func() (func(), error) {
		t, err := w.start()
		if err != nil {
			return nil, err
		}
		return t.close, nil
	})
}

// A serving run first sends 1/warmFraction of its measured time's worth
// of traffic unmeasured, so the cold start (an empty cache, a small heap
// collected many times a second, untouched memory) stays out of the
// figures. It then measures CPU time in windows of cpuWindow's worth of
// completed requests and reports the median window: on a shared virtual
// machine the CPU time one request costs moves by a tenth or more from
// one second to the next, with the host's load, and a median over windows
// keeps a burst of that out of the figure.
const (
	warmFraction = 8 // warm-up is 1/warmFraction of the measured time
	cpuWindow    = 2 * time.Second
)

func (w servingWorkload) run(cfg runConfig) (*outcome, error) {
	nWarm := max(1, int(math.Round(w.rate*cfg.seconds.Seconds()/warmFraction)))
	nMeas := int(math.Round(w.rate * cfg.seconds.Seconds()))
	n := nWarm + nMeas
	reqs := w.stream(rand.New(rand.NewSource(cfg.seed)), n)
	per := max(1, min(nMeas, int(math.Round(w.rate*cpuWindow.Seconds())))) // completions per window
	marks := make([]usage, nMeas/per+1)                                    // usage at nWarm + k*per completions
	marked := make([]bool, len(marks))
	var completed atomic.Int64
	mark := func() { // each mark is written by one client, read after the loop
		if k := int(completed.Add(1)) - nWarm; k >= 0 && k%per == 0 {
			marks[k/per], marked[k/per] = readUsage(), true
		}
	}
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	tgt, err := w.start()
	if err != nil {
		return nil, err
	}
	defer tgt.close()
	if err := ready(client, tgt); err != nil {
		return nil, err
	}

	out := newOutcome()
	answers := make([]answer, n)
	scr := make([]scratch, clients)
	for c := range scr {
		scr[c].rng = rand.New(rand.NewSource(1))
	}
	prep := func(c, i int) {
		r, s := reqs[i], &scr[c]
		s.a = r.build(&s.buf, s.rng)
		s.body = appendWire(s.body[:0], s.a)
		if r.path == "/lstsq" {
			s.body = appendWire(s.body, r.b)
		}
	}
	rec := cfg.rec
	do := func(c, i int) time.Time {
		defer mark()
		r := reqs[i]
		root := rec.begin("bench.request", 0, i)
		defer rec.finish(root)
		call := rec.begin("program.http", root, i)
		body, ans, err := post(client, tgt.url+r.path, r.hint, scr[c].body)
		recv := time.Now()
		rec.finish(call)
		answers[i] = ans
		if err != nil {
			out.fail(fmt.Errorf("request %d: %w", i, err))
			return recv
		}
		dec := rec.begin("client.decode", root, i)
		x, err := parseWire(body)
		rec.finish(dec)
		if err != nil {
			out.wrongAnswer(fmt.Errorf("request %d: %w", i, err))
			return recv
		}
		vs := rec.begin("bench.verify", root, i)
		defer rec.finish(vs)
		a := scr[c].a
		var res float64
		tol := inverseTol
		if r.path == "/lstsq" {
			res, tol = lstsqResidual(a, r.b, x), lstsqTol
		} else {
			res = sampledResidual(a, x, i)
		}
		out.checked(res)
		if err := checkAnswer(fmt.Sprintf("request %d (%s %dx%d)", i, r.path, a.rows, a.cols), res, tol); err != nil {
			out.wrongAnswer(err)
			return recv
		}
		answers[i].ok = true
		return recv
	}

	runtime.GC()
	smp := cfg.startSampler(func() int { return tgt.stats().queueDepth })
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+90*time.Second)
	samples := openLoop(ctx, n, w.rate, clients, prep, do)
	cancel()
	heapPeak, queueMax := cfg.finishSampler(smp)

	// Every answer, warm-up included, was checked and counts in attempted
	// and failed; only the requests after the warm-up count in the metrics.
	out.attempted = n
	for i, s := range samples {
		if s.sent.IsZero() {
			out.fail(fmt.Errorf("request %d was never sent", i))
		}
	}
	reqs, answers, samples = reqs[nWarm:], answers[nWarm:], samples[nWarm:]
	var cpuPerOp []float64
	for k := 1; k < len(marks); k++ {
		if marked[k-1] && marked[k] {
			cpuPerOp = append(cpuPerOp, ms(marks[k].sub(marks[k-1]).cpu)/float64(per))
		}
	}
	last := len(marks) - 1
	if !marked[0] || !marked[last] || len(cpuPerOp) == 0 {
		return nil, fmt.Errorf("run invalid: not every measured request completed; first failure: %v", out.firstErr)
	}
	use := marks[last].sub(marks[0])

	var lat, lag []float64
	var end time.Time
	slo := 0
	for i, s := range samples {
		if s.sent.IsZero() {
			continue
		}
		lag = append(lag, ms(s.lag()))
		if !answers[i].ok {
			continue
		}
		lat = append(lat, ms(s.latency()))
		if s.latency() <= w.slo {
			slo++
		}
		if s.done.After(end) {
			end = s.done
		}
	}
	lagP99 := percentile(sortedCopy(lag), 99)
	out.layers["bench.generator_lag_p99_ms"] = lagP99
	if lagP99 > maxLagMs {
		return nil, fmt.Errorf("run invalid: generator lag p99 %.1f ms exceeds %d ms, the load was not offered on schedule", lagP99, maxLagMs)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation returned a verified answer; first failure: %v", out.firstErr)
	}
	ok := float64(len(lat))
	out.setE2E(lat, ok/end.Sub(samples[0].due).Seconds(), float64(slo)/float64(nMeas),
		float64(use.alloc)/1e6/float64(last*per), median(cpuPerOp))
	if rec != nil {
		out.addServingLayers(reqs, answers, samples, tgt.stats(), queueMax)
		out.addRuntime(use, heapPeak)
		if err := out.probeReports(reqs, answers, rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxLagMs is the generator lag p99 beyond which a run is invalid: the
// schedule was not kept, so the offered rate was not the stated one.
const maxLagMs = 1000

// post sends one request and decodes the serving headers.
func post(c *http.Client, url, hint string, body []byte) ([]byte, answer, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, answer{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if hint != "" {
		req.Header.Set("X-Base-Digest", hint)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, answer{}, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	ans := answer{status: resp.StatusCode, source: resp.Header.Get("X-Serve-Source"),
		route: resp.Header.Get("X-Fed-Route")}
	if err != nil {
		return nil, ans, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, ans, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(out))
	}
	h := resp.Header
	if v := h.Get("X-Elapsed"); v != "" {
		ans.elapsed, _ = time.ParseDuration(v) // a malformed header reads as 0
	}
	if v := h.Get("X-Slot-Wait"); v != "" {
		ans.slot, _ = time.ParseDuration(v)
	}
	if v := h.Get("X-Jobs"); v != "" {
		ans.jobs, _ = strconv.Atoi(v)
	}
	return out, ans, nil
}

// addServingLayers derives the serve, fed, incr and tsqr metrics from the
// answers' headers and the target's final snapshot.
func (o *outcome) addServingLayers(reqs []request, answers []answer, samples []sample, st servingStats, queueMax int) {
	bySource := map[string][]float64{}
	var overhead, elapsed, slot, lstsq []float64
	var okCount, home, routed, deltas, hinted, incremental float64
	for i, a := range answers {
		r := reqs[i]
		if r.kind == "delta" {
			deltas++
		}
		if r.hint != "" {
			hinted++
		}
		if !a.ok {
			continue
		}
		okCount++
		lat := ms(samples[i].latency())
		bySource[a.source] = append(bySource[a.source], lat)
		if a.route != "" {
			routed++
			if a.route == "home" {
				home++
			}
		}
		if a.source == "incremental" {
			incremental++
		}
		if r.path == "/lstsq" {
			lstsq = append(lstsq, lat)
		}
		if a.source == "pipeline" && r.path == "/invert" {
			overhead = append(overhead, ms(samples[i].done.Sub(samples[i].sent)-a.elapsed))
			elapsed = append(elapsed, ms(a.elapsed))
			slot = append(slot, ms(a.slot))
		}
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	for _, src := range []string{"pipeline", "cache", "dedup", "incremental"} {
		o.layers["serve.source_p50_ms."+src] = p50(bySource[src])
	}
	o.layers["serve.overhead_p50_ms"] = p50(overhead)
	o.layers["core.pipeline_ms"] = p50(elapsed)
	o.layers["mapreduce.slot_wait_ms"] = mean(slot)
	o.layers["serve.dedup_frac"] = ratio(float64(len(bySource["dedup"])), okCount)
	o.layers["serve.cache_hit_rate"] = ratio(float64(st.cacheHits), float64(st.cacheHits+st.cacheMisses))
	o.layers["serve.rejected"] = float64(st.rejected)
	o.layers["serve.queue_depth_max"] = float64(queueMax)
	o.layers["fed.home_frac"] = ratio(home, routed)
	o.layers["fed.spills"] = float64(st.spills)
	o.layers["fed.base_routed_frac"] = ratio(float64(st.baseRouted), hinted)
	o.layers["incr.hit_frac"] = ratio(incremental, deltas)
	o.layers["incr.fallbacks"] = float64(st.incr.Fallbacks)
	o.layers["incr.residual_rejects"] = float64(st.incr.ResidualRejects)
	o.layers["incr.declined"] = float64(st.incr.Declined)
	o.layers["tsqr.lstsq_p50_ms"] = p50(lstsq)
	o.layers["tsqr.lstsq_count"] = float64(len(lstsq))
	o.layers["core.residual_max"] = o.residual
}

// probeReports inverts one matrix of each square order the run served
// through the pipeline, directly on a pipeline with the serving options,
// and sets the per-inversion report metrics weighted by how many pipeline
// answers each order had. The serving headers carry no task or DFS
// counts; these counts are exact, so one inversion per order suffices.
func (o *outcome) probeReports(reqs []request, answers []answer, rec *recorder) error {
	count := map[int]float64{}
	sample := map[int]request{}
	var jobs, pipelines float64
	for i, a := range answers {
		r := reqs[i]
		if a.ok && a.source == "pipeline" && r.path == "/invert" {
			count[r.rows()]++
			sample[r.rows()] = r
			jobs += float64(a.jobs)
			pipelines++
		}
	}
	var reps []*core.Report
	var weights []float64
	for _, order := range []int{24, 40, 64, 128, 256} {
		if count[order] == 0 {
			continue
		}
		var m dense
		m = sample[order].build(&m, rand.New(rand.NewSource(1)))
		sp := rec.begin("probe.invert", 0, -1)
		p, err := core.NewPipeline(servingOptions())
		if err != nil {
			return err
		}
		_, rep, err := p.Invert(matrix.NewFromData(m.rows, m.cols, append([]float64(nil), m.data...)))
		rec.finish(sp)
		if err != nil {
			return fmt.Errorf("probe inversion at n=%d: %w", order, err)
		}
		reps = append(reps, rep)
		weights = append(weights, count[order])
	}
	o.addReportLayers(reps, weights)
	// Jobs per pipeline answer come from X-Jobs, as served.
	o.layers["core.jobs"] = ratio(jobs, pipelines)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
