package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run reports, on every workload:
// what a user of the inverter or of the serving stack sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"slo_met_frac", "frac"},
	{"alloc_mb_per_op", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer are the metrics every traced run reports, on every workload.
// A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"matrix.mul_gflops", "GFLOP/s"},
	{"matrix.codec_encode_mbps", "MB/s"},
	{"matrix.codec_decode_mbps", "MB/s"},
	{"lu.trinv_gflops", "GFLOP/s"},
	{"lu.decompose_gflops", "GFLOP/s"},
	{"lu.invert_local_ms.n24", "ms"},
	{"lu.invert_local_ms.n64", "ms"},
	{"lu.invert_local_ms.n512", "ms"},
	{"core.pipeline_ms", "ms"},
	{"core.master_ms", "ms"},
	{"core.jobs", "count"},
	{"core.tasks", "count"},
	{"core.residual_max", "abs"},
	{"mapreduce.job_ms.partition", "ms"},
	{"mapreduce.job_ms.lu", "ms"},
	{"mapreduce.job_ms.invert", "ms"},
	{"mapreduce.slot_wait_ms", "ms"},
	{"mapreduce.task_failures", "count"},
	{"mapreduce.fetch_retries", "count"},
	{"dfs.written_mb", "MB"},
	{"dfs.read_mb", "MB"},
	{"dfs.transferred_mb", "MB"},
	{"dfs.files_created", "count"},
	{"dfs.ops", "count"},
	{"serve.source_p50_ms.pipeline", "ms"},
	{"serve.source_p50_ms.cache", "ms"},
	{"serve.source_p50_ms.dedup", "ms"},
	{"serve.source_p50_ms.incremental", "ms"},
	{"serve.overhead_p50_ms", "ms"},
	{"serve.cache_hit_rate", "frac"},
	{"serve.dedup_frac", "frac"},
	{"serve.rejected", "count"},
	{"serve.queue_depth_max", "count"},
	{"fed.home_frac", "frac"},
	{"fed.spills", "count"},
	{"fed.base_routed_frac", "frac"},
	{"incr.hit_frac", "frac"},
	{"incr.fallbacks", "count"},
	{"incr.residual_rejects", "count"},
	{"incr.declined", "count"},
	{"incr.update_ms", "ms"},
	{"incr.guard_ms", "ms"},
	{"tsqr.lstsq_p50_ms", "ms"},
	{"tsqr.lstsq_count", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.generator_lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.tail_percentile", "pct"},
	{"bench.samples", "count"},
	{"bench.error_rate", "frac"},
	{"trace.self_ms.request", "ms"},
	{"trace.self_ms.program", "ms"},
	{"trace.self_ms.decode", "ms"},
	{"trace.self_ms.verify", "ms"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs rejects a metric list with a malformed or repeated name or
// unit, so a typo fails the run instead of reaching the result line.
func validateDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

func nearestRank(n int, p float64) int {
	// The epsilon keeps p·n/100 from rounding up past an exact rank
	// (99.9% of 10000 must be rank 9990, not 9991).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder is the set of percentiles the tail may be reported at: the
// nines, so that a tail keeps well over minBeyondTail samples beyond it
// until the sample count reaches the next rung.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyondTail is how many samples must lie beyond the tail percentile.
const minBeyondTail = 10

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyondTail of n samples beyond its nearest rank, or 0 when
// even the median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= minBeyondTail {
			best = p
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult checks that vals holds exactly the metrics of defs, each a
// finite number, and attaches the units.
func buildResult(defs []metricDef, vals map[string]float64, attempted, failed int, correct bool) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := res.Metrics[name]; !ok {
				return res, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return res, nil
}

// writeResult prints every metric as "name value unit", then the result
// as one JSON line.
func writeResult(w io.Writer, defs []metricDef, res result) error {
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-34s %14d\n%-34s %14d\n%-34s %14v\n",
		"attempted", res.Attempted, "failed", res.Failed, "correct", res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
