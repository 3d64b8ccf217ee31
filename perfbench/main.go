// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the public entry points of the inverter's layers,
// checks every answer, and prints each metric by name and unit followed
// by a one-line JSON result.
//
//	perfbench --workload invert-512 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and then traced, and reports the
// per-layer metrics: figures from the traced run's spans, the layers'
// own reports and headers, and direct kernel timings. The spans are
// written as Chrome trace JSON under --trace-dir.
//
// Exit status: 0 when every answer checked out, 1 when an answer was
// wrong, 2 when the run could not be made or was invalid.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one benchmark workload: its measured run and its set-up.
type workload struct {
	run func(runConfig) (*outcome, error)
	// setup returns the median time, in this process, to build the system
	// the workload runs against up to where it accepts an operation.
	setup func() (time.Duration, error)
}

var (
	serveSmall = servingWorkload{
		rate:   400,
		slo:    25 * time.Millisecond,
		start:  startServer,
		stream: smallStream,
	}
	serveDelta = servingWorkload{
		rate:   120,
		slo:    100 * time.Millisecond,
		start:  startFleet,
		stream: deltaStream,
	}
)

// workloads maps each workload name to its runner. Why each exists is in
// README.md and BENCHMARK.json.
var workloads = map[string]workload{
	"invert-512":  {runInvert512, invertSetup},
	"serve-small": {serveSmall.run, serveSmall.setup},
	"serve-delta": {serveDelta.run, serveDelta.setup},
}

// setupProcs is how many fresh processes time the set-up; setup_s is
// the median of their medians. Set-up takes microseconds, and one process
// in a few runs its set-up half as fast again as the rest throughout,
// however long it measures, so one process's median is not a stable
// figure, and neither is a mean over processes. Each process runs on one
// P: starting a goroutine then never wakes another thread, whose cost on
// a virtual machine follows the host's load rather than the program's
// work. Work a set-up spreads over goroutines still counts, in full.
const setupProcs = 20

// setupAcrossProcesses runs this program setupProcs times with
// --setup-only and returns the median of the set-up times they print.
func setupAcrossProcesses(name string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for p := 0; p < setupProcs; p++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		out, err := exec.CommandContext(ctx, exe, "--workload", name, "--setup-only").Output()
		cancel()
		if err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		d, err := time.ParseDuration(strings.TrimSpace(string(out)))
		if err != nil {
			return 0, fmt.Errorf("set-up process printed %q: %w", out, err)
		}
		xs = append(xs, float64(d))
	}
	return time.Duration(median(xs)), nil
}

func main() {
	name := flag.String("workload", "", "workload: invert-512, serve-small or serve-delta")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured time of one run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where --trace 1 writes Chrome trace JSON")
	setupOnly := flag.Bool("setup-only", false, "only time the workload's set-up in this process and print it")
	flag.Parse()
	if w, ok := workloads[*name]; ok && *setupOnly {
		runtime.GOMAXPROCS(1)
		d, err := w.setup()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fmt.Println(d)
		return
	}
	code, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

var errWrongAnswer = errors.New("a wrong answer was returned")

func run(name string, seed int64, seconds time.Duration, trace int, traceDir string) (int, error) {
	w, ok := workloads[name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return 2, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validateDefs(defs); err != nil {
			return 2, err
		}
	}
	plain, err := w.run(runConfig{seed: seed, seconds: seconds})
	if err != nil {
		return 2, err
	}
	defs, vals, total := endToEnd, plain.e2e, plain
	if trace == 0 {
		setup, err := setupAcrossProcesses(name)
		if err != nil {
			return 2, err
		}
		vals["setup_s"] = setup.Seconds()
	} else {
		rec := newRecorder()
		traced, err := w.run(runConfig{seed: seed, seconds: seconds, rec: rec})
		if err != nil {
			return 2, err
		}
		kernels, err := kernelLayers(seed, rec)
		if err != nil {
			return 2, err
		}
		vals = traced.layerValues(plain, kernels, rec)
		defs = perLayer
		total = &outcome{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed,
			wrong: plain.wrong + traced.wrong, firstErr: errors.Join(plain.firstErr, traced.firstErr)}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := rec.writeChrome(path); err != nil {
			return 2, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
	}
	if total.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", total.firstErr)
	}
	res, err := buildResult(defs, vals, total.attempted, total.failed, total.wrong == 0)
	if err != nil {
		return 2, err
	}
	if err := writeResult(os.Stdout, defs, res); err != nil {
		return 2, err
	}
	if total.wrong > 0 {
		return 1, errWrongAnswer
	}
	return 0, nil
}

// layerValues completes a traced run's per-layer metrics: layers the
// workload did not exercise read 0, and the span-derived figures and the
// tracing overhead against the untraced run are added.
func (o *outcome) layerValues(plain *outcome, kernels map[string]float64, rec *recorder) map[string]float64 {
	vals := map[string]float64{}
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	for k, v := range o.layers {
		vals[k] = v
	}
	for k, v := range kernels {
		vals[k] = v
	}
	vals["core.residual_max"] = o.residual
	vals["bench.error_rate"] = ratio(float64(o.failed), float64(o.attempted))
	vals["bench.trace_overhead_frac"] = ratio(o.latP50, plain.latP50) - 1
	ops := o.layers["bench.samples"]
	self := rec.selfTimes()
	for layer, spans := range map[string][]string{
		"request": {"bench.op", "bench.request"},
		"program": {"program.invert", "program.http"},
		"decode":  {"client.decode"},
		"verify":  {"bench.verify"},
	} {
		var t time.Duration
		for _, s := range spans {
			t += self[s]
		}
		vals["trace.self_ms."+layer] = ratio(ms(t), ops)
	}
	return vals
}
