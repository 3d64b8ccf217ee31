package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sync"
	"time"
)

// runConfig is one measured run of a workload.
type runConfig struct {
	seed    int64
	seconds time.Duration
	rec     *recorder // nil: untraced
}

// startSampler starts heap (and gauge) sampling in traced runs only.
func (c runConfig) startSampler(gauge func() int) *sampler {
	if c.rec == nil {
		return nil
	}
	return startSampler(10*time.Millisecond, gauge)
}

func (c runConfig) finishSampler(s *sampler) (uint64, int) {
	if s == nil {
		return 0, 0
	}
	return s.finish()
}

// outcome is what a workload run measured. Client goroutines report
// failures and residuals concurrently; mu guards those fields.
type outcome struct {
	mu                sync.Mutex
	attempted, failed int
	wrong             int     // answers that failed the benchmark's check
	residual          float64 // worst residual the checks measured
	firstErr          error
	e2e               map[string]float64
	layers            map[string]float64 // traced runs only
	latP50            float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail counts a failed operation, keeping the first error for the report.
func (o *outcome) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// wrongAnswer counts an answer that arrived but failed its check.
func (o *outcome) wrongAnswer(err error) {
	o.fail(err)
	o.mu.Lock()
	o.wrong++
	o.mu.Unlock()
}

// checked records the residual of one checked answer.
func (o *outcome) checked(residual float64) {
	o.mu.Lock()
	o.residual = math.Max(o.residual, residual)
	o.mu.Unlock()
}

func (o *outcome) note(msg string) { fmt.Fprintln(os.Stderr, "perfbench:", msg) }

// setE2E records the end-to-end metrics. lat holds the latencies in ms
// of the operations that returned a verified answer.
func (o *outcome) setE2E(lat []float64, throughput, sloFrac, allocMB, cpuMs float64) {
	s := sortedCopy(lat)
	tail := tailPercentile(len(s))
	o.latP50 = percentile(s, 50)
	o.e2e["latency_p50_ms"] = o.latP50
	o.e2e["latency_tail_ms"] = percentile(s, max(tail, 50))
	o.e2e["throughput_ops_s"] = throughput
	o.e2e["slo_met_frac"] = sloFrac
	o.e2e["alloc_mb_per_op"] = allocMB
	o.e2e["cpu_ms_per_op"] = cpuMs
	o.layers["bench.tail_percentile"] = tail
	o.layers["bench.samples"] = float64(len(s))
	o.note(fmt.Sprintf("%d samples, tail is p%g", len(s), tail))
}

// addRuntime records the Go runtime's view of the measured window.
func (o *outcome) addRuntime(u usage, heapPeak uint64) {
	o.layers["runtime.heap_peak_mb"] = float64(heapPeak) / 1e6
	o.layers["runtime.gc_count"] = float64(u.gcs)
	o.layers["runtime.gc_pause_ms"] = float64(u.pauses) / 1e6
}

// setupRepeats is how many samples of set-up time a run takes; the
// median is reported. Single samples spread widely (thread wake-ups cost
// tens of microseconds on a VM), so it takes many.
const setupRepeats = 101

// medianSetup returns the median over setupRepeats samples of the mean
// time of one build, each sample timing batch builds. The heap is
// collected and returned to the operating system once before, so no
// background scavenging overlaps the samples, and one untimed sample
// warms up first. build returns a function that releases what it built,
// called right after the build, untimed.
func medianSetup(batch int, build func() (release func(), err error)) (time.Duration, error) {
	var xs []float64
	debug.FreeOSMemory()
	for r := 0; r <= setupRepeats; r++ {
		var total time.Duration
		for b := 0; b < batch; b++ {
			t0 := time.Now()
			release, err := build()
			total += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			if release != nil {
				release()
			}
		}
		if r > 0 {
			xs = append(xs, float64(total)/float64(batch))
		}
	}
	return time.Duration(median(xs)), nil
}
