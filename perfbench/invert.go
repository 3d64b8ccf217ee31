package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	mrinverse "repro"
	"repro/internal/core"
	"repro/internal/matrix"
)

// invert-512: the paper's own workload. One caller inverts n=512
// Uniform(-1,1) matrices back to back through the facade, cycling over
// a few distinct inputs.
const (
	invN        = 512
	invNB       = 128
	invNodes    = 8
	invDistinct = 4
	// invSLO is the latency limit for slo_met_frac, about twice the
	// median on a 2-vCPU machine.
	invSLO = 500 * time.Millisecond
)

func invertOptions() core.Options {
	opts := core.DefaultOptions(invNodes)
	opts.NB = invNB
	return opts
}

// invertOp is one measured inversion.
type invertOp struct {
	wall time.Duration
	use  usage
	rep  *core.Report
	ok   bool
}

// invertSetup times what Invert builds before its first job: the
// pipeline over a fresh simulated cluster and file system.
func invertSetup() (time.Duration, error) {
	opts := invertOptions()
	return medianSetup(200, func() (func(), error) {
		_, err := core.NewPipeline(opts)
		return nil, err
	})
}

func runInvert512(cfg runConfig) (*outcome, error) {
	opts := invertOptions()
	rng := rand.New(rand.NewSource(cfg.seed))
	inputs := make([]dense, invDistinct)
	for k := range inputs {
		inputs[k] = uniform(rng, invN, invN)
	}

	out := newOutcome()
	verified := make([]map[uint64]bool, invDistinct) // answer hashes that passed, per input
	for k := range verified {
		verified[k] = map[uint64]bool{}
	}
	var ops []invertOp
	rec := cfg.rec
	runtime.GC()
	smp := cfg.startSampler(nil)
	before := readUsage()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % invDistinct
		a := matrix.NewFromData(invN, invN, append([]float64(nil), inputs[k].data...))
		root := rec.begin("bench.op", 0, i)
		call := rec.begin("program.invert", root, i)
		u0 := readUsage()
		t0 := time.Now()
		x, rep, err := mrinverse.Invert(a, opts)
		wall := time.Since(t0)
		u1 := readUsage()
		rec.finish(call)
		op := invertOp{wall: wall, use: u1.sub(u0), rep: rep}
		out.attempted++
		if err != nil {
			out.fail(fmt.Errorf("invert %d: %w", i, err))
		} else {
			vs := rec.begin("bench.verify", root, i)
			h := hashData(x.Data)
			if !verified[k][h] {
				r := fullResidual(inputs[k], dense{x.Rows, x.Cols, x.Data})
				out.checked(r)
				if err := checkAnswer(fmt.Sprintf("invert %d", i), r, inverseTol); err != nil {
					out.wrongAnswer(err)
				} else {
					verified[k][h] = true
				}
			}
			op.ok = verified[k][h]
			rec.finish(vs)
		}
		rec.finish(root)
		ops = append(ops, op)
	}
	total := readUsage().sub(before)
	heapPeak, _ := cfg.finishSampler(smp)

	var lat []float64
	var busy time.Duration
	var use usage
	slo := 0
	for _, op := range ops {
		busy += op.wall
		use.cpu += op.use.cpu
		use.alloc += op.use.alloc
		if op.ok {
			lat = append(lat, ms(op.wall))
			if op.wall <= invSLO {
				slo++
			}
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation returned a verified answer; first failure: %v", out.firstErr)
	}
	out.setE2E(lat, float64(len(lat))/busy.Seconds(), float64(slo)/float64(out.attempted),
		float64(use.alloc)/1e6/float64(len(lat)), ms(use.cpu)/float64(len(lat)))
	if rec != nil {
		out.addInvertLayers(ops)
		out.addRuntime(total, heapPeak)
	}
	return out, nil
}

// addInvertLayers derives the core, mapreduce and dfs metrics from the
// reports of the successful inversions, as means. Jobs, tasks, files and
// bytes written and read repeat exactly for one order; bytes transferred
// vary with task placement.
func (o *outcome) addInvertLayers(ops []invertOp) {
	var reps []*core.Report
	for _, op := range ops {
		if op.ok && op.rep != nil {
			reps = append(reps, op.rep)
		}
	}
	o.addReportLayers(reps, nil)
	var elapsed []float64
	for _, r := range reps {
		elapsed = append(elapsed, ms(r.Elapsed))
	}
	o.layers["core.pipeline_ms"] = median(elapsed)
	var slot []float64
	for _, r := range reps {
		slot = append(slot, ms(r.SlotWait))
	}
	o.layers["mapreduce.slot_wait_ms"] = median(slot)
	if !countsRepeat(reps) {
		o.note("core/dfs counts differ between inversions of the same order")
	}
}

// addReportLayers sets the per-inversion report metrics as weighted means
// over reps (weights nil means equal weights): master time, jobs, tasks,
// per-job wall time by job kind, failures, retries and DFS traffic.
func (o *outcome) addReportLayers(reps []*core.Report, weights []float64) {
	sum := map[string]float64{}
	var wsum float64
	for i, r := range reps {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		wsum += w
		sum["core.master_ms"] += w * ms(r.Elapsed-r.JobElapsed)
		sum["core.jobs"] += w * float64(r.JobsRun)
		sum["core.tasks"] += w * float64(r.MapTasks+r.ReduceTasks)
		sum["mapreduce.task_failures"] += w * float64(r.TaskFailures)
		sum["mapreduce.fetch_retries"] += w * float64(r.FetchRetries)
		sum["dfs.written_mb"] += w * float64(r.FS.BytesWritten) / 1e6
		sum["dfs.read_mb"] += w * float64(r.FS.BytesRead) / 1e6
		sum["dfs.transferred_mb"] += w * float64(r.FS.BytesTransferred) / 1e6
		sum["dfs.files_created"] += w * float64(r.FS.FilesCreated)
		sum["dfs.ops"] += w * float64(r.FS.ReadOps+r.FS.WriteOps)
		for _, j := range r.Jobs {
			kind := j.Name
			if i := strings.IndexByte(kind, ':'); i >= 0 {
				kind = kind[:i]
			}
			switch kind {
			case "partition", "lu", "invert":
				sum["mapreduce.job_ms."+kind] += w * ms(j.Elapsed)
			}
		}
	}
	for _, name := range []string{"core.master_ms", "core.jobs", "core.tasks",
		"mapreduce.task_failures", "mapreduce.fetch_retries", "dfs.written_mb", "dfs.read_mb",
		"dfs.transferred_mb", "dfs.files_created", "dfs.ops",
		"mapreduce.job_ms.partition", "mapreduce.job_ms.lu", "mapreduce.job_ms.invert"} {
		if wsum > 0 {
			o.layers[name] = sum[name] / wsum
		} else {
			o.layers[name] = 0
		}
	}
}

// countsRepeat reports whether every report of the same order has the
// same job, task and DFS counts. Bytes transferred are left out: they
// depend on which node each task was scheduled on.
func countsRepeat(reps []*core.Report) bool {
	type counts struct {
		jobs, tasks int
		fs          [5]int64
	}
	seen := map[int]counts{}
	for _, r := range reps {
		c := counts{r.JobsRun, r.MapTasks + r.ReduceTasks, [5]int64{r.FS.BytesWritten, r.FS.BytesRead,
			r.FS.FilesCreated, r.FS.ReadOps, r.FS.WriteOps}}
		if prev, ok := seen[r.Order]; ok && prev != c {
			return false
		}
		seen[r.Order] = c
	}
	return true
}

// hashData is a 64-bit FNV-1a-style hash over the float bits, used to
// check each distinct answer once.
func hashData(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range xs {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
