package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/lu"
	"repro/internal/matrix"
)

// kernelReps is how many times each kernel is timed; the median counts.
const kernelReps = 5

// timeKernel runs f kernelReps times under a span and returns the median
// duration of one call.
func timeKernel(rec *recorder, name string, f func() error) (time.Duration, error) {
	var xs []float64
	for r := 0; r < kernelReps; r++ {
		sp := rec.begin(name, 0, -1)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		rec.finish(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, float64(d))
	}
	return time.Duration(median(xs)), nil
}

func toMatrix(m dense) *matrix.Dense {
	return matrix.NewFromData(m.rows, m.cols, append([]float64(nil), m.data...))
}

// kernelLayers times the matrix, lu and incr kernels directly, at the
// shapes the workloads run them at.
func kernelLayers(seed int64, rec *recorder) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6b65726e))
	out := map[string]float64{}
	gflops := func(flops float64, d time.Duration) float64 { return flops / d.Seconds() / 1e9 }

	// The final invert job's reducer tile at n=512 on 8 nodes: an
	// (n/f1) x n block of U^-1 against an (n/f2) x n block of L^-1.
	f1, f2 := core.FactorPair(invNodes)
	ta, tb := toMatrix(uniform(rng, invN/f1, invN)), toMatrix(uniform(rng, invN/f2, invN))
	d, err := timeKernel(rec, "kernel.mul", func() error { _, err := matrix.MulTransB(ta, tb); return err })
	if err != nil {
		return nil, err
	}
	out["matrix.mul_gflops"] = gflops(2*float64(ta.Rows*tb.Rows*invN), d)

	// Codec throughput over one n=64 and one n=512 matrix: the serving
	// body sizes and the pipeline's block files.
	var encBytes, decBytes float64
	var encTime, decTime time.Duration
	for _, n := range []int{64, 512} {
		m := toMatrix(uniform(rng, n, n))
		var buf bytes.Buffer
		d, err := timeKernel(rec, "kernel.encode", func() error { buf.Reset(); return matrix.WriteBinary(&buf, m) })
		if err != nil {
			return nil, err
		}
		encBytes, encTime = encBytes+float64(buf.Len()), encTime+d
		enc := buf.Bytes()
		d, err = timeKernel(rec, "kernel.decode", func() error { _, err := matrix.ReadBinary(bytes.NewReader(enc)); return err })
		if err != nil {
			return nil, err
		}
		decBytes, decTime = decBytes+float64(len(enc)), decTime+d
	}
	out["matrix.codec_encode_mbps"] = encBytes / 1e6 / encTime.Seconds()
	out["matrix.codec_decode_mbps"] = decBytes / 1e6 / decTime.Seconds()

	// Triangular inversion at n=512, the invert job's mapper work:
	// n³/3 flops for each of L and U.
	f, err := lu.Decompose(toMatrix(uniform(rng, invN, invN)))
	if err != nil {
		return nil, err
	}
	l, u := f.L(), f.U()
	d, err = timeKernel(rec, "kernel.trinv", func() error {
		lu.LowerInverse(l, true)
		_, err := lu.UpperInverse(u)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["lu.trinv_gflops"] = gflops(2*float64(invN)*invN*invN/3, d)

	// LU of one nb x nb leaf, the master's work: 2nb³/3 flops.
	leaf := toMatrix(uniform(rng, invNB, invNB))
	d, err = timeKernel(rec, "kernel.decompose", func() error { _, err := lu.Decompose(leaf); return err })
	if err != nil {
		return nil, err
	}
	out["lu.decompose_gflops"] = gflops(2*float64(invNB)*invNB*invNB/3, d)

	// Single-threaded local inversion: the bar for routing small orders
	// away from the pipeline.
	for _, n := range []int{24, 64, 512} {
		a := toMatrix(dominant(rng, n))
		d, err := timeKernel(rec, "kernel.invert_local", func() error { _, err := lu.Invert(a); return err })
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("lu.invert_local_ms.n%d", n)] = ms(d)
	}

	// A rank-4 SMW update and its residual guard at n=256.
	base := dominant(rng, 256)
	ainv, err := lu.Invert(toMatrix(base))
	if err != nil {
		return nil, err
	}
	p := newPatch(rng, 256, 4)
	var next dense
	p.apply(&next, base)
	uu, vv := incr.RowDelta(toMatrix(base), toMatrix(next), p.rows)
	var x *matrix.Dense
	d, err = timeKernel(rec, "kernel.incr_update", func() error {
		var e error
		x, e = incr.Update(ainv, uu, vv, 0)
		return e
	})
	if err != nil {
		return nil, err
	}
	out["incr.update_ms"] = ms(d)
	an := toMatrix(next)
	d, err = timeKernel(rec, "kernel.incr_guard", func() error { return incr.Guard(an, x, 0, 0) })
	if err != nil {
		return nil, err
	}
	out["incr.guard_ms"] = ms(d)
	return out, nil
}
