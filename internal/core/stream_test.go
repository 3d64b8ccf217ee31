package core

import (
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// decomposeForTest runs the decomposition stages and returns the handle
// plus the pipeline for white-box factor access.
func decomposeForTest(t *testing.T, n, nb, nodes int, seed int64) (*Pipeline, *luHandle, *matrix.Dense) {
	t.Helper()
	a := workload.Random(n, seed)
	opts := DefaultOptions(nodes)
	opts.NB = nb
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := &pipelineState{opts: p.Opts, fs: p.FS, cluster: p.Cluster}
	if err := writeInputBands(p.FS, p.Opts, a, p.Opts.Nodes); err != nil {
		t.Fatal(err)
	}
	pj, err := p.Cluster.Run(partitionJob(p.Opts, n, p.FS))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := buildInputTree(p.Opts, n, pj.Output)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := st.computeLU(tree)
	if err != nil {
		t.Fatal(err)
	}
	return p, hd, a
}

func TestReadLRowsMatchesFull(t *testing.T) {
	p, hd, _ := decomposeForTest(t, 72, 16, 4, 2001)
	rd := masterReader(p.FS)
	full, err := hd.readL(rd)
	if err != nil {
		t.Fatal(err)
	}
	for _, band := range [][2]int{{0, 72}, {0, 10}, {30, 45}, {60, 72}, {35, 37}, {5, 5}} {
		got, err := hd.readLRows(rd, band[0], band[1])
		if err != nil {
			t.Fatalf("band %v: %v", band, err)
		}
		want := full.Block(band[0], band[1], 0, 72)
		if !matrix.Equal(got, want, 0) {
			t.Fatalf("band %v differs", band)
		}
	}
	if _, err := hd.readLRows(rd, -1, 5); err == nil {
		t.Fatal("negative band accepted")
	}
}

func TestReadUTRowsMatchesFull(t *testing.T) {
	p, hd, _ := decomposeForTest(t, 72, 16, 4, 2002)
	rd := masterReader(p.FS)
	u, err := hd.readU(rd)
	if err != nil {
		t.Fatal(err)
	}
	ut := u.Transpose()
	for _, band := range [][2]int{{0, 72}, {0, 9}, {33, 41}, {70, 72}} {
		got, err := hd.readUTRows(rd, band[0], band[1])
		if err != nil {
			t.Fatalf("band %v: %v", band, err)
		}
		want := ut.Block(band[0], band[1], 0, 72)
		if !matrix.Equal(got, want, 0) {
			t.Fatalf("band %v differs", band)
		}
	}
}

func TestStreamLowerInverseColumns(t *testing.T) {
	n := 48
	a := workload.DiagonallyDominant(n, 2003)
	f, err := lu.Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	l := f.L()
	cols := []int{0, 5, 17, 46, 47}
	want := matrix.New(n, n)
	for _, c := range cols {
		lu.InvertLowerColumn(l, c, true, want)
	}
	for _, band := range []int{1, 5, 16, 100} {
		got, st, err := lowerInverseBands(func(r0, r1 int) (*matrix.Dense, error) {
			return l.Block(r0, r1, 0, n), nil
		}, n, cols, true, band)
		if err != nil {
			t.Fatal(err)
		}
		for bi, c := range cols {
			for r := 0; r < n; r++ {
				if got.At(r, bi) != want.At(r, c) {
					t.Fatalf("band=%d: column %d row %d differs", band, c, r)
				}
			}
		}
		if st.bands != (n+band-1)/band {
			t.Fatalf("band=%d: %d bands", band, st.bands)
		}
	}
}

func TestStreamingPeakMemoryBounded(t *testing.T) {
	// The streaming mappers must never hold the full n x n factor: with
	// band height n/8 (the height inversionBandRows picks on 8 nodes) and 2
	// output columns the peak is (n/8)*n + 2n elements, far below n^2.
	n := 64
	a := workload.DiagonallyDominant(n, 2004)
	f, err := lu.Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	l := f.L()
	_, st, err := lowerInverseBands(func(r0, r1 int) (*matrix.Dense, error) {
		return l.Block(r0, r1, 0, n), nil
	}, n, []int{3, 40}, true, (&pipelineState{opts: Options{Nodes: 8, StreamingInversion: true}}).inversionBandRows(n))
	if err != nil {
		t.Fatal(err)
	}
	limit := (n/8)*n + 2*n + n // band + columns + slack
	if st.peakElems > limit {
		t.Fatalf("peak %d elements exceeds bound %d", st.peakElems, limit)
	}
	if st.peakElems >= n*n {
		t.Fatal("streaming held a full factor")
	}
}

func TestStreamingInversionEndToEnd(t *testing.T) {
	n := 80
	a := workload.Random(n, 2005)
	want, err := lu.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(4)
	opts.NB = 20
	opts.StreamingInversion = true
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := p.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, want); d > 1e-7 {
		t.Fatalf("streaming inverse differs by %g", d)
	}
	if rep.JobsRun != PipelineJobs(n, opts.NB) {
		t.Fatalf("jobs = %d", rep.JobsRun)
	}
}

func TestStreamingMatchesInMemoryBitForBit(t *testing.T) {
	n := 64
	a := workload.Random(n, 2006)
	run := func(streaming bool) *matrix.Dense {
		opts := DefaultOptions(4)
		opts.NB = 16
		opts.StreamingInversion = streaming
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		inv, _, err := p.Invert(a)
		if err != nil {
			t.Fatal(err)
		}
		return inv
	}
	mem := run(false)
	str := run(true)
	if !matrix.Equal(mem, str, 0) {
		t.Fatal("streaming and in-memory inversions must agree exactly (same arithmetic order)")
	}
}
