package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// equation4Inverse builds A^-1 from P, L, U the way Section 4.3 states
// it: every column of L^-1 and of (U^T)^-1 by Equation 4, one column at a
// time (lu.InvertLowerColumn), then each element of U^-1 L^-1 as a full
// dot product, scattered to column p[j].
func equation4Inverse(p matrix.Perm, l, u *matrix.Dense) *matrix.Dense {
	n := l.Rows
	linv, utinv := matrix.New(n, n), matrix.New(n, n)
	ut := u.Transpose()
	for c := 0; c < n; c++ {
		lu.InvertLowerColumn(l, c, true, linv)
		lu.InvertLowerColumn(ut, c, false, utinv)
	}
	out := matrix.New(n, n)
	for i := 0; i < n; i++ {
		urow := utinv.Col(i) // row i of U^-1
		for j := 0; j < n; j++ {
			out.Set(i, p[j], matrix.Dot(urow, linv.Col(j)))
		}
	}
	return out
}

func TestInvertBitIdenticalToEquation4(t *testing.T) {
	// The final job's row-oriented kernels must reproduce Equation 4 and
	// the dot-product multiply exactly, whatever the layout options, block
	// shape or node count.
	shapes := []struct{ n, nb int }{
		{50, 16}, // n not a multiple of nb: ragged leaves and bands
		{64, 16},
		{5, 4}, // n below every node count but 2 (and below m0/2 at 8)
	}
	for _, nodes := range []int{2, 4, 8} {
		for _, sh := range shapes {
			a := workload.Random(sh.n, int64(31*sh.n+nodes))
			for mask := 0; mask < 8; mask++ {
				opts := DefaultOptions(nodes)
				opts.NB = sh.nb
				opts.BlockWrap = mask&1 != 0
				opts.StreamingInversion = mask&2 != 0
				opts.TransposeU = mask&4 != 0
				name := fmt.Sprintf("nodes=%d n=%d nb=%d blockwrap=%v streaming=%v transposeU=%v",
					nodes, sh.n, sh.nb, opts.BlockWrap, opts.StreamingInversion, opts.TransposeU)

				dp, err := NewPipeline(opts)
				if err != nil {
					t.Fatal(err)
				}
				perm, l, u, err := dp.Decompose(a)
				if err != nil {
					t.Fatalf("%s: Decompose: %v", name, err)
				}
				want := equation4Inverse(perm, l, u)

				ip, err := NewPipeline(opts)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := ip.Invert(a)
				if err != nil {
					t.Fatalf("%s: Invert: %v", name, err)
				}
				for i, g := range got.Data {
					if w := want.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: element (%d,%d) = %v, Equation 4 gives %v",
							name, i/sh.n, i%sh.n, g, w)
					}
				}
			}
		}
	}
}
