package lu

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// testLower returns a lower triangular matrix of order n: the L factor of
// a random matrix, with U's diagonal on its diagonal when !unit (so the
// stored diagonal matters), and a few exact zeros below the diagonal to
// exercise the kernels' zero skipping.
func testLower(t *testing.T, n int, unit bool, seed int64) *matrix.Dense {
	t.Helper()
	f, err := Decompose(workload.Random(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	l := f.L()
	for i := 0; i < n; i++ {
		if !unit {
			l.Set(i, i, f.LU.At(i, i))
		}
		if i > 2 && i%3 == 0 {
			l.Set(i, i/2, 0)
		}
	}
	return l
}

// sameBits reports the first element where got and want differ in any
// bit, comparing got's column bj against want's column cols[bj].
func sameBits(got, want *matrix.Dense, cols []int) error {
	for bj, c := range cols {
		for i := 0; i < want.Rows; i++ {
			g, w := got.At(i, bj), want.At(i, c)
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("row %d column %d: %v (%#x) vs Equation 4 %v (%#x)",
					i, c, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return nil
}

func TestLowerInverseColumnsBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 129} {
		for _, unit := range []bool{true, false} {
			l := testLower(t, n, unit, int64(n))
			want := matrix.New(n, n)
			for c := 0; c < n; c++ {
				InvertLowerColumn(l, c, unit, want)
			}
			for m := 1; m <= 5; m++ {
				for j := 0; j < m; j++ {
					var cols []int
					for c := j; c < n; c += m {
						cols = append(cols, c)
					}
					got := LowerInverseColumns(l, cols, unit)
					if got.Rows != n || got.Cols != len(cols) {
						t.Fatalf("n=%d m=%d j=%d: shape %dx%d", n, m, j, got.Rows, got.Cols)
					}
					if err := sameBits(got, want, cols); err != nil {
						t.Fatalf("n=%d unit=%v class %d mod %d: %v", n, unit, j, m, err)
					}
				}
			}
		}
	}
}

func TestLowerColumnsBandsBitIdentical(t *testing.T) {
	// Consuming the factor in bands of any height gives the same bits as
	// one band: the streaming mappers and the in-memory mappers agree.
	n := 53
	l := testLower(t, n, false, 11)
	cols := []int{0, 4, 9, 26, 51, 52}
	want := LowerInverseColumns(l, cols, false)
	for _, band := range []int{1, 3, 8, 13, 52, 100} {
		lc := NewLowerColumns(n, cols, false)
		for r0 := 0; r0 < n; r0 += band {
			lc.Add(l.Block(r0, minInt(r0+band, n), 0, n))
		}
		if err := sameBits(lc.Inverse(), want, allIndices(len(cols))); err != nil {
			t.Fatalf("band %d: %v", band, err)
		}
	}
}

func TestLowerColumnsRejectsUnsortedColumns(t *testing.T) {
	for _, cols := range [][]int{{3, 1}, {2, 2}, {-1}, {5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cols %v accepted for order 5", cols)
				}
			}()
			NewLowerColumns(5, cols, true)
		}()
	}
}

func TestUpperLowerProductBitIdenticalToDot(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 129} {
		f, err := Decompose(workload.Random(n, int64(100+n)))
		if err != nil {
			t.Fatal(err)
		}
		linv := LowerInverse(f.L(), true)
		uinv, err := UpperInverse(f.U())
		if err != nil {
			t.Fatal(err)
		}
		for _, grid := range [][2]int{{1, 1}, {2, 1}, {3, 2}, {4, 4}} {
			f1, f2 := grid[0], grid[1]
			for rg := 0; rg < f1; rg++ {
				for cg := 0; cg < f2; cg++ {
					var rows, cols []int
					for i := rg; i < n; i += f1 {
						rows = append(rows, i)
					}
					for j := cg; j < n; j += f2 {
						cols = append(cols, j)
					}
					if len(rows) == 0 || len(cols) == 0 {
						continue
					}
					u := matrix.New(len(rows), n)
					for bi, i := range rows {
						copy(u.Row(bi), uinv.Row(i))
					}
					l := matrix.New(n, len(cols))
					for bj, j := range cols {
						for k := 0; k < n; k++ {
							l.Set(k, bj, linv.At(k, j))
						}
					}
					got := UpperLowerProduct(u, rows, l, cols)
					for bi, i := range rows {
						for bj, j := range cols {
							want := matrix.Dot(uinv.Row(i), linv.Col(j))
							if g := got.At(bi, bj); math.Float64bits(g) != math.Float64bits(want) {
								t.Fatalf("n=%d grid %dx%d: (%d,%d) = %v, Dot gives %v", n, f1, f2, i, j, g, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestInverseMatchesDenseProduct(t *testing.T) {
	// Factorization.Inverse's triangle-aware product equals the dense
	// i-k-j product of the same factors, bit for bit.
	for _, n := range []int{1, 5, 40, 97} {
		f, err := Decompose(workload.Random(n, int64(200+n)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		uinv, err := UpperInverse(f.U())
		if err != nil {
			t.Fatal(err)
		}
		prod, err := matrix.Mul(uinv, LowerInverse(f.L(), true))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, f.P.ApplyCols(prod), allIndices(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
