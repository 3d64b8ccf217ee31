package matrix

import "fmt"

// Mul returns the matrix product a*b using a cache-friendly kernel.
//
// The inner kernel iterates a row of a against rows of b (i-k-j order), so b
// is accessed row-major — the same access-pattern argument the paper makes
// for storing U transposed (Section 6.3).
func Mul(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, shapeErr("matrix: Mul", a, b)
	}
	out := New(a.Rows, b.Cols)
	n, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < n; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				orow[j] += aik * bv
			}
		}
	}
	return out, nil
}

// MulTransB returns a * bT.Transpose(), i.e. the product of a with the
// transpose of bT, without materializing the transpose. This is the paper's
// Equation 8 kernel: when U is stored transposed, [L'2 U2]ij reduces to a
// dot product of two rows, avoiding strided column walks (Section 6.3).
func MulTransB(a, bT *Dense) (*Dense, error) {
	if a.Cols != bT.Cols {
		return nil, shapeErr("matrix: MulTransB", a, bT)
	}
	out := New(a.Rows, bT.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < bT.Rows; j++ {
			orow[j] = Dot(arow, bT.Row(j))
		}
	}
	return out, nil
}

// MulAddTransB accumulates dst += a * bT.Transpose() with the same
// row-dot kernel as MulTransB. It is the accumulation step of the
// multi-round multiply strategies: each round adds one inner-dimension
// segment's partial product into the running block, and because every
// segment's dot product is formed exactly as MulTransB forms it, the
// distributed accumulation is bit-identical to MulSegTransB's sequential
// left fold.
func MulAddTransB(dst, a, bT *Dense) error {
	if a.Cols != bT.Cols {
		return shapeErr("matrix: MulAddTransB", a, bT)
	}
	if dst.Rows != a.Rows || dst.Cols != bT.Rows {
		return shapeErr("matrix: MulAddTransB dst", dst, a)
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < bT.Rows; j++ {
			drow[j] += Dot(arow, bT.Row(j))
		}
	}
	return nil
}

// MulSegTransB is the sequential reference for the multi-round multiply
// strategies: a * bT.Transpose() computed one inner-dimension segment at
// a time, accumulating segments in ascending order (a left fold). bounds
// holds the segment edges, bounds[0] = 0 and bounds[len-1] = a.Cols.
// With a single segment the result is bit-identical to MulTransB; with
// more, floating-point non-associativity makes the segmented fold the
// ground truth the distributed strategies must match bit for bit.
func MulSegTransB(a, bT *Dense, bounds []int) (*Dense, error) {
	if a.Cols != bT.Cols {
		return nil, shapeErr("matrix: MulSegTransB", a, bT)
	}
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != a.Cols {
		return nil, fmt.Errorf("matrix: MulSegTransB: bad segment bounds %v for inner dim %d", bounds, a.Cols)
	}
	out := New(a.Rows, bT.Rows)
	for s := 0; s+1 < len(bounds); s++ {
		k0, k1 := bounds[s], bounds[s+1]
		if k1 < k0 {
			return nil, fmt.Errorf("matrix: MulSegTransB: descending segment bounds %v", bounds)
		}
		if k0 == k1 {
			continue
		}
		aseg := a.Block(0, a.Rows, k0, k1)
		bseg := bT.Block(0, bT.Rows, k0, k1)
		if err := MulAddTransB(out, aseg, bseg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MulNaiveColumnOrder multiplies with the textbook i-j-k loop that walks b
// by column. It exists as the unoptimized comparator for the Section 6.3
// transposed-storage optimization; production code should use Mul or
// MulTransB.
func MulNaiveColumnOrder(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, shapeErr("matrix: MulNaiveColumnOrder", a, b)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out, nil
}
