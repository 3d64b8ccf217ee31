package core

import (
	"fmt"

	"repro/internal/lu"
	"repro/internal/matrix"
)

// Streaming factor access. The paper's triangular-inversion mappers run on
// 3.7 GB instances against factors of up to 42 GB, so they cannot hold a
// full factor: they read the N(d) factor files progressively ("these
// files are read into memory recursively", Section 6.1). This file
// implements that access pattern: row bands of L (and of U^T) are
// assembled on demand, and the row-oriented Equation 4 kernel
// (lu.LowerColumns) consumes the factor one band at a time, keeping only
// the output columns and the current band resident.

// readLRows assembles rows [r0, r1) of the unit lower factor: a
// (r1-r0) x n matrix. Leaf files are at most nb x nb, so peak extra
// memory is one band plus one leaf.
func (hd *luHandle) readLRows(rd fsReader, r0, r1 int) (*matrix.Dense, error) {
	if r0 < 0 || r1 > hd.n || r0 > r1 {
		return nil, fmt.Errorf("core: readLRows [%d:%d) of order %d", r0, r1, hd.n)
	}
	out := matrix.New(r1-r0, hd.n)
	if r0 == r1 {
		return out, nil
	}
	if hd.leaf {
		full, err := rd.readMatrix(hd.lFile.Path)
		if err != nil {
			return nil, err
		}
		return full.Block(r0, r1, 0, hd.n), nil
	}
	h := hd.h
	if r0 < h {
		top, err := hd.h1.readLRows(rd, r0, minInt(r1, h))
		if err != nil {
			return nil, err
		}
		out.SetBlock(0, 0, top)
	}
	if r1 > h {
		blo, bhi := maxIntc(r0, h)-h, r1-h
		// Rows blo..bhi of the bottom half: [P2 L2' | L3]. Row i of P2 L2'
		// is row p2[i] of L2'; fetch the covering range once and gather.
		p2 := hd.h2.p
		lo, hi := hd.n, 0
		for i := blo; i < bhi; i++ {
			if p2[i] < lo {
				lo = p2[i]
			}
			if p2[i]+1 > hi {
				hi = p2[i] + 1
			}
		}
		l2rows, err := readRegion(rd, hd.l2, lo, hi, 0, h)
		if err != nil {
			return nil, err
		}
		l3rows, err := hd.h2.readLRows(rd, blo, bhi)
		if err != nil {
			return nil, err
		}
		for i := blo; i < bhi; i++ {
			dst := out.Row(maxIntc(r0, h) - r0 + (i - blo))
			copy(dst[:h], l2rows.Row(p2[i]-lo))
			copy(dst[h:], l3rows.Row(i-blo))
		}
	}
	return out, nil
}

// readUTRows assembles rows [r0, r1) of U^T (i.e. columns of U): the unit
// the U-inversion mappers stream.
func (hd *luHandle) readUTRows(rd fsReader, r0, r1 int) (*matrix.Dense, error) {
	if r0 < 0 || r1 > hd.n || r0 > r1 {
		return nil, fmt.Errorf("core: readUTRows [%d:%d) of order %d", r0, r1, hd.n)
	}
	out := matrix.New(r1-r0, hd.n)
	if r0 == r1 {
		return out, nil
	}
	if hd.leaf {
		var ut *matrix.Dense
		var err error
		if hd.uFile.Transposed {
			ut, err = rd.readMatrix(hd.uFile.Path)
		} else {
			var u *matrix.Dense
			u, err = rd.readMatrix(hd.uFile.Path)
			if err == nil {
				ut = u.Transpose()
			}
		}
		if err != nil {
			return nil, err
		}
		return ut.Block(r0, r1, 0, hd.n), nil
	}
	h := hd.h
	// U^T = [[U1^T, 0], [U2^T, U3^T]].
	if r0 < h {
		top, err := hd.h1.readUTRows(rd, r0, minInt(r1, h))
		if err != nil {
			return nil, err
		}
		out.SetBlock(0, 0, top)
	}
	if r1 > h {
		blo, bhi := maxIntc(r0, h)-h, r1-h
		// Rows of U^T below h are columns blo..bhi of U2 alongside rows of U3^T.
		u2t, err := readRegionTransposed(rd, hd.u2, blo, bhi, 0, hd.u2.Rows)
		if err != nil {
			return nil, err
		}
		u3t, err := hd.h2.readUTRows(rd, blo, bhi)
		if err != nil {
			return nil, err
		}
		off := maxIntc(r0, h) - r0
		for i := 0; i < bhi-blo; i++ {
			dst := out.Row(off + i)
			copy(dst[:h], u2t.Row(i))
			copy(dst[h:], u3t.Row(i))
		}
	}
	return out, nil
}

// bandReader yields consecutive row bands of a factor.
type bandReader func(r0, r1 int) (*matrix.Dense, error)

// streamStats reports a band-wise inversion's memory behaviour.
type streamStats struct {
	bands     int
	peakElems int // largest simultaneously-resident element count
}

// lowerInverseBands computes the given (sorted) columns of the inverse of
// a unit (or general) lower triangular factor of order n, reading the
// factor in row bands of height bandRows and keeping only the current
// band plus the output columns in memory. It is the only inversion path
// of the final job's mappers: the in-memory mappers read one band of n
// rows, the streaming ones bands of n/m0.
func lowerInverseBands(read bandReader, n int, cols []int, unitDiagonal bool, bandRows int) (*matrix.Dense, *streamStats, error) {
	if bandRows < 1 {
		bandRows = 1
	}
	inv := lu.NewLowerColumns(n, cols, unitDiagonal)
	st := &streamStats{}
	for r0 := 0; r0 < n; r0 += bandRows {
		band, err := read(r0, minInt(r0+bandRows, n))
		if err != nil {
			return nil, nil, err
		}
		st.bands++
		if e := band.Rows*band.Cols + n*len(cols); e > st.peakElems {
			st.peakElems = e
		}
		inv.Add(band)
	}
	return inv.Inverse(), st, nil
}
