package core

import (
	"fmt"

	"repro/internal/lu"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// The final MapReduce job (Section 5.4): mappers invert the triangular
// factors column-independently (Equation 4) — half of them computing
// interleaved columns of L^-1, the other half interleaved rows of U^-1
// (as columns of (U^T)^-1) — and reducers multiply U^-1 L^-1 on a grid of
// discrete rows x discrete columns (block wrap over interleaved index
// classes, which balances load because triangular work varies by index),
// applying the pivot permutation to produce A^-1. Both steps run the
// row-oriented kernels of package lu (LowerColumns, UpperLowerProduct),
// which reproduce Equation 4 and a dot-product multiply bit for bit while
// walking only contiguous rows and skipping the factors' zero triangles.
//
// Permutation convention: from PA = LU it follows that
// A^-1 = U^-1 L^-1 P, a *column* permutation of the product — column k of
// U^-1 L^-1 becomes column p[k] of A^-1, which is what the reducers
// apply. (The paper's Section 4.3 one-liner "[A^-1][S]ij = sum U^-1ik
// L^-1kj" reads as a row scatter; with their S defined as "the permuted
// row number for the i-th row" the two statements coincide — the
// convention here is the one verified by the A*A^-1 = I tests.)

// runInvertJob executes the job and assembles the final inverse.
func (st *pipelineState) runInvertJob(hd *luHandle) (*matrix.Dense, error) {
	m0 := st.opts.Nodes
	mhalf := m0 / 2
	n := hd.n
	f1, f2 := FactorPair(m0)
	if !st.opts.BlockWrap {
		f1, f2 = m0, 1
	}
	root := st.opts.Root
	p := hd.p

	job := &mapreduce.Job{
		Name:      "invert",
		Splits:    mapreduce.ControlSplits(m0),
		NumReduce: m0,
		Priority:  st.opts.Priority,
		Partition: func(key string, nred int) int {
			var v int
			fmt.Sscanf(key, "%d", &v)
			return v % nred
		},
		Map: func(ctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			j := split.ID
			rd := nodeReader{fs: ctx.FS, node: ctx.Node}
			if j < mhalf {
				if err := invertLColumns(rd, st, root, j, mhalf, f2, hd); err != nil {
					return err
				}
			} else {
				if err := invertURows(rd, st, root, j-mhalf, mhalf, f1, hd); err != nil {
					return err
				}
			}
			emit.Emit(fmt.Sprintf("%d", j), nil)
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
			var r int
			if _, err := fmt.Sscanf(key, "%d", &r); err != nil {
				return err
			}
			return multiplyInverseBlock(nodeReader{fs: ctx.FS, node: ctx.Node}, st, root, r, mhalf, f1, f2, n, p)
		},
	}
	job.TraceParent = st.span
	jr, err := st.cluster.RunCtx(st.runCtx(), job)
	if err != nil {
		return nil, err
	}
	st.recordJob(jr)

	// Assemble A^-1 from the reducers' indexed output blocks.
	aspan := st.span.Child("assemble_output", obs.KindOp)
	defer aspan.Finish()
	out := matrix.New(n, n)
	rd := masterReader(st.fs)
	for r := 0; r < m0; r++ {
		path := fmt.Sprintf("%s/INV/A.%d", root, r)
		if !st.fs.Exists(path) {
			continue // empty grid cell (more nodes than rows)
		}
		blk, err := readIndexed(rd, path)
		if err != nil {
			return nil, err
		}
		for bi, gi := range blk.RowIdx {
			src, dst := blk.Data.Row(bi), out.Row(gi)
			for bj, gj := range blk.ColIdx {
				dst[gj] = src[bj]
			}
		}
	}
	return out, nil
}

// interleaved returns the sorted indices {k : k ≡ j (mod m), k < n} — the
// paper's balanced assignment of non-contiguous columns to node j.
func interleaved(n, m, j int) []int {
	var out []int
	for k := j; k < n; k += m {
		out = append(out, k)
	}
	return out
}

// invertLColumns computes L-mapper j's interleaved columns of L^-1 and
// writes them grouped by column residue class mod f2, so that reducer
// column-group t reads exactly the files ending in .t.
func invertLColumns(rd nodeReader, st *pipelineState, root string, j, mhalf, f2 int, hd *luHandle) error {
	n := hd.n
	cols := interleaved(n, mhalf, j)
	compact, _, err := lowerInverseBands(func(r0, r1 int) (*matrix.Dense, error) {
		return hd.readLRows(rd, r0, r1)
	}, n, cols, true, st.inversionBandRows(n))
	if err != nil {
		return err
	}
	return writeInterleavedGroups(st, fmt.Sprintf("%s/LINV/L.%d", root, j), compact, cols, f2, false)
}

// invertURows computes U-mapper j's interleaved rows of U^-1 by inverting
// the corresponding columns of (U^T)^-1 (the Section 4.1 transpose trick),
// grouped by row residue class mod f1.
func invertURows(rd nodeReader, st *pipelineState, root string, j, mhalf, f1 int, hd *luHandle) error {
	n := hd.n
	rows := interleaved(n, mhalf, j)
	compact, _, err := lowerInverseBands(func(r0, r1 int) (*matrix.Dense, error) {
		return hd.readUTRows(rd, r0, r1)
	}, n, rows, false, st.inversionBandRows(n))
	if err != nil {
		return err
	}
	// Column r of (U^T)^-1 is row r of U^-1.
	return writeInterleavedGroups(st, fmt.Sprintf("%s/UINV/U.%d", root, j), compact, rows, f1, true)
}

// inversionBandRows is the height of the factor bands the inversion
// mappers read: the whole factor at once, or with StreamingInversion one
// m0-th of the order (at least one row).
func (st *pipelineState) inversionBandRows(n int) int {
	if !st.opts.StreamingInversion {
		return n
	}
	return maxIntc(n/st.opts.Nodes, 1)
}

// writeInterleavedGroups splits the compact column block (column bi is
// global index idx[bi]) into residue classes mod m and writes one indexed
// file per non-empty class. asRows stores each class transposed, i.e. the
// columns become rows of the stored block (used for U^-1 whose natural
// unit is a row).
func writeInterleavedGroups(st *pipelineState, base string, compact *matrix.Dense, idx []int, m int, asRows bool) error {
	n, w := compact.Rows, compact.Cols
	for t := 0; t < m; t++ {
		var group []int
		var groupAt []int
		for bi, c := range idx {
			if c%m == t {
				group = append(group, c)
				groupAt = append(groupAt, bi)
			}
		}
		if len(group) == 0 {
			continue
		}
		var ib indexedBlock
		if asRows {
			block := matrix.New(len(group), n)
			for gi, bi := range groupAt {
				row := block.Row(gi)
				for r := range row {
					row[r] = compact.Data[r*w+bi]
				}
			}
			ib = indexedBlock{RowIdx: group, Data: block}
		} else {
			block := matrix.New(n, len(group))
			for r := 0; r < n; r++ {
				src, dst := compact.Row(r), block.Row(r)
				for gi, bi := range groupAt {
					dst[gi] = src[bi]
				}
			}
			ib = indexedBlock{ColIdx: group, Data: block}
		}
		if err := writeIndexed(st.fs, fmt.Sprintf("%s.%d", base, t), ib); err != nil {
			return err
		}
	}
	return nil
}

// multiplyInverseBlock computes reducer r's grid block of U^-1 L^-1: rows
// of U^-1 with index ≡ r/f2 (mod f1) times columns of L^-1 with index
// ≡ r%f2 (mod f2). The result columns are scattered through the pivot
// permutation P (A^-1 = U^-1 L^-1 P) and written as an indexed block.
func multiplyInverseBlock(rd nodeReader, st *pipelineState, root string, r, mhalf, f1, f2, n int, p matrix.Perm) error {
	rg, cg := r/f2, r%f2

	// Gather U^-1 rows ≡ rg (mod f1) from the U-mappers' .rg files into
	// one dense block, row (g-rg)/f1 holding global row g.
	uRows := interleaved(n, f1, rg)
	uBlk := matrix.New(len(uRows), n)
	got := 0
	for i := 0; i < mhalf; i++ {
		path := fmt.Sprintf("%s/UINV/U.%d.%d", root, i, rg)
		if !st.fs.Exists(path) {
			continue
		}
		blk, err := readIndexed(rd, path)
		if err != nil {
			return err
		}
		if blk.Data.Cols != n {
			return fmt.Errorf("core: %s holds rows of length %d, want %d", path, blk.Data.Cols, n)
		}
		for bi, g := range blk.RowIdx {
			if g >= n || g%f1 != rg {
				return fmt.Errorf("core: %s holds row %d, not ≡ %d (mod %d)", path, g, rg, f1)
			}
			copy(uBlk.Row((g-rg)/f1), blk.Data.Row(bi))
		}
		got += len(blk.RowIdx)
	}
	// Gather L^-1 columns ≡ cg (mod f2) from the L-mappers' .cg files the
	// same way: column (g-cg)/f2 of the block holds global column g.
	lCols := interleaved(n, f2, cg)
	lBlk := matrix.New(n, len(lCols))
	for i := 0; i < mhalf; i++ {
		path := fmt.Sprintf("%s/LINV/L.%d.%d", root, i, cg)
		if !st.fs.Exists(path) {
			continue
		}
		blk, err := readIndexed(rd, path)
		if err != nil {
			return err
		}
		if blk.Data.Rows != n {
			return fmt.Errorf("core: %s holds columns of length %d, want %d", path, blk.Data.Rows, n)
		}
		at := make([]int, len(blk.ColIdx))
		for bj, g := range blk.ColIdx {
			if g >= n || g%f2 != cg {
				return fmt.Errorf("core: %s holds column %d, not ≡ %d (mod %d)", path, g, cg, f2)
			}
			at[bj] = (g - cg) / f2
		}
		for k := 0; k < n; k++ {
			src, dst := blk.Data.Row(k), lBlk.Row(k)
			for bj, c := range at {
				dst[c] = src[bj]
			}
		}
		got += len(at)
	}
	if len(uRows) == 0 || len(lCols) == 0 {
		return nil
	}
	if got != len(uRows)+len(lCols) {
		return fmt.Errorf("core: reducer %d gathered %d of %d U^-1 rows and L^-1 columns", r, got, len(uRows)+len(lCols))
	}

	// C = U^-1 rows x L^-1 columns, skipping both zero triangles; the
	// final column index of L^-1 column c is p[c].
	out := lu.UpperLowerProduct(uBlk, uRows, lBlk, lCols)
	colIdx := make([]int, len(lCols))
	for bj, c := range lCols {
		colIdx[bj] = p[c]
	}
	return writeIndexed(st.fs, fmt.Sprintf("%s/INV/A.%d", root, r),
		indexedBlock{RowIdx: uRows, ColIdx: colIdx, Data: out})
}
