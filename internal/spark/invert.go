package spark

import (
	"fmt"

	"repro/internal/lu"
	"repro/internal/matrix"
)

// Block-LU matrix inversion expressed as RDD transformations — the
// paper's Section 8 port: the same recursion as internal/core, but every
// intermediate (L2' bands, U2 bands, B blocks, triangular-inverse columns,
// product blocks) is an in-memory RDD partition instead of an HDFS file,
// and fault tolerance comes from lineage recomputation instead of job
// re-execution. Factors of completed sub-levels are assembled on the
// driver and broadcast into the next stages' closures, as a Spark driver
// would broadcast them.

// block is one stored piece of a distributed matrix: the submatrix m
// covering rows [r0, r1) x cols [c0, c1) of its level's frame.
type block struct {
	r0, r1, c0, c1 int
	m              *matrix.Dense
}

// dmat is a level's input matrix: either driver-resident or the blocks of
// one or more parent RDDs. read extracts a region given the materialized
// parent records.
type dmat struct {
	n       int
	parents []*RDD
	read    func(deps [][]Record, r0, r1, c0, c1 int) (*matrix.Dense, error)
}

// driverMat wraps a driver-held matrix.
func driverMat(a *matrix.Dense) dmat {
	return dmat{
		n: a.Rows,
		read: func(_ [][]Record, r0, r1, c0, c1 int) (*matrix.Dense, error) {
			return a.Block(r0, r1, c0, c1), nil
		},
	}
}

// rddMat wraps an RDD of block records covering an n x n frame.
func rddMat(n int, r *RDD) dmat {
	return dmat{
		n:       n,
		parents: []*RDD{r},
		read: func(deps [][]Record, r0, r1, c0, c1 int) (*matrix.Dense, error) {
			return assembleRegion(deps[0], r0, r1, c0, c1)
		},
	}
}

// assembleRegion builds the region [r0,r1) x [c0,c1) from block records.
func assembleRegion(recs []Record, r0, r1, c0, c1 int) (*matrix.Dense, error) {
	out := matrix.New(r1-r0, c1-c0)
	covered := 0
	for _, rec := range recs {
		b, ok := rec.(block)
		if !ok {
			return nil, fmt.Errorf("spark: non-block record %T in matrix RDD", rec)
		}
		ir0, ir1 := maxI(b.r0, r0), minI(b.r1, r1)
		ic0, ic1 := maxI(b.c0, c0), minI(b.c1, c1)
		if ir0 >= ir1 || ic0 >= ic1 {
			continue
		}
		part := b.m.Block(ir0-b.r0, ir1-b.r0, ic0-b.c0, ic1-b.c0)
		out.SetBlock(ir0-r0, ic0-c0, part)
		covered += part.Rows * part.Cols
	}
	if covered != (r1-r0)*(c1-c0) {
		return nil, fmt.Errorf("spark: region [%d:%d,%d:%d] covered %d of %d elements",
			r0, r1, c0, c1, covered, (r1-r0)*(c1-c0))
	}
	return out, nil
}

// factors is the driver-side handle to one (sub)decomposition.
type factors struct {
	n    int
	p    matrix.Perm
	leaf bool

	// Leaf factors live on the driver.
	leafL, leafU *matrix.Dense

	// Internal nodes keep band RDDs plus child handles.
	h  int
	h1 *factors
	h2 *factors
	l2 *RDD // block records: unpermuted L2' row bands
	u2 *RDD // block records: U2 column bands
}

// assembleL collects the full unit lower factor to the driver.
func (f *factors) assembleL() (*matrix.Dense, error) {
	if f.leaf {
		return f.leafL, nil
	}
	l1, err := f.h1.assembleL()
	if err != nil {
		return nil, err
	}
	l2recs, err := f.l2.Collect()
	if err != nil {
		return nil, err
	}
	l2p, err := assembleRegion(l2recs, 0, f.n-f.h, 0, f.h)
	if err != nil {
		return nil, err
	}
	l3, err := f.h2.assembleL()
	if err != nil {
		return nil, err
	}
	out := matrix.New(f.n, f.n)
	out.SetBlock(0, 0, l1)
	out.SetBlock(f.h, 0, f.h2.p.ApplyRows(l2p))
	out.SetBlock(f.h, f.h, l3)
	return out, nil
}

// assembleU collects the full upper factor to the driver.
func (f *factors) assembleU() (*matrix.Dense, error) {
	if f.leaf {
		return f.leafU, nil
	}
	u1, err := f.h1.assembleU()
	if err != nil {
		return nil, err
	}
	u2recs, err := f.u2.Collect()
	if err != nil {
		return nil, err
	}
	u2, err := assembleRegion(u2recs, 0, f.h, 0, f.n-f.h)
	if err != nil {
		return nil, err
	}
	u3, err := f.h2.assembleU()
	if err != nil {
		return nil, err
	}
	out := matrix.New(f.n, f.n)
	out.SetBlock(0, 0, u1)
	out.SetBlock(0, f.h, u2)
	out.SetBlock(f.h, f.h, u3)
	return out, nil
}

// Inverter runs block-LU inversion on a spark Context. Partitions per
// stage default to the context parallelism.
type Inverter struct {
	Ctx *Context
	// NB is the bound value: leaves of order <= NB factor on the driver.
	NB int
	// Bands is the number of partitions for band stages (the analog of
	// m0/2 mappers per half in the MapReduce version).
	Bands int
	// keep references for fault-injection tests: every stage RDD created.
	Stages []*RDD
}

// NewInverter builds an inverter with defaults.
func NewInverter(ctx *Context, nb, bands int) *Inverter {
	if nb < 1 {
		nb = 1
	}
	if bands < 1 {
		bands = ctx.workers
	}
	return &Inverter{Ctx: ctx, NB: nb, Bands: bands}
}

func (iv *Inverter) track(r *RDD) *RDD {
	iv.Stages = append(iv.Stages, r.Cache())
	return r
}

// Invert computes A^-1. A lives on the driver; all intermediates are RDD
// partitions.
func (iv *Inverter) Invert(a *matrix.Dense) (*matrix.Dense, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("spark: Invert: %dx%d not square", a.Rows, a.Cols)
	}
	if a.Rows == 0 {
		return matrix.New(0, 0), nil
	}
	f, err := iv.decompose(driverMat(a), "A")
	if err != nil {
		return nil, err
	}
	return iv.invertFromFactors(f)
}

// decompose runs the block recursion over a level input.
func (iv *Inverter) decompose(in dmat, label string) (*factors, error) {
	n := in.n
	if n <= iv.NB {
		whole, err := iv.readWhole(in)
		if err != nil {
			return nil, err
		}
		fac, err := lu.Decompose(whole)
		if err != nil {
			return nil, fmt.Errorf("spark: leaf %s: %w", label, err)
		}
		return &factors{n: n, p: fac.P, leaf: true, leafL: fac.L(), leafU: fac.U()}, nil
	}
	h := (n + 1) / 2

	// Recurse on A1 (a sliced view of the level input).
	a1 := sliceMat(in, 0, h, 0, h)
	h1, err := iv.decompose(a1, label+"/A1")
	if err != nil {
		return nil, err
	}
	// Broadcast the child's factors from the driver.
	l1, err := h1.assembleL()
	if err != nil {
		return nil, err
	}
	u1, err := h1.assembleU()
	if err != nil {
		return nil, err
	}
	p1 := h1.p
	bands := iv.Bands
	nbot := n - h

	// Stage: L2' bands — L2' U1 = A3 (Equation 6).
	l2 := iv.track(iv.Ctx.JoinWith("L2'@"+label, bands, in.parents,
		func(p int, deps [][]Record) ([]Record, error) {
			lo, hi := nbot*p/bands, nbot*(p+1)/bands
			if lo == hi {
				return nil, nil
			}
			a3band, err := in.read(deps, h+lo, h+hi, 0, h)
			if err != nil {
				return nil, err
			}
			band, err := lu.SolveRowsUpper(u1, a3band)
			if err != nil {
				return nil, err
			}
			return []Record{block{r0: lo, r1: hi, c0: 0, c1: h, m: band}}, nil
		}))

	// Stage: U2 bands — L1 U2 = P1 A2 (Equation 6).
	u2 := iv.track(iv.Ctx.JoinWith("U2@"+label, bands, in.parents,
		func(p int, deps [][]Record) ([]Record, error) {
			lo, hi := nbot*p/bands, nbot*(p+1)/bands
			if lo == hi {
				return nil, nil
			}
			a2band, err := in.read(deps, 0, h, h+lo, h+hi)
			if err != nil {
				return nil, err
			}
			band, err := lu.ForwardSubstMatrix(l1, p1.ApplyRows(a2band), true)
			if err != nil {
				return nil, err
			}
			return []Record{block{r0: 0, r1: h, c0: lo, c1: hi, m: band}}, nil
		}))

	// Stage: B = A4 - L2'U2 blocks (wide dep on the level input and both
	// band stages — the shuffle boundary of Figure 5's reduce side).
	parents := append(append([]*RDD{}, in.parents...), l2, u2)
	nParents := len(in.parents)
	b := iv.track(iv.Ctx.JoinWith("B@"+label, bands, parents,
		func(p int, deps [][]Record) ([]Record, error) {
			lo, hi := nbot*p/bands, nbot*(p+1)/bands
			if lo == hi {
				return nil, nil
			}
			a4band, err := in.read(deps[:nParents], h+lo, h+hi, h, n)
			if err != nil {
				return nil, err
			}
			l2band, err := assembleRegion(deps[nParents], lo, hi, 0, h)
			if err != nil {
				return nil, err
			}
			u2full, err := assembleRegion(deps[nParents+1], 0, h, 0, nbot)
			if err != nil {
				return nil, err
			}
			prod, err := matrix.Mul(l2band, u2full)
			if err != nil {
				return nil, err
			}
			if err := matrix.SubInPlace(a4band, prod); err != nil {
				return nil, err
			}
			return []Record{block{r0: lo, r1: hi, c0: 0, c1: nbot, m: a4band}}, nil
		}))

	h2, err := iv.decompose(rddMat(nbot, b), label+"/B")
	if err != nil {
		return nil, err
	}
	return &factors{
		n: n, h: h, h1: h1, h2: h2, l2: l2, u2: u2,
		p: matrix.Augment(p1, h2.p),
	}, nil
}

// readWhole materializes a dmat on the driver.
func (iv *Inverter) readWhole(in dmat) (*matrix.Dense, error) {
	deps := make([][]Record, len(in.parents))
	for i, p := range in.parents {
		recs, err := p.Collect()
		if err != nil {
			return nil, err
		}
		deps[i] = recs
	}
	return in.read(deps, 0, in.n, 0, in.n)
}

// sliceMat narrows a dmat to a square region (metadata only).
func sliceMat(in dmat, r0, r1, c0, c1 int) dmat {
	return dmat{
		n:       r1 - r0,
		parents: in.parents,
		read: func(deps [][]Record, rr0, rr1, cc0, cc1 int) (*matrix.Dense, error) {
			return in.read(deps, r0+rr0, r0+rr1, c0+cc0, c0+cc1)
		},
	}
}

// colsRec carries computed inverse columns (or rows, transposed) with
// their global indices.
type colsRec struct {
	idx []int
	m   *matrix.Dense // n x len(idx): column bi is global column idx[bi]
}

// invertFromFactors runs the final triangular-inversion and multiply
// stages on the engine.
func (iv *Inverter) invertFromFactors(f *factors) (*matrix.Dense, error) {
	n := f.n
	l, err := f.assembleL()
	if err != nil {
		return nil, err
	}
	u, err := f.assembleU()
	if err != nil {
		return nil, err
	}
	ut := u.Transpose()
	p := f.p
	bands := iv.Bands

	// Stage: interleaved columns of L^-1.
	linv := iv.track(iv.Ctx.Range("linv-cols", bands, bands).MapPartitions("L-1@final",
		func(part int, _ []Record) ([]Record, error) {
			return invertColumns(l, n, bands, part, true), nil
		}))
	// Stage: interleaved rows of U^-1 as columns of (U^T)^-1.
	uinv := iv.track(iv.Ctx.Range("uinv-rows", bands, bands).MapPartitions("U-1@final",
		func(part int, _ []Record) ([]Record, error) {
			return invertColumns(ut, n, bands, part, false), nil
		}))

	// Stage: product grid blocks of U^-1 L^-1, pivot applied.
	prod := iv.track(iv.Ctx.JoinWith("A-1@final", bands, []*RDD{uinv, linv},
		func(part int, deps [][]Record) ([]Record, error) {
			// Rows of the output assigned to this partition: r ≡ part (mod
			// bands). Row r of U^-1 is column r of (U^T)^-1.
			rows := interleavedIdx(n, bands, part)
			uRows, err := gatherCols(deps[0], n, rows, true)
			if err != nil {
				return nil, fmt.Errorf("spark: U^-1: %w", err)
			}
			all := interleavedIdx(n, 1, 0)
			lCols, err := gatherCols(deps[1], n, all, false)
			if err != nil {
				return nil, fmt.Errorf("spark: L^-1: %w", err)
			}
			prod := lu.UpperLowerProduct(uRows, rows, lCols, all)
			var out []Record
			for bi, r := range rows {
				rowOut := matrix.New(1, n)
				for c, v := range prod.Row(bi) {
					rowOut.Data[p[c]] = v
				}
				out = append(out, block{r0: r, r1: r + 1, c0: 0, c1: n, m: rowOut})
			}
			return out, nil
		}))

	recs, err := prod.Collect()
	if err != nil {
		return nil, err
	}
	return assembleRegion(recs, 0, n, 0, n)
}

// interleavedIdx returns {c ≡ part (mod bands) : 0 ≤ c < n}, ascending.
func interleavedIdx(n, bands, part int) []int {
	var idx []int
	for c := part; c < n; c += bands {
		idx = append(idx, c)
	}
	return idx
}

// invertColumns computes the interleaved columns {c ≡ part (mod bands)}
// of the inverse of lower-triangular lt (unit diagonal when unit).
func invertColumns(lt *matrix.Dense, n, bands, part int, unit bool) []Record {
	idx := interleavedIdx(n, bands, part)
	if len(idx) == 0 {
		return nil
	}
	return []Record{colsRec{idx: idx, m: lu.LowerInverseColumns(lt, idx, unit)}}
}

// gatherCols collects the inverse columns want (ascending) of order n from
// colsRec records into one dense block: n x len(want), or len(want) x n
// when asRows.
func gatherCols(recs []Record, n int, want []int, asRows bool) (*matrix.Dense, error) {
	at := make([]int, n)
	for i := range at {
		at[i] = -1
	}
	for i, c := range want {
		at[c] = i
	}
	out := matrix.New(n, len(want))
	if asRows {
		out = matrix.New(len(want), n)
	}
	found := 0
	for _, rec := range recs {
		cr, ok := rec.(colsRec)
		if !ok {
			continue
		}
		for bi, c := range cr.idx {
			if c < 0 || c >= n || at[c] < 0 {
				continue
			}
			for r := 0; r < n; r++ {
				v := cr.m.Data[r*cr.m.Cols+bi]
				if asRows {
					out.Data[at[c]*n+r] = v
				} else {
					out.Data[r*len(want)+at[c]] = v
				}
			}
			at[c] = -1 // each column counts once
			found++
		}
	}
	if found != len(want) {
		return nil, fmt.Errorf("%d of %d columns missing", len(want)-found, len(want))
	}
	return out, nil
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
