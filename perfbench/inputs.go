package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// dense is the benchmark's own row-major matrix. Inputs are generated and
// answers are checked on this type, so a change to the program's matrix
// package cannot change what the benchmark sends or how it judges.
type dense struct {
	rows, cols int
	data       []float64
}

func (m dense) at(i, j int) float64 { return m.data[i*m.cols+j] }

// uniform returns an r x c matrix with Uniform(-1,1) entries, the paper's
// synthetic workload.
func uniform(rng *rand.Rand, r, c int) dense {
	m := dense{r, c, make([]float64, r*c)}
	for i := range m.data {
		m.data[i] = 2*rng.Float64() - 1
	}
	return m
}

// dominant returns an n x n matrix with Uniform(-1,1) off-diagonal
// entries and n on the diagonal: strictly diagonally dominant, so every
// block the pipeline factors is nonsingular and well conditioned.
func dominant(rng *rand.Rand, n int) dense {
	var m dense
	fillDominant(&m, rng, n)
	return m
}

// fillDominant is dominant writing into dst, reusing its storage when it
// is large enough.
func fillDominant(dst *dense, rng *rand.Rand, n int) {
	dst.resize(n, n)
	for i := range dst.data {
		dst.data[i] = 2*rng.Float64() - 1
	}
	for i := 0; i < n; i++ {
		dst.data[i*n+i] = float64(n)
	}
}

// resize makes m r x c, reusing its storage when it is large enough.
func (m *dense) resize(r, c int) {
	if cap(m.data) < r*c {
		m.data = make([]float64, r*c)
	}
	m.rows, m.cols, m.data = r, c, m.data[:r*c]
}

// rowPatch is a rank-k row update: rows[j] of the base is replaced by
// vals[j*n:(j+1)*n].
type rowPatch struct {
	rows []int
	vals []float64
}

// newPatch draws k distinct rows of an n x n dominant matrix and their
// new values, keeping n on the diagonal so the result stays diagonally
// dominant.
func newPatch(rng *rand.Rand, n, k int) rowPatch {
	p := rowPatch{rows: rng.Perm(n)[:k], vals: make([]float64, k*n)}
	for j, r := range p.rows {
		row := p.vals[j*n : (j+1)*n]
		for c := range row {
			row[c] = 2*rng.Float64() - 1
		}
		row[r] = float64(n)
	}
	return p
}

// apply writes base with p's rows replaced into dst, reusing dst's
// storage when it is large enough.
func (p rowPatch) apply(dst *dense, base dense) {
	n := base.cols
	dst.resize(base.rows, base.cols)
	copy(dst.data, base.data)
	for j, r := range p.rows {
		copy(dst.data[r*n:(r+1)*n], p.vals[j*n:(j+1)*n])
	}
}

// wireMagic opens the serving stack's binary matrix format: uint32
// magic, rows, cols (little-endian), then rows*cols float64 values.
const wireMagic = 0x4d585236

// appendWire appends m in the binary wire format.
func appendWire(dst []byte, m dense) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, wireMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.cols))
	for _, v := range m.data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// parseWire decodes one matrix in the binary wire format, which must be
// all of b.
func parseWire(b []byte) (dense, error) {
	if len(b) < 12 || binary.LittleEndian.Uint32(b) != wireMagic {
		return dense{}, fmt.Errorf("answer is not a binary matrix (%d bytes)", len(b))
	}
	r := int(binary.LittleEndian.Uint32(b[4:]))
	c := int(binary.LittleEndian.Uint32(b[8:]))
	if len(b) != 12+8*r*c {
		return dense{}, fmt.Errorf("answer header says %dx%d but body holds %d bytes", r, c, len(b))
	}
	m := dense{r, c, make([]float64, r*c)}
	for i := range m.data {
		m.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[12+8*i:]))
	}
	return m, nil
}
