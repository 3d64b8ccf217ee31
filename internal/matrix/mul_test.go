package matrix

import (
	"errors"
	"math/rand"
	"testing"
)

func TestMulKnownProduct(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 0) {
		t.Fatalf("Mul =\n%v", got)
	}
}

func TestMulShapeError(t *testing.T) {
	_, err := Mul(New(2, 3), New(2, 3))
	if !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v", err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 12, 12)
	id := Identity(12)
	left, _ := Mul(id, a)
	right, _ := Mul(a, id)
	if !Equal(left, a, 0) || !Equal(right, a, 0) {
		t.Fatal("identity must be neutral")
	}
}

func TestMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 17, 9)
	b := randDense(rng, 9, 13)
	want, _ := MulNaiveColumnOrder(a, b)

	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want, 1e-12) {
		t.Fatal("Mul disagrees with naive kernel")
	}

	gotT, err := MulTransB(a, b.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(gotT, want, 1e-12) {
		t.Fatal("MulTransB disagrees with naive kernel")
	}
}

func TestMulTransBShapeError(t *testing.T) {
	// a is 2x3, bT must have Cols == 3.
	_, err := MulTransB(New(2, 3), New(4, 2))
	if !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v", err)
	}
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 8, 6)
	b := randDense(rng, 6, 7)
	c := randDense(rng, 7, 5)
	ab, _ := Mul(a, b)
	abc1, _ := Mul(ab, c)
	bc, _ := Mul(b, c)
	abc2, _ := Mul(a, bc)
	if !Equal(abc1, abc2, 1e-10) {
		t.Fatal("(AB)C != A(BC)")
	}
}

func TestMulTransposeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 5, 8)
	b := randDense(rng, 8, 4)
	ab, _ := Mul(a, b)
	btat, _ := Mul(b.Transpose(), a.Transpose())
	if !Equal(ab.Transpose(), btat, 1e-12) {
		t.Fatal("(AB)^T != B^T A^T")
	}
}

func TestMulZeroDimensions(t *testing.T) {
	// 0-dim edges must not panic and must produce consistent shapes.
	got, err := Mul(New(0, 4), New(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 0 || got.Cols != 3 {
		t.Fatalf("dims %dx%d", got.Rows, got.Cols)
	}
	got, err = Mul(New(2, 0), New(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 2 || got.Cols != 3 || MaxAbs(got) != 0 {
		t.Fatalf("empty-inner product wrong: %v", got)
	}
}
