package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 7)
	if m.At(0, 1) != 5 || m.At(1, 2) != 7 || m.At(0, 0) != 0 {
		t.Fatal("At/Set wrong")
	}
	if got := m.Row(1); got[2] != 7 {
		t.Fatal("Row wrong")
	}
	if got := m.Col(1); got[0] != 5 || got[1] != 0 {
		t.Fatal("Col wrong")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if e := FromRows(nil); e.Rows != 0 || e.Cols != 0 {
		t.Fatal("empty FromRows wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows accepted")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", tr)
	}
}

func TestMulVecAndTMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if got := m.MulVec([]float64{1, 1}); got[0] != 3 || got[1] != 7 || got[2] != 11 {
		t.Fatalf("MulVec = %v", got)
	}
	if got := m.TMulVec([]float64{1, 1, 1}); got[0] != 9 || got[1] != 12 {
		t.Fatalf("TMulVec = %v", got)
	}
}

func TestSubAndFrobenius(t *testing.T) {
	a := FromRows([][]float64{{3, 4}})
	b := FromRows([][]float64{{0, 0}})
	if got := a.Clone().Sub(b).FrobeniusNorm(); got != 5 {
		t.Fatalf("norm = %v, want 5", got)
	}
	if got := a.Clone().Sub(a).FrobeniusNorm(); got != 0 {
		t.Fatalf("self-sub norm = %v, want 0", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2 wrong")
	}
	v := []float64{1, 2}
	Scale(v, 3)
	if v[0] != 3 || v[1] != 6 {
		t.Fatal("Scale wrong")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatal("AXPY wrong")
	}
	o := Outer([]float64{1, 2}, []float64{3, 4, 5})
	if o.Rows != 2 || o.Cols != 3 || o.At(1, 2) != 10 {
		t.Fatalf("Outer wrong: %+v", o)
	}
}

// TestMulVecAgainstTranspose: (Mᵀ)ᵀ·v == M·v and Mᵀ·v via TMulVec agree with
// explicit transpose, on random matrices.
func TestMulVecAgainstTranspose(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMatrix(seed, 5, 3)
		v := []float64{1.5, -2, 0.5}
		w := []float64{1, 2, 3, 4, 5}
		direct := m.MulVec(v)
		viaT := m.T().TMulVec(v)
		for i := range direct {
			if math.Abs(direct[i]-viaT[i]) > 1e-9 {
				return false
			}
		}
		tm := m.TMulVec(w)
		tExplicit := m.T().MulVec(w)
		for i := range tm {
			if math.Abs(tm[i]-tExplicit[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(seed int64, rows, cols int) *Matrix {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		m.Data[i] = float64(state%2001)/100 - 10
	}
	return m
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, ok := Solve(a, []float64{5, 10})
	if !ok {
		t.Fatal("solvable system reported singular")
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solution = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, ok := Solve(a, []float64{1, 2}); ok {
		t.Fatal("singular system reported solvable")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, ok := Solve(a, []float64{2, 3})
	if !ok || x[0] != 3 || x[1] != 2 {
		t.Fatalf("pivoted solve = %v ok=%v, want [3 2]", x, ok)
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{5, 10}
	Solve(a, b)
	if a.At(0, 0) != 2 || a.At(1, 1) != 3 || b[0] != 5 || b[1] != 10 {
		t.Fatal("Solve mutated its inputs")
	}
}

func TestSolveShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square system accepted")
		}
	}()
	Solve(NewMatrix(2, 3), []float64{1, 2})
}

// TestSolveProperty: for random well-conditioned systems, A·x == b.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMatrix(seed, 4, 4)
		// Diagonal boost for conditioning.
		for i := 0; i < 4; i++ {
			a.Set(i, i, a.At(i, i)+25)
		}
		b := []float64{1, -2, 3, 0.5}
		x, ok := Solve(a, b)
		if !ok {
			return false
		}
		back := a.MulVec(x)
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
