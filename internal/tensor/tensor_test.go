package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"cbnet/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.Len() != 12 {
		t.Fatalf("len = %d, want 12", x.Len())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad shape")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset check: (1,2,3) -> 1*12 + 2*4 + 3 = 23.
	if x.Data[23] != 7.5 {
		t.Fatalf("row-major layout violated")
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.Data[0] != 99 {
		t.Fatal("reshape did not share storage")
	}
}

func TestReshapeInfer(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(-1, 8)
	if y.Shape[0] != 3 || y.Shape[1] != 8 {
		t.Fatalf("inferred shape %v, want [3 8]", y.Shape)
	}
}

func TestReshapeBadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4, 6).Reshape(5, 5)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("clone aliased parent storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	sum := Add(a, b)
	for i, want := range []float32{11, 22, 33, 44} {
		if sum.Data[i] != want {
			t.Fatalf("Add[%d] = %v, want %v", i, sum.Data[i], want)
		}
	}
	diff := Sub(b, a)
	for i, want := range []float32{9, 18, 27, 36} {
		if diff.Data[i] != want {
			t.Fatalf("Sub[%d] = %v, want %v", i, diff.Data[i], want)
		}
	}
	prod := Mul(a, b)
	for i, want := range []float32{10, 40, 90, 160} {
		if prod.Data[i] != want {
			t.Fatalf("Mul[%d] = %v, want %v", i, prod.Data[i], want)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestScaleAxpy(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	a.Scale(2)
	b := FromSlice([]float32{1, 1, 1}, 3)
	a.AxpyInPlace(0.5, b)
	want := []float32{2.5, 4.5, 6.5}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("axpy[%d] = %v, want %v", i, a.Data[i], want[i])
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-1, 2, -3, 4}, 4)
	if !almostEq(x.Sum(), 2, 1e-9) {
		t.Errorf("Sum = %v", x.Sum())
	}
	if !almostEq(x.Mean(), 0.5, 1e-9) {
		t.Errorf("Mean = %v", x.Mean())
	}
	if !almostEq(x.AbsSum(), 10, 1e-9) {
		t.Errorf("AbsSum = %v", x.AbsSum())
	}
	if !almostEq(x.SumSquares(), 30, 1e-9) {
		t.Errorf("SumSquares = %v", x.SumSquares())
	}
	if x.Max() != 4 || x.Min() != -3 {
		t.Errorf("Max/Min = %v/%v", x.Max(), x.Min())
	}
	if x.ArgMax() != 3 {
		t.Errorf("ArgMax = %d", x.ArgMax())
	}
}

func TestArgMaxFirstOfTies(t *testing.T) {
	x := FromSlice([]float32{1, 5, 5, 2}, 4)
	if x.ArgMax() != 1 {
		t.Fatalf("ArgMax = %d, want first of ties (1)", x.ArgMax())
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func TestArgMaxRows(t *testing.T) {
	m := FromSlice([]float32{1, 3, 2, 9, 0, -1, -5, -2, -3}, 3, 3)
	dst := make([]int, 3)
	m.ArgMaxRows(dst)
	want := []int{1, 0, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("ArgMaxRows = %v, want %v", dst, want)
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	r := rng.New(1)
	// Sizes straddle the parallel threshold so both paths are exercised.
	for _, dims := range [][3]int{{3, 5, 7}, {64, 64, 64}, {100, 37, 81}, {129, 65, 130}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		a.RandNormal(r, 0, 1)
		b.RandNormal(r, 0, 1)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		for i := range want.Data {
			if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-3) {
				t.Fatalf("dims %v: element %d: got %v want %v", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(2)
	a := New(17, 17)
	a.RandNormal(r, 0, 1)
	eye := New(17, 17)
	for i := 0; i < 17; i++ {
		eye.Data[i*17+i] = 1
	}
	c := MatMul(a, eye)
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			t.Fatalf("A×I != A at %d", i)
		}
	}
}

func TestMatMulInto(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{3, 4, 5, 6}, 2, 2)
	c := FromSlice([]float32{1, 1, 1, 1}, 2, 2)
	MatMulInto(c, a, b, 2, 1) // c = 2*I*b + c
	want := []float32{7, 9, 11, 13}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMulInto[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(3)
	a, b := New(9, 5), New(9, 7)
	a.RandNormal(r, 0, 1)
	b.RandNormal(r, 0, 1)
	got := MatMulTransA(a, b)
	want := naiveMatMul(a.Transpose(), b)
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("element %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(4)
	a, b := New(6, 8), New(11, 8)
	a.RandNormal(r, 0, 1)
	b.RandNormal(r, 0, 1)
	got := MatMulTransB(a, b)
	want := naiveMatMul(a, b.Transpose())
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("element %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(5)
	a := New(13, 37)
	a.RandNormal(r, 0, 1)
	b := a.Transpose().Transpose()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("(Aᵀ)ᵀ != A")
		}
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float32{1, 0, -1}, 3)
	y := MatVec(a, x)
	if y.Data[0] != -2 || y.Data[1] != -2 {
		t.Fatalf("MatVec = %v", y.Data)
	}
}

func TestAddRowVectorSumRows(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float32{10, 20, 30}, 3)
	m.AddRowVector(v)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddRowVector[%d] = %v, want %v", i, m.Data[i], want[i])
		}
	}
	s := m.SumRows()
	wantS := []float32{25, 47, 69}
	for i := range wantS {
		if s.Data[i] != wantS[i] {
			t.Fatalf("SumRows[%d] = %v, want %v", i, s.Data[i], wantS[i])
		}
	}
}

func TestRowView(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r1 := m.Row(1)
	r1.Data[0] = 40
	if m.At(1, 0) != 40 {
		t.Fatal("Row is not a view")
	}
}

// Property: matrix addition commutes.
func TestQuickAddCommutative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(50) + 1
		a, b := New(n), New(n)
		a.RandNormal(r, 0, 1)
		b.RandNormal(r, 0, 1)
		ab, ba := Add(a, b), Add(b, a)
		for i := range ab.Data {
			if ab.Data[i] != ba.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ within float tolerance.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := r.Intn(12)+1, r.Intn(12)+1, r.Intn(12)+1
		a, b := New(m, k), New(k, n)
		a.RandNormal(r, 0, 1)
		b.RandNormal(r, 0, 1)
		left := MatMul(a, b).Transpose()
		right := MatMul(b.Transpose(), a.Transpose())
		for i := range left.Data {
			if !almostEq(float64(left.Data[i]), float64(right.Data[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum(A + B) == Sum(A) + Sum(B) within tolerance.
func TestQuickSumLinear(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(100) + 1
		a, b := New(n), New(n)
		a.RandUniform(r, -1, 1)
		b.RandUniform(r, -1, 1)
		return almostEq(Add(a, b).Sum(), a.Sum()+b.Sum(), 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
