package tensor

import (
	"testing"
	"testing/quick"

	"recsys/internal/stats"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(3, 4)
	if a.Rank() != 2 || a.Dim(0) != 3 || a.Dim(1) != 4 || a.Len() != 12 {
		t.Fatalf("bad shape metadata: rank=%d dims=%v len=%d", a.Rank(), a.Shape(), a.Len())
	}
	for i, v := range a.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(2, 3, 4)
	a.Set(42, 1, 2, 3)
	if got := a.At(1, 2, 3); got != 42 {
		t.Errorf("At = %v, want 42", got)
	}
	if got := a.At(0, 0, 0); got != 0 {
		t.Errorf("unrelated element modified: %v", got)
	}
}

func TestOffsetRowMajor(t *testing.T) {
	a := New(2, 3)
	a.Set(7, 1, 2)
	if a.Data()[5] != 7 {
		t.Errorf("row-major layout violated: data=%v", a.Data())
	}
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	a := FromSlice(d, 2, 3)
	if a.At(1, 0) != 4 {
		t.Errorf("At(1,0) = %v, want 4", a.At(1, 0))
	}
	d[0] = 99 // shared storage
	if a.At(0, 0) != 99 {
		t.Error("FromSlice should not copy")
	}
}

func TestRow(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Errorf("Row(1) = %v", r)
	}
	r[0] = -1
	if a.At(1, 0) != -1 {
		t.Error("Row should share storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(100, 0, 0)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestPanics(t *testing.T) {
	cases := map[string]func(){
		"empty shape":       func() { New() },
		"negative dim":      func() { New(2, -1) },
		"fromslice len":     func() { FromSlice([]float32{1}, 2, 2) },
		"index rank":        func() { New(2, 3).At(1) },
		"index range":       func() { New(2, 3).At(2, 0) },
		"row on rank3":      func() { New(2, 2, 2).Row(0) },
		"negative index":    func() { New(2, 3).At(-1, 0) },
		"set out of range":  func() { New(2).Set(0, 5) },
		"bias rank":         func() { AddBiasRows(New(2), []float32{0, 0}) },
		"bias len":          func() { AddBiasRows(New(2, 3), []float32{0}) },
		"transpose rank":    func() { Transpose(New(2)) },
		"gemm rank":         func() { Gemm(New(2), New(2, 2), New(2, 2)) },
		"gemm inner":        func() { Gemm(New(2, 3), New(4, 2), New(2, 2)) },
		"gemm output shape": func() { Gemm(New(2, 3), New(3, 2), New(3, 3)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{1, 2, 3, 4.05}, 2, 2)
	if !Equal(a, b, 0.1) {
		t.Error("tensors should be equal within 0.1")
	}
	if Equal(a, b, 0.01) {
		t.Error("tensors should differ at tolerance 0.01")
	}
	if Equal(a, New(4), 1) {
		t.Error("different shapes should not compare equal")
	}
	if Equal(a, New(2, 3), 1) {
		t.Error("different dims should not compare equal")
	}
	if d := MaxAbsDiff(a, b); d < 0.04 || d > 0.06 {
		t.Errorf("MaxAbsDiff = %v, want ~0.05", d)
	}
}

func TestFill(t *testing.T) {
	a := New(3, 3)
	a.Fill(2.5)
	for _, v := range a.Data() {
		if v != 2.5 {
			t.Fatalf("Fill failed: %v", v)
		}
	}
}

// matMul allocates and returns A·B through Gemm.
func matMul(a, b *Tensor) *Tensor {
	c := New(a.shape[0], b.shape[1])
	Gemm(a, b, c)
	return c
}

// naiveMatMul is the reference implementation Gemm is checked against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a.At(i, p) * b.At(p, j)
			}
			c.Set(sum, i, j)
		}
	}
	return c
}

func randTensor(r *stats.RNG, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = r.Float32()*2 - 1
	}
	return t
}

func TestGemmSmallExact(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := matMul(a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !Equal(c, want, 0) {
		t.Errorf("Gemm = %v, want %v", c.Data(), want.Data())
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	r := stats.NewRNG(101)
	// Cover shapes below, at, and straddling the blocking tile size.
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 5, 7}, {64, 64, 64}, {65, 63, 67}, {130, 70, 129}, {17, 200, 33},
	} {
		a := randTensor(r, dims[0], dims[1])
		b := randTensor(r, dims[1], dims[2])
		got := matMul(a, b)
		want := naiveMatMul(a, b)
		if d := MaxAbsDiff(got, want); d > 1e-4 {
			t.Errorf("dims %v: blocked GEMM deviates from naive by %v", dims, d)
		}
	}
}

func TestGemmAccumulates(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := FromSlice([]float32{1, 1, 1, 1}, 2, 2)
	Gemm(a, b, c)
	want := FromSlice([]float32{6, 7, 8, 9}, 2, 2)
	if !Equal(c, want, 0) {
		t.Errorf("Gemm did not accumulate into C: %v", c.Data())
	}
}

func TestAddBiasRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	AddBiasRows(a, []float32{10, 20})
	want := FromSlice([]float32{11, 22, 13, 24}, 2, 2)
	if !Equal(a, want, 0) {
		t.Errorf("AddBiasRows = %v", a.Data())
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		m, n := 1+r.Intn(20), 1+r.Intn(20)
		a := randTensor(r, m, n)
		return Equal(Transpose(Transpose(a)), a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestGemmTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		m, k, n := 1+r.Intn(30), 1+r.Intn(30), 1+r.Intn(30)
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		lhs := Transpose(matMul(a, b))
		rhs := matMul(Transpose(b), Transpose(a))
		return MaxAbsDiff(lhs, rhs) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: A·I == A.
func TestGemmIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		m, n := 1+r.Intn(40), 1+r.Intn(40)
		a := randTensor(r, m, n)
		eye := New(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		return Equal(matMul(a, eye), a, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGemm256(b *testing.B) {
	r := stats.NewRNG(1)
	x := randTensor(r, 256, 256)
	y := randTensor(r, 256, 256)
	c := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(0)
		Gemm(x, y, c)
	}
}
