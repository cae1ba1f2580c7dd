package nn

import (
	"testing"
	"testing/quick"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func TestQuantizeRoundTripError(t *testing.T) {
	rng := stats.NewRNG(1)
	e := NewEmbeddingTable("emb", 200, 32, rng)
	q := Quantize(e)
	// Row range is ~[-1/32, 1/32]; with 255 codes the step is ~2.5e-4,
	// so the worst error must be below half a step plus slack.
	if err := q.MaxAbsError(e); err > 2e-4 {
		t.Errorf("max dequantization error %v too large", err)
	}
}

func TestQuantizeConstantRow(t *testing.T) {
	rng := stats.NewRNG(2)
	e := NewEmbeddingTable("emb", 4, 8, rng)
	for c := 0; c < 8; c++ {
		e.W.Set(0.25, 2, c)
	}
	q := Quantize(e)
	row := make([]float32, 8)
	q.Row(2, row)
	for _, v := range row {
		if d := v - 0.25; d > 1e-5 || d < -1e-5 {
			t.Fatalf("constant row dequantized to %v", v)
		}
	}
}

func TestQuantizedSLSMatchesFloat(t *testing.T) {
	rng := stats.NewRNG(3)
	e := NewEmbeddingTable("emb", 500, 16, rng)
	q := Quantize(e)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		lookups := 1 + r.Intn(30)
		ids := make([]int, 2*lookups)
		for i := range ids {
			ids[i] = r.Intn(500)
		}
		op := NewSLSOp(e, lookups)
		want := op.ForwardEx(ids, 2, nil, 1)
		op.Quant = q
		got := op.ForwardEx(ids, 2, nil, 1)
		// Error accumulates over pooled rows: bound by lookups × step.
		tol := float32(lookups) * 3e-4
		return tensor.MaxAbsDiff(got, want) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuantizedStorageSavings(t *testing.T) {
	rng := stats.NewRNG(4)
	e := NewEmbeddingTable("emb", 10000, 32, rng)
	q := Quantize(e)
	fp32 := 4 * len(e.W.Data())
	i8 := len(q.rows)
	ratio := float64(fp32) / float64(i8)
	if ratio < 3.0 || ratio > 4.0 {
		t.Errorf("compression ratio %.2f, want ~3.5-4x", ratio)
	}
	if q.Name() != "emb/int8" {
		t.Errorf("name %q", q.Name())
	}
}

func TestQuantizedPanics(t *testing.T) {
	rng := stats.NewRNG(5)
	e := NewEmbeddingTable("emb", 10, 4, rng)
	q := Quantize(e)
	dst := make([]float32, 4)
	cases := map[string]func(){
		"row range":      func() { q.Row(10, dst) },
		"row neg":        func() { q.Row(-1, dst) },
		"dst len":        func() { q.Row(0, make([]float32, 3)) },
		"shape mismatch": func() { q.MaxAbsError(NewEmbeddingTable("x", 5, 4, rng)) },
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

// TestQuantizedCTREndToEnd: replacing a model's pooled embeddings with
// quantized pooling must barely move the predicted CTR.
func TestQuantizedCTREndToEnd(t *testing.T) {
	rng := stats.NewRNG(6)
	e := NewEmbeddingTable("emb", 1000, 32, rng)
	q := Quantize(e)
	op := NewSLSOp(e, 20)
	ids := make([]int, 3*20)
	for i := range ids {
		ids[i] = rng.Intn(1000)
	}
	fl := op.ForwardEx(ids, 3, nil, 1)
	op.Quant = q
	qt := op.ForwardEx(ids, 3, nil, 1)
	if d := tensor.MaxAbsDiff(fl, qt); d > 0.01 {
		t.Errorf("quantized pooling deviates %v", d)
	}
}
