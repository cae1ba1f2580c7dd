package train

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"recsys/internal/model"
	"recsys/internal/stats"
)

// tinyConfig is a minimal model with every architectural element: dense
// path, embedding tables, dot interaction, multi-layer top.
func tinyConfig(interaction model.Interaction) model.Config {
	return model.Config{
		Name:        "tiny",
		Class:       model.Custom,
		DenseIn:     6,
		BottomMLP:   []int{8, 4},
		TopMLP:      []int{6, 1},
		Tables:      model.UniformTables(3, 50, 4, 2),
		Interaction: interaction,
	}
}

func buildTiny(t *testing.T, interaction model.Interaction, seed uint64) *model.Model {
	t.Helper()
	m, err := model.Build(tinyConfig(interaction), stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewTrainerPanics(t *testing.T) {
	m := buildTiny(t, model.Dot, 1)
	for name, fn := range map[string]func(){
		"nil model": func() { NewTrainer(nil, 0.1) },
		"zero lr":   func() { NewTrainer(m, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	tr := NewTrainer(m, 0.1)
	defer func() {
		if recover() == nil {
			t.Error("label mismatch should panic")
		}
	}()
	req := model.NewRandomRequest(m.Config, 4, stats.NewRNG(2))
	tr.Step(req, []float32{1})
}

// TestInt8ModelCopiesExactly: Save→Load, Clone and CopyWeightsFrom each
// reproduce a model whose tables hold int8 rows — the same codes,
// scales and offsets, still without an fp32 table, and the same scores
// on 20 random batches, bit for bit. Only the trainer constructors
// refuse such a model (model.ErrInt8Only, carried by their panic).
func TestInt8ModelCopiesExactly(t *testing.T) {
	spec, err := model.ParseSpec("rmc1-int8:1000", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build(stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, copyOf := range map[string]func() (*model.Model, error){
		"Save→Load": func() (*model.Model, error) {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				return nil, err
			}
			return model.Load(&buf, int64(buf.Len()))
		},
		"Clone": m.Clone,
		"CopyWeightsFrom": func() (*model.Model, error) {
			dst, err := spec.Build(stats.NewRNG(2))
			if err != nil {
				return nil, err
			}
			return dst, dst.CopyWeightsFrom(m)
		},
	} {
		c, err := copyOf()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, op := range c.SLS {
			if op.Table.W != nil || op.Quant == nil {
				t.Fatalf("%s: table %d does not hold int8 rows alone", name, i)
			}
			codes, scale, offset := op.Quant.Data()
			wantCodes, wantScale, wantOffset := m.SLS[i].Quant.Data()
			if !slices.Equal(codes, wantCodes) || !bitsEqual(scale, wantScale) || !bitsEqual(offset, wantOffset) {
				t.Fatalf("%s: table %d rows differ from the source's", name, i)
			}
		}
		rng := stats.NewRNG(3)
		for b := 0; b < 20; b++ {
			req := model.NewRandomRequest(m.Config, 4, rng)
			if !bitsEqual(c.CTR(req), m.CTR(req)) {
				t.Fatalf("%s: batch %d scores differ from the source's", name, b)
			}
		}
	}

	panicked := func(fn func()) (err error) {
		defer func() { err, _ = recover().(error) }()
		fn()
		return nil
	}
	for name, fn := range map[string]func(){
		"NewTrainer":              func() { NewTrainer(m, 0.1) },
		"NewTrainerWithOptimizer": func() { NewTrainerWithOptimizer(m, NewAdaGrad(0.1)) },
	} {
		if err := panicked(fn); !errors.Is(err, model.ErrInt8Only) {
			t.Errorf("%s: panic %v, want one wrapping model.ErrInt8Only", name, err)
		}
	}
}

func bitsEqual(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestGradientCheck verifies the analytic gradients against numerical
// differentiation of the BCE loss for every parameter family: bottom FC
// weights/bias, top FC weights, and embedding rows, for both Cat and
// Dot interactions.
func TestGradientCheck(t *testing.T) {
	for _, interaction := range []model.Interaction{model.Cat, model.Dot} {
		m := buildTiny(t, interaction, 3)
		rng := stats.NewRNG(4)
		req := model.NewRandomRequest(m.Config, 3, rng)
		labels := []float32{1, 0, 1}

		lossAt := func() float64 {
			tr := NewTrainer(m, 1) // lr unused for Loss
			return float64(tr.Loss(req, labels))
		}

		// Analytic gradient of a parameter = (w_before - w_after)/lr
		// after one Step with a tiny lr (so the step stays in the
		// linear regime).
		const lr = 1e-4
		checks := []struct {
			name string
			ptr  func() *float32
		}{
			{"bottom W", func() *float32 { return &m.Bottom.Layers[0].W.Data()[3] }},
			{"bottom b", func() *float32 { return &m.Bottom.Layers[0].B[1] }},
			{"top W", func() *float32 { return &m.Top.Layers[0].W.Data()[5] }},
			{"top last W", func() *float32 { return &m.Top.Layers[1].W.Data()[2] }},
			{"embedding row", func() *float32 { return &m.SLS[0].Table.W.Row(req.SparseIDs[0][0])[1] }},
		}
		for _, c := range checks {
			p := c.ptr()
			orig := *p

			// Numerical gradient via central differences.
			const h = 1e-3
			*p = orig + h
			up := lossAt()
			*p = orig - h
			down := lossAt()
			*p = orig
			numGrad := (up - down) / (2 * h)

			// Analytic gradient via one SGD step.
			snapshot := orig
			tr := NewTrainer(m, lr)
			tr.Step(req, labels)
			anaGrad := float64((snapshot - *p) / lr)
			*p = orig // restore for the next check (other params moved,
			// but each check re-snapshots its own)

			if math.Abs(numGrad-anaGrad) > 1e-2*math.Max(1, math.Abs(numGrad)) {
				t.Errorf("%v/%s: numerical grad %.6f vs analytic %.6f",
					interaction, c.name, numGrad, anaGrad)
			}
			// Rebuild the model so parameter updates from the Step do
			// not accumulate across checks.
			m = buildTiny(t, interaction, 3)
			req = model.NewRandomRequest(m.Config, 3, stats.NewRNG(4))
		}
	}
}

// TestTrainingReducesLoss: SGD on a fixed batch must drive the loss
// down (overfitting a single batch is the canonical smoke test).
func TestTrainingReducesLoss(t *testing.T) {
	for _, interaction := range []model.Interaction{model.Cat, model.Dot} {
		m := buildTiny(t, interaction, 5)
		tr := NewTrainer(m, 0.05)
		req := model.NewRandomRequest(m.Config, 16, stats.NewRNG(6))
		labels := make([]float32, 16)
		for i := range labels {
			labels[i] = float32(i % 2)
		}
		first := tr.Step(req, labels)
		var last float32
		for i := 0; i < 200; i++ {
			last = tr.Step(req, labels)
		}
		if last >= first*0.5 {
			t.Errorf("%v: loss did not halve: %.4f -> %.4f", interaction, first, last)
		}
	}
}

// TestEmbeddingGradientSparse: only gathered rows may change.
func TestEmbeddingGradientSparse(t *testing.T) {
	m := buildTiny(t, model.Cat, 7)
	before := m.SLS[0].Table.W.Clone()
	tr := NewTrainer(m, 0.1)
	req := model.NewRandomRequest(m.Config, 2, stats.NewRNG(8))
	tr.Step(req, []float32{1, 0})

	touched := map[int]bool{}
	for _, id := range req.SparseIDs[0] {
		touched[id] = true
	}
	changedUntouched := 0
	changedTouched := 0
	for r := 0; r < m.SLS[0].Table.Rows; r++ {
		same := true
		for c := 0; c < m.SLS[0].Table.Cols; c++ {
			if m.SLS[0].Table.W.At(r, c) != before.At(r, c) {
				same = false
				break
			}
		}
		if !same {
			if touched[r] {
				changedTouched++
			} else {
				changedUntouched++
			}
		}
	}
	if changedUntouched > 0 {
		t.Errorf("%d un-gathered rows modified — embedding gradient must be sparse", changedUntouched)
	}
	if changedTouched == 0 {
		t.Error("no gathered rows updated")
	}
}

// TestTeacherStudent: training a student against a teacher of the same
// architecture must lift held-out AUC well above chance.
func TestTeacherStudent(t *testing.T) {
	cfg := tinyConfig(model.Dot)
	teacher, err := NewTeacher(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	student, err := model.Build(cfg, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(student, 0.02)
	for step := 0; step < 400; step++ {
		req, labels := teacher.Sample(32)
		tr.Step(req, labels)
	}
	auc := teacher.Evaluate(student, 4000)
	if auc < 0.65 {
		t.Errorf("held-out AUC = %.3f, want > 0.65 after training", auc)
	}
}

func TestTeacherLabelsBalanced(t *testing.T) {
	teacher, err := NewTeacher(tinyConfig(model.Cat), 13)
	if err != nil {
		t.Fatal(err)
	}
	_, labels := teacher.Sample(2000)
	pos := 0
	for _, l := range labels {
		if l == 1 {
			pos++
		}
	}
	frac := float64(pos) / float64(len(labels))
	if frac < 0.1 || frac > 0.9 {
		t.Errorf("label balance %.2f too extreme for training", frac)
	}
}

func TestNewTeacherRejectsInvalid(t *testing.T) {
	if _, err := NewTeacher(model.Config{Name: "bad"}, 1); err == nil {
		t.Error("invalid config should error")
	}
}
