package model

import (
	"math"
	"slices"
	"testing"
	"time"

	"recsys/internal/nn"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// TestForwardExMatchesForward checks the arena-backed parallel pass is
// bit-identical to the serial arena-free one (what CTR runs) across all
// three model classes, and that one arena can be recycled across
// requests of different batch sizes. The kernels themselves are held
// to their unpacked oracles in internal/nn and internal/tensor.
func TestForwardExMatchesForward(t *testing.T) {
	for _, cfg := range []Config{
		RMC1Small().Scaled(50),
		RMC2Small().Scaled(200),
		RMC3Small().Scaled(100),
		MLPerfNCF(),
	} {
		m, err := Build(cfg, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		arena := tensor.NewArena()
		for _, batch := range []int{1, 7, 32} {
			req := NewRandomRequest(cfg, batch, stats.NewRNG(uint64(batch)))
			want := m.ForwardEx(req, nil, 1)
			for _, workers := range []int{0, 1, 2, 5} {
				arena.Reset()
				got := m.ForwardEx(req, arena, workers)
				if !tensor.Equal(got, want, 0) {
					t.Fatalf("%s batch %d workers %d: arena/parallel pass differs from the serial one", cfg.Name, batch, workers)
				}
			}
		}
	}
}

// TestForwardExSteadyStateZeroAllocs is the allocation contract of the
// tentpole: with a warm arena and serial kernels, a forward pass makes
// zero heap allocations.
func TestForwardExSteadyStateZeroAllocs(t *testing.T) {
	cfg := RMC1Small().Scaled(50)
	m, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 16, stats.NewRNG(2))
	arena := tensor.NewArena()
	m.ForwardEx(req, arena, 1) // warm: packs weights, grows the slab
	allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		m.ForwardEx(req, arena, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ForwardEx allocates %v times per pass, want 0", allocs)
	}
}

// arenaCTR runs the hot-path pass (an arena, workers kernel
// goroutines) and copies the scores out of the arena.
func arenaCTR(m *Model, req Request, a *tensor.Arena, workers int) []float32 {
	return slices.Clone(m.ForwardEx(req, a, workers).Data())
}

// TestArenaPassMatchesCTR: CTR is the serial arena-free pass, and an
// arena and intra-op workers change no bit of it.
func TestArenaPassMatchesCTR(t *testing.T) {
	cfg := RMC2Small().Scaled(200)
	m, err := Build(cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 9, stats.NewRNG(4))
	want := m.CTR(req)
	arena := tensor.NewArena()
	got := arenaCTR(m, req, arena, 2)
	if len(got) != len(want) {
		t.Fatalf("arena pass length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("arena pass[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// spanRecord collects ForwardSpans emissions for inspection.
type spanRecord struct {
	names []string
	kinds []nn.Kind
	total time.Duration
}

func (r *spanRecord) OpSpan(name string, kind nn.Kind, d time.Duration) {
	r.names = append(r.names, name)
	r.kinds = append(r.kinds, kind)
	r.total += d
}

// kindTime sums span time per operator kind over instrumented passes:
// the real-execution counterpart of perf.ModelTime's breakdown.
type kindTime map[nn.Kind]time.Duration

func (k kindTime) OpSpan(_ string, kind nn.Kind, d time.Duration) { k[kind] += d }

// share returns the fraction of span time spent in kinds.
func (k kindTime) share(kinds ...nn.Kind) float64 {
	var in, all time.Duration
	for kind, d := range k {
		all += d
		if slices.Contains(kinds, kind) {
			in += d
		}
	}
	if all == 0 {
		return 0
	}
	return float64(in) / float64(all)
}

// measureKinds times five serial passes of cfg at batch after one
// warm-up pass.
func measureKinds(t *testing.T, cfg Config, batch int, seed uint64) kindTime {
	t.Helper()
	m, err := Build(cfg, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, batch, stats.NewRNG(seed))
	m.ForwardSpans(req, nil, 1, kindTime{})
	k := kindTime{}
	for i := 0; i < 5; i++ {
		m.ForwardSpans(req, nil, 1, k)
	}
	return k
}

// TestRealRMC3IsFCDominated: the simulated Figure 7 claim (RMC3's time
// is overwhelmingly FC) must also hold in real execution on the host
// CPU, since it follows from arithmetic volume, not from machine
// details.
func TestRealRMC3IsFCDominated(t *testing.T) {
	k := measureKinds(t, RMC3Small().Scaled(40), 4, 3)
	if f := k.share(nn.KindFC, nn.KindBatchMM); f < 0.6 {
		t.Errorf("real RMC3 FC share = %.2f, want > 0.6 (%v)", f, k)
	}
}

// TestRealRMC2SLSShareExceedsRMC3: the relative ordering of SLS shares
// across model classes survives real execution.
func TestRealRMC2SLSShareExceedsRMC3(t *testing.T) {
	r2 := measureKinds(t, RMC2Small().Scaled(200), 8, 4).share(nn.KindSLS)
	r3 := measureKinds(t, RMC3Small().Scaled(200), 8, 5).share(nn.KindSLS)
	if r2 <= r3 {
		t.Errorf("RMC2 SLS share (%.2f) should exceed RMC3's (%.2f) in real execution", r2, r3)
	}
}

// tailSpans is the span sequence every pass ends with.
func tailSpans(m *Model) []string {
	names := []string{m.ConcatOp.Name()}
	if m.Interact != nil {
		names = append(names, m.Interact.Name())
	}
	return append(names, m.Top.Name(), "sigmoid")
}

// TestForwardSpansEmitsEveryStage: with local tables the instrumented
// pass reports exactly one span per operator — bottom, every SLS,
// concat, interaction, top, sigmoid, in that order, with no span for
// the argument-recording Begin half — and stays bit-identical to the
// uninstrumented pass.
func TestForwardSpansEmitsEveryStage(t *testing.T) {
	for _, cfg := range []Config{
		RMC1Small().Scaled(50),  // dot interaction
		RMC2Small().Scaled(200), // cat interaction
		MLPerfNCF(),             // no dense path
	} {
		m, err := Build(cfg, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		req := NewRandomRequest(cfg, 6, stats.NewRNG(2))
		want := m.ForwardEx(req, nil, 1)
		var rec spanRecord
		got := m.ForwardSpans(req, tensor.NewArena(), 2, &rec)
		if !tensor.Equal(got, want, 0) {
			t.Errorf("%s: instrumented pass differs from the uninstrumented one", cfg.Name)
		}
		var wantSpans []string
		if m.Bottom != nil {
			wantSpans = append(wantSpans, m.Bottom.Name())
		}
		for _, op := range m.SLS {
			wantSpans = append(wantSpans, op.Name())
		}
		wantSpans = append(wantSpans, tailSpans(m)...)
		if !slices.Equal(rec.names, wantSpans) {
			t.Errorf("%s: spans %v, want %v", cfg.Name, rec.names, wantSpans)
		}
		if rec.total <= 0 {
			t.Errorf("%s: zero total span time", cfg.Name)
		}
		if last := rec.kinds[len(rec.kinds)-1]; last != nn.KindActivation {
			t.Errorf("%s: final span kind %v, want activation", cfg.Name, last)
		}
	}
}

// loggedSource is a GatherSource over an op's own tables that logs
// when gathers are dispatched and waited for.
type loggedSource struct {
	nn.RowStore
	log *[]string
}

func (s loggedSource) BeginGather(ids []int64, dstRows []int32, dst *tensor.Tensor, _ time.Time) nn.PendingGather {
	*s.log = append(*s.log, "dispatch")
	for i, id := range ids {
		s.ReadRow(id, dst.Row(int(dstRows[i])))
	}
	return s
}

func (s loggedSource) Wait() (bool, error) {
	*s.log = append(*s.log, "wait")
	return false, nil
}

// loggedSpans logs span names into the same sequence.
type loggedSpans struct{ log *[]string }

func (o loggedSpans) OpSpan(name string, _ nn.Kind, _ time.Duration) {
	*o.log = append(*o.log, name)
}

// TestForwardDispatchesEveryGatherBeforeBottom: with every table
// behind a GatherSource, the one forward body dispatches all gathers
// (one dispatch span each) before the Bottom-MLP starts and waits for
// them only after it — the overlap the remote tier exists for — and
// scores exactly what the local pass scores. The engine-level half of
// this contract is TestSwapDuringInFlightRemoteGather.
func TestForwardDispatchesEveryGatherBeforeBottom(t *testing.T) {
	cfg := RMC1Small().Scaled(50)
	m, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 6, stats.NewRNG(2))
	want := slices.Clone(m.ForwardEx(req, nil, 1).Data())

	var log []string
	for _, op := range m.SLS {
		op.SetRowStore(loggedSource{op.LocalStore(), &log})
	}
	got := m.ForwardSpans(req, tensor.NewArena(), 1, loggedSpans{&log})
	if !slices.Equal(got.Data(), want) {
		t.Error("pass through gather sources deviates from the local pass")
	}
	var wantLog []string
	for _, op := range m.SLS {
		wantLog = append(wantLog, "dispatch", op.Name())
	}
	wantLog = append(wantLog, m.Bottom.Name())
	for _, op := range m.SLS {
		wantLog = append(wantLog, "wait", op.Name())
	}
	wantLog = append(wantLog, tailSpans(m)...)
	if !slices.Equal(log, wantLog) {
		t.Errorf("event order %v, want %v", log, wantLog)
	}
}

// TestForwardSpansNilObserverZeroAllocs: the hooks must not disturb
// the zero-allocation contract when no observer is attached.
func TestForwardSpansNilObserverZeroAllocs(t *testing.T) {
	cfg := RMC1Small().Scaled(50)
	m, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 16, stats.NewRNG(2))
	arena := tensor.NewArena()
	m.ForwardSpans(req, arena, 1, nil)
	allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		m.ForwardSpans(req, arena, 1, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-observer ForwardSpans allocates %v times per pass, want 0", allocs)
	}
}
