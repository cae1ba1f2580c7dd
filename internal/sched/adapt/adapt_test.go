package adapt

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"recsys/internal/batch"
	"recsys/internal/obs"
)

// fakeTarget is a one-model serving surface with a synthetic latency
// curve: every LatencySnapshot call simulates one window of requests
// whose latency is curve(current MaxBatch). Deterministic — the
// controller's trajectory over it is exactly reproducible.
type fakeTarget struct {
	depth int
	mu    sync.Mutex // guards pol/sets against the background loop
	pol   batch.Policy
	hist  *obs.Histogram
	curve func(maxBatch int) time.Duration
	feed  int // observations simulated per window
	sets  int // SetPolicy calls seen
}

// fineBounds is a 25µs-granularity latency layout up to 20ms, so
// quantile interpolation error stays far below the deadband width.
func fineBounds() []int64 {
	b := make([]int64, 800)
	for i := range b {
		b[i] = int64(i+1) * 25_000
	}
	return b
}

func newFakeTarget(depth, startBatch int, curve func(int) time.Duration) *fakeTarget {
	return &fakeTarget{
		depth: depth,
		pol:   batch.Policy{MaxBatch: startBatch},
		hist:  obs.NewHistogram(fineBounds()),
		curve: curve,
		feed:  100,
	}
}

func (f *fakeTarget) Models() []string { return []string{"m"} }
func (f *fakeTarget) QueueDepth() int  { return f.depth }

func (f *fakeTarget) policy() batch.Policy {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pol
}

func (f *fakeTarget) Policy(string) (batch.Policy, error) { return f.policy(), nil }

func (f *fakeTarget) SetPolicy(_ string, p batch.Policy) error {
	f.mu.Lock()
	f.pol = p
	f.sets++
	f.mu.Unlock()
	return nil
}

func (f *fakeTarget) setCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sets
}

func (f *fakeTarget) LatencySnapshot(string) (obs.HistSnapshot, error) {
	v := int64(f.curve(f.policy().MaxBatch))
	for i := 0; i < f.feed; i++ {
		f.hist.Observe(v)
	}
	return f.hist.Snapshot(), nil
}

// linear is the canonical convex-enough service curve: latency grows
// monotonically with batch size, so p99(MaxBatch) has a unique SLA
// crossing for the climb to find.
func linear(base, perSample time.Duration) func(int) time.Duration {
	return func(b int) time.Duration { return base + time.Duration(b)*perSample }
}

func newTestController(t *testing.T, ft *fakeTarget, cfg Config) *Controller {
	t.Helper()
	c, err := New(ft, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// TestMaxBatchStaysInBounds drives the controller against extreme SLAs
// — one impossible to meet (forces the climb to the floor) and one
// trivially met (forces it to the ceiling) — and checks the invariant
// after every tick: MaxBatch ∈ [1, queue depth], and MaxWait is what
// the operator configured (the controller has no MaxWait lever).
func TestMaxBatchStaysInBounds(t *testing.T) {
	cases := []struct {
		name string
		sla  time.Duration
	}{
		{"impossible_sla_drives_floor", 30 * time.Microsecond},
		{"loose_sla_drives_ceiling", 15 * time.Millisecond},
		{"mid_sla", 2 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ft := newFakeTarget(48, 8, linear(200*time.Microsecond, 40*time.Microsecond))
			ft.pol.MaxWait = 2 * time.Millisecond
			c := newTestController(t, ft, Config{SLA: tc.sla})
			for i := 0; i < 200; i++ {
				c.Step()
				if ft.pol.MaxBatch < 1 || ft.pol.MaxBatch > ft.depth {
					t.Fatalf("step %d: MaxBatch %d outside [1, %d]", i, ft.pol.MaxBatch, ft.depth)
				}
				if ft.pol.MaxWait != 2*time.Millisecond {
					t.Fatalf("step %d: MaxWait moved to %v", i, ft.pol.MaxWait)
				}
			}
		})
	}
}

// TestConvergesOnConvexCurve starts far below the optimum and checks
// the climb lands inside the deadband and then stays put: the last 20
// ticks issue no policy change, and the settled p99 is within
// [headroom·SLA, SLA].
func TestConvergesOnConvexCurve(t *testing.T) {
	sla := 2 * time.Millisecond
	ft := newFakeTarget(128, 1, linear(200*time.Microsecond, 40*time.Microsecond))
	c := newTestController(t, ft, Config{SLA: sla})

	for i := 0; i < 100; i++ {
		c.Step()
	}
	setsAt100 := ft.sets
	for i := 0; i < 20; i++ {
		c.Step()
	}
	if ft.sets != setsAt100 {
		t.Fatalf("policy still moving after convergence window: %d adjustments in last 20 ticks", ft.sets-setsAt100)
	}

	st := c.Snapshot()[0]
	lo := time.Duration(headroom * float64(sla))
	if st.P99 < lo || st.P99 > sla {
		t.Fatalf("settled p99 %v outside deadband [%v, %v] (MaxBatch=%d)", st.P99, lo, sla, st.MaxBatch)
	}
	// The linear curve crosses the band at batch ≈ 33..45; the climb
	// must have actually moved there from 1, not stalled low.
	if st.MaxBatch < 20 {
		t.Fatalf("settled MaxBatch %d — climb stalled far below the SLA crossing", st.MaxBatch)
	}
}

// TestNoOscillationUnderSteadyLoad pins the oscillation bound: on a
// fixed curve under steady load, direction reversals are the price of
// bracketing the optimum once — not a recurring cost. 300 ticks must
// see at most a handful.
func TestNoOscillationUnderSteadyLoad(t *testing.T) {
	ft := newFakeTarget(128, 1, linear(200*time.Microsecond, 40*time.Microsecond))
	c := newTestController(t, ft, Config{SLA: 2 * time.Millisecond})
	for i := 0; i < 300; i++ {
		c.Step()
	}
	st := c.Snapshot()[0]
	if st.Reversals > 5 {
		t.Fatalf("%d reversals over 300 steady-state ticks — controller is oscillating", st.Reversals)
	}
	if st.Holds < 250 {
		t.Fatalf("only %d holds over 300 ticks — controller never settled", st.Holds)
	}
}

// TestPanicShrinkOnSevereViolation checks the multiplicative response:
// a tail at ≥ 2× the SLA halves MaxBatch in one tick instead of
// stepping down by 1.
func TestPanicShrinkOnSevereViolation(t *testing.T) {
	ft := newFakeTarget(128, 64, linear(0, 100*time.Microsecond))
	c := newTestController(t, ft, Config{SLA: 500 * time.Microsecond})
	c.Step() // p99 ≈ 6.4ms = 12.8× SLA
	if ft.pol.MaxBatch != 32 {
		t.Fatalf("MaxBatch after severe violation = %d, want 32 (halved from 64)", ft.pol.MaxBatch)
	}
}

// TestObserveModeNeverActuates: -sla without -adapt must estimate and
// export but leave the policy untouched.
func TestObserveModeNeverActuates(t *testing.T) {
	ft := newFakeTarget(128, 4, linear(200*time.Microsecond, 40*time.Microsecond))
	start := ft.pol
	c := newTestController(t, ft, Config{SLA: 2 * time.Millisecond, Observe: true})
	for i := 0; i < 50; i++ {
		c.Step()
	}
	if ft.sets != 0 || ft.pol != start {
		t.Fatalf("observe-only controller actuated: %d SetPolicy calls, policy %+v", ft.sets, ft.pol)
	}
	st := c.Snapshot()[0]
	if st.P99 == 0 || st.Window == 0 {
		t.Fatalf("observe-only controller did not estimate: %+v", st)
	}
}

// TestThinWindowHolds: a window below minWindow must be ignored —
// tuning a quiet model on a handful of samples is tuning on noise.
func TestThinWindowHolds(t *testing.T) {
	ft := newFakeTarget(128, 4, linear(200*time.Microsecond, 40*time.Microsecond))
	ft.feed = 3 // < minWindow
	c := newTestController(t, ft, Config{SLA: 2 * time.Millisecond})
	for i := 0; i < 20; i++ {
		c.Step()
	}
	if ft.sets != 0 {
		t.Fatalf("controller actuated on thin windows: %d SetPolicy calls", ft.sets)
	}
	st := c.Snapshot()[0]
	if st.Holds != 20 {
		t.Fatalf("holds = %d, want 20", st.Holds)
	}
}

// TestLoadShiftRecovers simulates the flash crowd: the curve abruptly
// steepens 4× mid-run (queueing under the higher arrival rate) and the
// controller must walk the policy back under the SLA within a bounded
// number of ticks, then re-settle.
func TestLoadShiftRecovers(t *testing.T) {
	mult := time.Duration(1)
	curve := func(b int) time.Duration {
		return (200*time.Microsecond + time.Duration(b)*40*time.Microsecond) * mult
	}
	ft := newFakeTarget(128, 1, curve)
	c := newTestController(t, ft, Config{SLA: 2 * time.Millisecond})
	for i := 0; i < 100; i++ {
		c.Step()
	}
	mult = 4 // flash crowd lands
	recovered := -1
	for i := 0; i < 60; i++ {
		c.Step()
		if st := c.Snapshot()[0]; st.P99 <= 2*time.Millisecond {
			recovered = i
			break
		}
	}
	if recovered < 0 {
		t.Fatalf("p99 never recovered under the SLA within 60 ticks of the load shift (p99=%v, MaxBatch=%d)",
			c.Snapshot()[0].P99, ft.pol.MaxBatch)
	}
}

// TestConfigValidation: SLA is required; everything else defaults.
func TestConfigValidation(t *testing.T) {
	ft := newFakeTarget(64, 1, linear(time.Millisecond, 0))
	if _, err := New(ft, Config{}); err == nil {
		t.Fatal("New accepted a zero SLA")
	}
	c := newTestController(t, ft, Config{SLA: time.Millisecond})
	if c.cfg.Interval != 500*time.Millisecond {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
}

// TestWriteMetricsFamilies: every recsys_sched_* family appears with
// the model label, and Stop is safe whether or not Start ran.
func TestWriteMetricsFamilies(t *testing.T) {
	ft := newFakeTarget(128, 4, linear(200*time.Microsecond, 40*time.Microsecond))
	c := newTestController(t, ft, Config{SLA: 2 * time.Millisecond})
	for i := 0; i < 5; i++ {
		c.Step()
	}
	var b strings.Builder
	c.WriteMetrics(&b)
	out := b.String()
	for _, fam := range []string{
		"recsys_sched_sla_seconds",
		"recsys_sched_adapt_enabled",
		"recsys_sched_p99_seconds",
		"recsys_sched_window_requests",
		"recsys_sched_max_batch",
		"recsys_sched_adjustments_total",
		"recsys_sched_reversals_total",
		"recsys_sched_holds_total",
	} {
		if !strings.Contains(out, "# TYPE "+fam) {
			t.Fatalf("exposition missing family %s:\n%s", fam, out)
		}
	}
	if !strings.Contains(out, `recsys_sched_max_batch{model="m"}`) {
		t.Fatalf("exposition missing labelled series:\n%s", out)
	}
	c.Stop() // never started: must not hang or panic
}

// TestStartStop exercises the background loop end to end against the
// fake target with a tight interval.
func TestStartStop(t *testing.T) {
	ft := newFakeTarget(128, 1, linear(200*time.Microsecond, 40*time.Microsecond))
	c := newTestController(t, ft, Config{SLA: 2 * time.Millisecond, Interval: time.Millisecond})
	c.Start()
	c.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.Snapshot()) > 0 && c.Snapshot()[0].Window > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	if st := c.Snapshot(); len(st) == 0 || st[0].Window == 0 {
		t.Fatalf("background loop never produced a trusted window: %+v", st)
	}
}

// TestStringSummary sanity-checks the loadgen/shutdown one-liner.
func TestStringSummary(t *testing.T) {
	ft := newFakeTarget(128, 4, linear(200*time.Microsecond, 40*time.Microsecond))
	c := newTestController(t, ft, Config{SLA: 2 * time.Millisecond})
	c.Step()
	s := c.String()
	want := fmt.Sprintf("sla=%v", 2*time.Millisecond)
	if !strings.Contains(s, want) || !strings.Contains(s, "m:") {
		t.Fatalf("summary missing fields: %q", s)
	}
}
