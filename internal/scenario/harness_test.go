package scenario_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/online"
	"recsys/internal/scenario"
	"recsys/internal/stats"
	"recsys/internal/train"
)

func scenarioConfig() model.Config { return model.RMC1Small().Scaled(1000) }

// scenarioEngineOptions pins IntraOpWorkers to 1 so the engine's hot
// path computes exactly what the checkers' ForwardEx(…, workers=1)
// reference computes — the bit-identity contract under test.
func scenarioEngineOptions() engine.Options {
	return engine.Options{
		Workers:        2,
		QueueDepth:     256,
		MaxBatch:       8,
		MaxWait:        time.Millisecond,
		IntraOpWorkers: 1,
	}
}

func buildModel(t *testing.T, cfg model.Config, seed uint64) *model.Model {
	t.Helper()
	m, err := model.Build(cfg, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTeacher(t *testing.T, cfg model.Config, seed uint64) *train.Teacher {
	t.Helper()
	teacher, err := train.NewTeacher(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return teacher
}

// routed ranks each request the way serve routes a bare POST /rank: on
// the arm router.Pick returns, reported as the arm that served it.
func routed(eng *engine.Engine, router *online.ABRouter) scenario.RankFunc {
	return func(ctx context.Context, req model.Request) ([]float32, string, error) {
		arm := router.Pick()
		out, err := eng.Rank(ctx, arm, req)
		return out, arm, err
	}
}

// genRefs records a detached clone of the model published at each swap
// generation — the reference set VerifyGenerations checks mixed-state
// freedom against. Clones keep each reference detached from the served
// instance and whatever the engine wires into it. Feed Record to
// online.Config.OnSwap.
type genRefs struct {
	t    *testing.T
	mu   sync.Mutex
	refs map[uint64]*model.Model
}

func newGenRefs(t *testing.T, gen uint64, m *model.Model) *genRefs {
	g := &genRefs{t: t, refs: make(map[uint64]*model.Model)}
	g.Record(gen, m)
	return g
}

func (g *genRefs) Record(gen uint64, m *model.Model) {
	c, err := m.Clone()
	if err != nil {
		g.t.Errorf("cloning generation %d reference: %v", gen, err)
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.refs[gen] = c
}

func (g *genRefs) Snapshot() map[uint64]*model.Model {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[uint64]*model.Model, len(g.refs))
	for k, v := range g.refs {
		out[k] = v
	}
	return out
}

func (g *genRefs) At(gen uint64) *model.Model {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.refs[gen]
}

// requireClean asserts the hard scenario invariant: zero non-shed
// errors, and at least some traffic actually served.
func requireClean(t *testing.T, res *scenario.Result) {
	t.Helper()
	if res.Failed != 0 {
		t.Fatalf("%d non-shed errors (first: %v)", res.Failed, res.Errors)
	}
	if res.OK == 0 {
		t.Fatalf("no request succeeded (%d sent, %d shed)", res.Sent, res.Shed)
	}
}

// goroutineBaseline is the teardown half of the harness: it records the
// goroutine count before a bring-up and returns the check to call after
// the teardown (Engine.Close, Stack.Close), which waits up to two
// seconds for the count to come back down to the baseline and fails
// with every goroutine's stack when it does not. Batch formers, the
// controller, the updater and the request goroutines of Run must all
// be gone once Close returns; the wait only covers
// goroutines that have been released but not yet descheduled.
func goroutineBaseline(t *testing.T) (check func()) {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		if n > base {
			stacks := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after teardown, %d before bring-up:\n%s", n, base, stacks[:runtime.Stack(stacks, true)])
		}
	}
}
