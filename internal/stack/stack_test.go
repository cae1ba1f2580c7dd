package stack

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// specs parses flag-shaped -model values at -scale 1000.
func specs(t *testing.T, in ...string) []model.Spec {
	t.Helper()
	var out []model.Spec
	for _, s := range in {
		spec, err := model.ParseSpec(s, 1000)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, spec)
	}
	return out
}

func start(t *testing.T, cfg Config) *Stack {
	t.Helper()
	st, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// TestCrossFlagRules: every rule that relates two flags is refused by
// Start, before anything is built.
func TestCrossFlagRules(t *testing.T) {
	one, two := specs(t, "rmc1"), specs(t, "a=rmc1", "b=rmc3")
	cases := []struct {
		name   string
		cfg    Config
		errHas string
	}{
		{"adapt without sla", Config{Models: one, Adapt: true}, "-adapt requires a positive -sla"},
		{"shards with a checkpoint", Config{Checkpoint: "m.ckpt", EmbShards: "127.0.0.1:1"}, "-emb-shards requires a preset -model"},
		{"shards with two models", Config{Models: two, EmbShards: "127.0.0.1:1"}, "-emb-shards serves a single model"},
		{"online over shards", Config{Models: one, EmbShards: "127.0.0.1:1", Online: true}, "-online trains embedding rows the -emb-shards tier cannot receive"},
		{"watch without a checkpoint", Config{Models: one, Watch: time.Second}, "-watch requires -checkpoint"},
		{"watch and online", Config{Checkpoint: "m.ckpt", Watch: time.Second, Online: true}, "-watch and -online both replace the default model"},
		{"checkpoint and model", Config{Models: one, Checkpoint: "m.ckpt"}, "mutually exclusive"},
		{"nothing to serve", Config{}, "nothing to serve"},
	}
	for _, c := range cases {
		c.cfg.Workers = 1
		st, err := Start(c.cfg)
		if err == nil {
			st.Close()
			t.Errorf("%s: Start succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: err %q, want one mentioning %q", c.name, err, c.errHas)
		}
	}
}

// TestBatchingOff: -max-batch 0 (and below) is the engine's own spelling
// of "batching off"; the queue depth is derived after that clamp, so the
// stack starts, with room for four single-sample batches per worker.
func TestBatchingOff(t *testing.T) {
	for _, maxBatch := range []int{0, -3} {
		st := start(t, Config{Models: specs(t, "rmc1"), Workers: 4, MaxBatch: maxBatch})
		if got := st.Engine.QueueDepth(); got != 16 {
			t.Errorf("-max-batch %d: queue depth %d, want 16", maxBatch, got)
		}
		pol, err := st.Engine.Policy(engine.DefaultModelName)
		if err != nil || pol.MaxBatch != 1 || pol.SplitAbove != 0 {
			t.Errorf("-max-batch %d: policy %+v (err %v), want MaxBatch 1, no split", maxBatch, pol, err)
		}
	}
}

// rankBody is a valid POST /rank body of the given batch for m.
func rankBody(m *model.Model, batch int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"dense":[`)
	for i := 0; i < batch; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[" + strings.TrimSuffix(strings.Repeat("0.5,", m.Config.DenseIn), ",") + "]")
	}
	b.WriteString(`],"sparse_ids":[`)
	for t, tb := range m.Config.Tables {
		if t > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[" + strings.TrimSuffix(strings.Repeat("1,", batch*tb.Lookups), ",") + "]")
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestOnlineABWiring: with -online -online-ab the updater is built over
// the default model, its families join /metrics, its canary inherits the
// registration policy (-split included), and the handler spreads bare
// POST /rank across the two arms.
func TestOnlineABWiring(t *testing.T) {
	st := start(t, Config{
		Models: specs(t, "rmc1"), Seed: 1, Workers: 2, MaxBatch: 4, MaxWait: 200 * time.Microsecond,
		SplitAbove: 2, Online: true, OnlineInterval: time.Hour, OnlineAB: 50, OnlineBuffer: 256, OnlineHoldout: 16,
	})
	if st.Updater == nil || st.Clicks == nil || st.Updater.Router() == nil {
		t.Fatalf("updater %v, buffer %v: -online -online-ab started neither", st.Updater, st.Clicks)
	}
	// One cycle by hand (the hour-long interval never fires) publishes
	// the first canary.
	if _, err := st.Updater.RunCycle(); err != nil {
		t.Fatal(err)
	}
	canary := engine.DefaultModelName + "-next"
	want, _ := st.Engine.Policy(engine.DefaultModelName)
	if got, err := st.Engine.Policy(canary); err != nil || got != want || got.SplitAbove != 2 {
		t.Fatalf("canary policy %+v (err %v), want the primary's %+v", got, err, want)
	}

	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	m, err := st.Engine.Model(engine.DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		resp, err := http.Post(srv.URL+"/rank", "application/json", bytes.NewReader(rankBody(m, 1)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /rank: status %d", resp.StatusCode)
		}
	}
	var metrics strings.Builder
	st.Engine.WriteMetrics(&metrics)
	for _, arm := range []string{engine.DefaultModelName, canary} {
		for _, line := range []string{
			fmt.Sprintf(`recsys_online_route_picks_total{model="default",arm=%q} 4`, arm),
			fmt.Sprintf(`recsys_requests_total{model=%q} 4`, arm),
		} {
			if !strings.Contains(metrics.String(), line) {
				t.Errorf("metrics missing %q", line)
			}
		}
	}
	if st.Clicks.Fed() != 8 {
		t.Errorf("serve tap labeled %d samples, want 8", st.Clicks.Fed())
	}
}

// int8Alone fails unless every table of m holds int8 rows and no fp32
// table.
func int8Alone(t *testing.T, what string, m *model.Model) {
	t.Helper()
	for i, op := range m.SLS {
		if op.Table.W != nil || op.Quant == nil {
			t.Fatalf("%s: table %d does not hold int8 rows alone", what, i)
		}
	}
}

// TestOnlineInt8Tables: under -online an -int8 default model holds its
// int8 rows alone, as without -online (the updater trains an fp32 twin
// rebuilt from the spec). It serves the same scores as the serving-only
// build, and each cycle trains and swaps in a candidate that holds
// int8 rows alone too.
func TestOnlineInt8Tables(t *testing.T) {
	sp := specs(t, "rmc1-int8")
	st := start(t, Config{
		Models: sp, Seed: 1, Workers: 1, MaxBatch: 4, MaxWait: 200 * time.Microsecond,
		Online: true, OnlineInterval: time.Hour, OnlineSteps: 2, OnlineBatch: 4, OnlineLR: 0.05, OnlineBuffer: 64,
	})
	served, err := st.Engine.Model(engine.DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	int8Alone(t, "-online rmc1-int8", served)
	serving, err := model.BuildSpecs(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := model.NewRandomRequest(served.Config, 4, stats.NewRNG(3))
	got, err := st.Engine.Rank(context.Background(), engine.DefaultModelName, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range serving[0].AppendCTR(nil, req, tensor.NewArena(), 1) {
		if got[i] != want {
			t.Fatalf("score %d: %v under -online, %v serving-only", i, got[i], want)
		}
	}

	for cycle := 0; cycle < 2; cycle++ {
		res, err := st.Updater.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Swapped || res.Steps == 0 {
			t.Fatalf("cycle %d: swapped=%v after %d steps, want a trained swap", cycle, res.Swapped, res.Steps)
		}
		cand, err := st.Engine.Model(engine.DefaultModelName)
		if err != nil {
			t.Fatal(err)
		}
		int8Alone(t, fmt.Sprintf("cycle %d candidate", cycle), cand)
	}
}

// TestCheckpointWatch: a -checkpoint stack serves the saved model, fp32
// or int8, with bit-identical scores, and with -watch picks up a newer
// file as the next generation. An int8 checkpoint has no fp32 rows to
// train, so -online over one fails at Start with model.ErrInt8Only.
func TestCheckpointWatch(t *testing.T) {
	for _, int8Tables := range []bool{false, true} {
		name := "fp32"
		if int8Tables {
			name = "int8"
		}
		t.Run(name, func(t *testing.T) {
			cfg := model.RMC1Small().Scaled(1000)
			path := filepath.Join(t.TempDir(), "m.ckpt")
			save := func(seed uint64) *model.Model {
				m, err := model.Build(cfg, stats.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				if int8Tables {
					m.QuantizeTables()
				}
				if err := m.SaveFile(path); err != nil {
					t.Fatal(err)
				}
				return m
			}
			first := save(1)
			st := start(t, Config{Checkpoint: path, Workers: 1, MaxBatch: 1, Watch: 5 * time.Millisecond})

			req := model.NewRandomRequest(cfg, 2, stats.NewRNG(9))
			got, err := st.Engine.Rank(context.Background(), engine.DefaultModelName, req)
			if err != nil {
				t.Fatal(err)
			}
			if want := first.AppendCTR(nil, req, tensor.NewArena(), 1); got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("checkpoint stack scored %v, the saved model %v", got, want)
			}

			gen0, _ := st.Engine.Generation(engine.DefaultModelName)
			second := save(2)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if gen, _ := st.Engine.Generation(engine.DefaultModelName); gen > gen0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the watcher never swapped the rewritten checkpoint in")
				}
			}
			got, err = st.Engine.Rank(context.Background(), engine.DefaultModelName, req)
			if err != nil {
				t.Fatal(err)
			}
			if want := second.AppendCTR(nil, req, tensor.NewArena(), 1); got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("after the swap the stack scored %v, the new checkpoint %v", got, want)
			}

			if int8Tables {
				online, err := Start(Config{Checkpoint: path, Workers: 1, Online: true, OnlineInterval: time.Hour, OnlineBuffer: 16})
				if err == nil {
					online.Close()
				}
				if !errors.Is(err, model.ErrInt8Only) {
					t.Fatalf("-online over an int8 checkpoint: err %v, want model.ErrInt8Only", err)
				}
			}
		})
	}
}

// TestWatchRefusesASnapshotOnce: a checkpoint the watcher cannot serve
// (another model's shape, bytes model.LoadFile rejects, or a header
// declaring a 1 GiB bottom MLP in a 120-byte file, refused before it is
// allocated) keeps the served model serving, is logged once however
// many ticks see it, and a later compatible rewrite still swaps in as
// the next generation.
func TestWatchRefusesASnapshotOnce(t *testing.T) {
	cfg := model.RMC1Small().Scaled(1000)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	// install replaces the checkpoint the way cmd/train -snapshot-every
	// does: write a temp file, rename it over.
	install := func(write func(tmp string) error) {
		t.Helper()
		tmp := filepath.Join(dir, "m.ckpt.tmp")
		if err := write(tmp); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	saved := func(c model.Config, seed uint64) func(string) error {
		return func(tmp string) error {
			m, err := model.Build(c, stats.NewRNG(seed))
			if err != nil {
				return err
			}
			return m.SaveFile(tmp)
		}
	}
	install(saved(cfg, 1))

	var mu sync.Mutex
	var refusals []string
	const tick = 5 * time.Millisecond
	st := start(t, Config{Checkpoint: path, Workers: 1, MaxBatch: 1, Watch: tick, Logf: func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "watch: load") || strings.HasPrefix(line, "watch: swap") {
			mu.Lock()
			refusals = append(refusals, line)
			mu.Unlock()
		}
	}})
	refused := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(refusals)
	}
	gen0, _ := st.Engine.Generation(engine.DefaultModelName)

	for i, bad := range []func(string) error{
		saved(model.RMC3Small().Scaled(1000), 1), // loads, but Swap refuses the shape
		func(tmp string) error { return os.WriteFile(tmp, []byte("not a checkpoint"), 0o644) },
		func(tmp string) error {
			wide := model.Config{Name: "h", Class: model.Custom, DenseIn: 1 << 14, BottomMLP: []int{1 << 14}, TopMLP: []int{1}}
			cfgJSON, err := wide.MarshalJSON()
			if err != nil {
				return err
			}
			hdr := binary.LittleEndian.AppendUint32([]byte("RECSYS01"), 2)
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(cfgJSON)))
			hdr = append(append(hdr, cfgJSON...), 0)
			return os.WriteFile(tmp, append(hdr, make([]byte, 120-len(hdr))...), 0o644)
		},
	} {
		install(bad)
		for deadline := time.Now().Add(10 * time.Second); refused() < i+1; time.Sleep(tick) {
			if time.Now().After(deadline) {
				t.Fatalf("snapshot %d was never refused", i)
			}
		}
		time.Sleep(30 * tick)
		if n := refused(); n != i+1 {
			t.Fatalf("after snapshot %d and 30 more ticks: %d refusal lines, want %d: %q", i, n, i+1, refusals)
		}
		if gen, _ := st.Engine.Generation(engine.DefaultModelName); gen != gen0 {
			t.Fatalf("a refused snapshot moved the generation %d → %d", gen0, gen)
		}
		if _, err := st.Engine.Rank(context.Background(), engine.DefaultModelName, model.NewRandomRequest(cfg, 2, stats.NewRNG(9))); err != nil {
			t.Fatalf("after snapshot %d the served model stopped serving: %v", i, err)
		}
	}

	install(saved(cfg, 2))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(tick) {
		if gen, _ := st.Engine.Generation(engine.DefaultModelName); gen == gen0+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the compatible rewrite was never swapped in")
		}
	}
}
