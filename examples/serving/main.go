// Serving: train a model, checkpoint it, reload it, and serve it with
// the real concurrent inference engine — worker pool plus
// cross-request batching — under concurrent client load. This is the
// full lifecycle a production recommendation service runs.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"recsys"
)

func main() {
	cfg := recsys.Config{
		Name:        "serving-demo",
		Class:       recsys.Custom,
		DenseIn:     13,
		BottomMLP:   []int{64, 32, 16},
		TopMLP:      []int{32, 1},
		Tables:      recsys.UniformTables(4, 5000, 16, 8),
		Interaction: recsys.Dot,
	}

	// 1. Train briefly against a synthetic teacher.
	teacher, err := recsys.NewTeacher(cfg, 3)
	must(err)
	m, err := recsys.Build(cfg, recsys.NewRNG(50))
	must(err)
	trainer := recsys.NewTrainerWithOptimizer(m, recsys.NewAdaGrad(0.05))
	for i := 0; i < 400; i++ {
		req, labels := teacher.Sample(32)
		trainer.Step(req, labels)
	}
	fmt.Printf("trained: held-out AUC %.3f\n", teacher.Evaluate(m, 2000))

	// 2. Checkpoint and reload — what a trainer→server handoff does.
	dir, err := os.MkdirTemp("", "recsys-serving")
	must(err)
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "model.ckpt")
	must(m.SaveFile(ckpt))
	served, err := recsys.LoadModelFile(ckpt)
	must(err)
	fmt.Printf("checkpoint round trip: %s\n", ckpt)

	// 3. Serve with the concurrent engine: 4 workers, cross-request
	// batching up to 64 samples or 1ms. The first registered model is
	// the default, named "" below.
	eng, err := recsys.NewEngine(recsys.ServeOptions{
		Workers: 4, QueueDepth: 256, MaxBatch: 64, MaxWait: time.Millisecond,
	})
	must(err)
	must(eng.Register("ctr", served, recsys.ModelOptions{}))

	// 4. Concurrent clients.
	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := recsys.NewRNG(uint64(c) + 100)
			for i := 0; i < perClient; i++ {
				req := recsys.NewRandomRequest(cfg, 4, rng)
				if _, err := eng.Rank(context.Background(), "", req); err != nil {
					panic(err)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	eng.Close()

	st, err := eng.ModelStats("")
	must(err)
	fmt.Printf("served %d requests (%d samples) in %v\n", st.Requests, st.Samples, elapsed.Round(time.Millisecond))
	fmt.Printf("forward passes: %d (avg batch %.1f samples — cross-request coalescing)\n", st.Batches, st.AvgBatch())
	fmt.Printf("throughput: %.0f samples/s\n", float64(st.Samples)/elapsed.Seconds())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
