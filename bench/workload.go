package main

import (
	"fmt"
	"strconv"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
)

// serverSeed is the -seed every serve and embshard child is started
// with; the in-process twin is built from the same stream.
const serverSeed = 1

// workload is one server configuration plus the traffic sent to it.
// README.md says why each exists.
type workload struct {
	name     string
	preset   string // rmc1, rmc2 or rmc3
	scale    int    // embedding-table shrink factor
	int8     bool   // row-wise int8 tables
	embCache int    // -emb-cache rows per table, 0 = flag not passed
	shards   int    // embshard children, 0 = in-process tables
	items    int    // user-item pairs per request
	conns    int    // connections of the closed loop; run.go says why they differ
	zipf     bool   // Zipf(1.1) row IDs per table, else uniform
	rate     float64
	sla      time.Duration
	warm     time.Duration // shortest warm-up; run.go says what it waits for
}

var workloads = []workload{
	{name: "rmc1_smallreq", preset: "rmc1", scale: 10, items: 4, conns: 8, rate: 800, sla: 10 * time.Millisecond, warm: 3 * time.Second},
	{name: "rmc3_dense", preset: "rmc3", scale: 10, items: 16, conns: 16, rate: 100, sla: 30 * time.Millisecond, warm: 3 * time.Second},
	{name: "rmc2_zipf", preset: "rmc2", scale: 10, int8: true, embCache: 7500, items: 4, conns: 16, zipf: true, rate: 100, sla: 30 * time.Millisecond, warm: 7 * time.Second},
	{name: "rmc2_uniform", preset: "rmc2", scale: 10, int8: true, embCache: 7500, items: 4, conns: 16, rate: 60, sla: 40 * time.Millisecond, warm: 7 * time.Second},
	{name: "rmc2_sharded", preset: "rmc2", scale: 100, int8: true, shards: 2, items: 4, conns: 16, zipf: true, rate: 50, sla: 50 * time.Millisecond, warm: 3 * time.Second},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// modelSpec is the -model value serve and embshard are given.
func (w workload) modelSpec() string {
	spec := w.preset
	if w.int8 {
		spec += "-int8"
	}
	return spec + ":" + strconv.Itoa(w.scale)
}

// buildTwin builds the model exactly as cmd/serve builds its first
// -model spec, so its scores are what the server must return.
func (w workload) buildTwin() (*model.Model, error) {
	var cfg model.Config
	switch w.preset {
	case "rmc1":
		cfg = model.RMC1Small()
	case "rmc2":
		cfg = model.RMC2Small()
	case "rmc3":
		cfg = model.RMC3Small()
	default:
		return nil, fmt.Errorf("bench: unknown preset %q", w.preset)
	}
	m, err := model.Build(cfg.Scaled(w.scale), stats.NewRNG(serverSeed).Split())
	if err != nil {
		return nil, err
	}
	if w.int8 {
		m.QuantizeTables()
	}
	return m, nil
}
