package main

import (
	"crypto/sha256"
	"encoding/json"
	"testing"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
)

func poolHash(pool []request) [32]byte {
	h := sha256.New()
	for _, r := range pool {
		h.Write(r.body)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// The same seed must give byte-identical bodies, and another seed
// different ones, for both ID distributions.
func TestPoolDependsOnSeedAlone(t *testing.T) {
	cfg := model.RMC1Small().Scaled(100)
	for _, zipf := range []bool{false, true} {
		a, b := genPool(cfg, 4, zipf, 1, 32), genPool(cfg, 4, zipf, 1, 32)
		if poolHash(a) != poolHash(b) {
			t.Errorf("zipf=%v: seed 1 gave two different pools", zipf)
		}
		if poolHash(a) == poolHash(genPool(cfg, 4, zipf, 2, 32)) {
			t.Errorf("zipf=%v: seeds 1 and 2 gave the same pool", zipf)
		}
	}
	if poolHash(genPool(cfg, 4, false, 1, 32)) == poolHash(genPool(cfg, 4, true, 1, 32)) {
		t.Error("uniform and Zipf pools are identical")
	}
}

// The hand-written body must decode into the server's request type to
// exactly the input the twin is given.
func TestBodyDecodesToTheTwinInput(t *testing.T) {
	cfg := model.RMC1Small().Scaled(100)
	r := genPool(cfg, 3, true, 7, 1)[0]
	var rr engine.RankRequest
	if err := json.Unmarshal(r.body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Dense) != 3 || len(rr.SparseIDs) != len(cfg.Tables) {
		t.Fatalf("decoded %d dense rows and %d tables", len(rr.Dense), len(rr.SparseIDs))
	}
	for i, row := range rr.Dense {
		for j, v := range row {
			if v != r.req.Dense.At(i, j) {
				t.Fatalf("dense[%d][%d] = %v on the wire, %v in the twin input", i, j, v, r.req.Dense.At(i, j))
			}
		}
	}
	for tb, ids := range rr.SparseIDs {
		if len(ids) != 3*cfg.Tables[tb].Lookups {
			t.Fatalf("table %d: %d IDs", tb, len(ids))
		}
		for j, id := range ids {
			if id != r.req.SparseIDs[tb][j] || id < 0 || id >= cfg.Tables[tb].Rows {
				t.Fatalf("table %d id %d = %d, twin input %d, rows %d", tb, j, id, r.req.SparseIDs[tb][j], cfg.Tables[tb].Rows)
			}
		}
	}
}

// Zipf(1.1) must repeat rows far more than uniform does, or the cache
// workloads do not differ.
func TestZipfSharesRows(t *testing.T) {
	cfg := model.RMC2Small().Scaled(10)
	distinct := func(zipf bool) int {
		seen := map[int]struct{}{}
		for _, r := range genPool(cfg, 4, zipf, 1, 8) {
			for _, id := range r.req.SparseIDs[0] {
				seen[id] = struct{}{}
			}
		}
		return len(seen)
	}
	u, z := distinct(false), distinct(true)
	if z*2 > u {
		t.Errorf("%d distinct rows under Zipf, %d under uniform: not skewed", z, u)
	}
}

func TestArrivalsAreDeterministicAndAtRate(t *testing.T) {
	a, b := genArrivals(1, 200, 10*time.Second), genArrivals(1, 200, 10*time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Error("seed 1 gave two different schedules")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 10 s at 200/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times not ascending at %d", i)
		}
	}
	if c := genArrivals(2, 200, 10*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
}
