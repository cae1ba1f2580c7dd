package main

import (
	"math"
	"sort"
	"strconv"
	"time"

	"recsys/internal/model"
	"recsys/internal/tensor"
)

// The benchmark owns its input generator: request bodies and arrival
// times depend on -seed and the model's shape alone, never on the
// repo's own generators (internal/trace, internal/stats), so a later
// change to those cannot change what the server is asked.

// rng is splitmix64.
type rng struct{ s uint64 }

// newRNG returns the generator for one (seed, stream) pair; streams
// keep the ID, dense-feature and arrival draws independent.
func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform draw in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// norm returns a standard normal draw (Box-Muller).
func (r *rng) norm() float64 {
	u := 1 - r.float() // (0,1]
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// zipf draws ranks in [0,n) with P(rank k) ∝ 1/(k+1)^s by inverting a
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// zipfSpread is a prime larger than any table: multiplying a rank by
// it modulo the row count is a bijection that scatters the popular
// rows over the table instead of packing them into its first pages.
const zipfSpread = 2654435761

// request is one generated POST /rank input: the marshalled body the
// server receives, the same input in the model's own form for the
// in-process twin, and the twin's scores where the oracle checks them.
type request struct {
	body []byte
	req  model.Request
	want []float32
}

// genPool generates n requests of items samples each for a model of
// shape cfg: standard-normal dense features and, per table, uniform or
// Zipf(1.1) row IDs.
func genPool(cfg model.Config, items int, zipfIDs bool, seed uint64, n int) []request {
	ids, dense := newRNG(seed, 1), newRNG(seed, 2)
	// Tables of one height share a sampler; each gets its own offset so
	// the popular rows of different tables differ.
	samplers := map[int]*zipf{}
	pool := make([]request, n)
	for i := range pool {
		req := model.Request{Batch: items}
		if cfg.DenseIn > 0 {
			req.Dense = tensor.New(items, cfg.DenseIn)
			d := req.Dense.Data()
			for j := range d {
				d[j] = float32(dense.norm())
			}
		}
		for t, spec := range cfg.Tables {
			row := make([]int, items*spec.Lookups)
			for j := range row {
				if !zipfIDs {
					row[j] = int(ids.next() % uint64(spec.Rows))
					continue
				}
				z := samplers[spec.Rows]
				if z == nil {
					z = newZipf(spec.Rows, 1.1)
					samplers[spec.Rows] = z
				}
				row[j] = (z.rank(ids.float())*zipfSpread + t*7919) % spec.Rows
			}
			req.SparseIDs = append(req.SparseIDs, row)
		}
		pool[i] = request{body: marshalBody(req), req: req}
	}
	return pool
}

// marshalBody writes the POST /rank JSON body by hand, so the bytes on
// the wire are fixed by this file.
func marshalBody(req model.Request) []byte {
	b := make([]byte, 0, 1<<12)
	b = append(b, '{')
	if req.Dense != nil {
		b = append(b, `"dense":[`...)
		for i := 0; i < req.Batch; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, v := range req.Dense.Row(i) {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
			}
			b = append(b, ']')
		}
		b = append(b, `],`...)
	}
	b = append(b, `"sparse_ids":[`...)
	for t, row := range req.SparseIDs {
		if t > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, id := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	return append(b, `]}`...)
}

// genArrivals returns the due times of a Poisson process of the given
// rate over dur.
func genArrivals(seed uint64, rate float64, dur time.Duration) []time.Duration {
	r := newRNG(seed, 3)
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}
