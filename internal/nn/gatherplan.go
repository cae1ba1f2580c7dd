package nn

import (
	"fmt"
	"sync"
	"time"

	"recsys/internal/tensor"
)

// RowCache is the read-through hot-row cache the planned gather
// consults before asking a GatherSource for a row (satisfied by
// embcache.Concurrent). It sits only in front of a remote store: there
// a hit saves bytes on the wire, whereas a local row is cheaper to read
// in place (gatherLocal). The first argument of Lookup and Insert is
// unused (the gather passes 0); it stays because embcache.Concurrent,
// which keeps that shape for the system benchmark, must satisfy this.
type RowCache interface {
	Lookup(gen, id uint64, dst []float32) bool
	Insert(gen, id uint64, src []float32)
	Cols() int
}

// Gather plans pack (row ID, position) into one int64 so the dedup
// sort is a single allocation-free pass over machine words.
// planPosBits bounds the positions (batch × lookups) a plan can
// address: 16 M, twice what the 8 MiB request-body limit lets in.
const planPosBits = 24
const maxPlanPositions = 1 << planPosBits

// The dedup sort is a stable LSD radix sort over the ID field only
// (bits ≥ planPosBits): keys are packed in position order and counting
// passes are stable, so positions sharing an ID stay in ascending
// order without ever sorting the position bits. 11-bit digits keep the
// count array L1-resident (8 KB) while covering any realistic table in
// two passes (≤ 4M rows); comparison sorting the same keys costs
// several times more on the profiled serving path.
const radixBits = 11
const radixSize = 1 << radixBits

// gatherPlan is the reusable scratch for one planned gather: the
// merged batch's IDs dedup-sorted into a unique list plus a
// per-position index into it. Plans are pooled; the arena owns the
// staging rows themselves.
type gatherPlan struct {
	keys  []int64 // packed (id << planPosBits) | position, then sorted
	tmp   []int64 // radix-sort ping-pong buffer
	uniq  []int64 // unique row IDs, ascending
	index []int32 // per original position: row index into the staging buffer

	// Miss list: the unique rows the cache could not serve, as (row ID,
	// staging row) pairs — the sub-plan BeginGather fans out per shard.
	missIDs  []int64
	missRows []int32
}

var planPool = sync.Pool{New: func() any { return new(gatherPlan) }}

// build dedups and sorts ids, filling uniq and index, and returns the
// unique-row count. Positions sharing a row ID sort adjacently, so one
// ascending walk assigns staging indices; the low position bits keep
// keys distinct without affecting ID order.
func (p *gatherPlan) build(ids []int) int {
	n := len(ids)
	if n > maxPlanPositions {
		panic(fmt.Sprintf("nn: gather of %d positions exceeds the plan's %d", n, maxPlanPositions))
	}
	if cap(p.keys) < n {
		p.keys = make([]int64, n)
		p.tmp = make([]int64, n)
		p.index = make([]int32, n)
		p.uniq = make([]int64, 0, n)
	}
	p.keys = p.keys[:n]
	p.tmp = p.tmp[:n]
	p.index = p.index[:n]
	p.uniq = p.uniq[:0]
	maxID := 0
	for pos, id := range ids {
		if id > maxID {
			maxID = id
		}
		p.keys[pos] = int64(id)<<planPosBits | int64(pos)
	}
	p.sortByID(uint64(maxID))
	prev := int64(-1)
	for _, k := range p.keys {
		id := k >> planPosBits
		pos := k & (maxPlanPositions - 1)
		if id != prev {
			p.uniq = append(p.uniq, id)
			prev = id
		}
		p.index[pos] = int32(len(p.uniq) - 1)
	}
	return len(p.uniq)
}

// sortByID stable-sorts p.keys by their ID field with an LSD counting
// sort over radixBits-wide digits, ping-ponging between keys and tmp.
// Digits above the largest ID are all zero, so passes stop as soon as
// maxID's remaining bits are exhausted — one pass per 2048 rows of
// table height, two for anything up to 4M rows.
func (p *gatherPlan) sortByID(maxID uint64) {
	src, dst := p.keys, p.tmp
	swapped := false
	for shift := uint(planPosBits); maxID>>(shift-planPosBits) != 0; shift += radixBits {
		var count [radixSize]int32
		for _, k := range src {
			count[(uint64(k)>>shift)&(radixSize-1)]++
		}
		sum := int32(0)
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, k := range src {
			d := (uint64(k) >> shift) & (radixSize - 1)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(p.keys, src)
	}
}

// SetRowCache attaches (or, with nil, detaches) a read-through row
// cache in front of the op's GatherSource. Attaching one to an op that
// reads its rows locally panics: gatherLocal would never consult it.
// The op must not be serving when the attached cache changes — the
// engine attaches before a model is published and the same-cache
// re-attach on hot swap is a guarded no-op, so swap traffic never races
// this write.
func (s *SLSOp) SetRowCache(c RowCache) {
	if c == s.cache {
		return
	}
	if c != nil && s.remote == nil {
		panic("nn: a row cache needs a remote store behind it (SetRowStore first); local rows are read in place")
	}
	if c != nil && c.Cols() != s.Table.Cols {
		panic(fmt.Sprintf("nn: row cache width %d does not match table width %d", c.Cols(), s.Table.Cols))
	}
	s.cache = c
}

// RowCacheRef returns the attached row cache, if any.
func (s *SLSOp) RowCacheRef() RowCache { return s.cache }

// SLSForward is one SLS forward in two phases: Begin dispatches the
// gather, Finish waits and pools. With a local store Begin only
// records the arguments and Finish runs the whole gather, so the split
// costs the local path nothing; with a GatherSource the rows are in
// flight between the two calls and the model runs the Bottom-MLP in
// the gap — the overlap internal/dist's Estimate models (TotalUS =
// max(Bottom, Shard+Net) + Top).
type SLSForward struct {
	op      *SLSOp
	ids     []int
	batch   int
	workers int
	a       *tensor.Arena

	// Planned-gather state, set by probe; plan stays nil for the local
	// store.
	plan    *gatherPlan
	out     *tensor.Tensor
	staging *tensor.Tensor
	pending PendingGather
}

// Begin starts one SLS forward into f. With a GatherSource it builds
// the gather plan, consults the row cache, and dispatches the miss
// list; with the local store it just records the arguments for Finish.
// f is caller-owned scratch (typically a stack value or a pooled slice
// entry) and must not be reused until Finish returns.
func (s *SLSOp) Begin(f *SLSForward, ids []int, batch int, a *tensor.Arena, workers int, deadline time.Time) {
	s.checkIDCount(ids, batch)
	*f = SLSForward{op: s, ids: ids, batch: batch, a: a, workers: workers}
	if s.remote != nil {
		f.probe()
		if p := f.plan; len(p.missIDs) > 0 {
			f.pending = s.remote.BeginGather(p.missIDs, p.missRows, f.staging, deadline)
		}
	}
}

// probe opens the planned gather in front of a GatherSource: dedup the
// merged batch's IDs (co-batched requests share hot rows) and copy
// every unique row the cache holds into an arena-backed staging
// buffer, leaving the rest in the plan's miss list for the source to
// fetch. Each unique row crosses the wire at most once per pass.
func (f *SLSForward) probe() {
	s := f.op
	cols := s.Table.Cols
	f.out = allocDense(f.a, f.batch, cols)
	s.Table.validateIDs(f.ids)
	p := planPool.Get().(*gatherPlan)
	f.plan = p
	nUniq := p.build(f.ids)
	// Staging can skip the arena's zero fill: every row is written
	// exactly once — by a cache hit here or by the fetch — before
	// accumStaged reads any of it. (out must stay zeroed: accumulation
	// is +=.)
	f.staging = allocDenseUninit(f.a, nUniq, cols)
	p.missIDs = p.missIDs[:0]
	p.missRows = p.missRows[:0]
	for u, id := range p.uniq {
		if s.cache != nil && s.cache.Lookup(0, uint64(id), f.staging.Row(u)) {
			continue
		}
		p.missIDs = append(p.missIDs, id)
		p.missRows = append(p.missRows, int32(u))
	}
}

// Finish completes the forward begun by Begin and returns the pooled
// output. For the local store that is gatherLocal, whole. For a
// GatherSource it waits for the rows the cache missed, inserts them
// into the cache, and accumulates in the original per-sample ID order,
// so its output is bit-identical to gatherLocal's as long as the source
// serves the same row values. A fetch error panics with the source's error value (the
// engine's recover maps it to its HTTP taxonomy).
func (f *SLSForward) Finish() *tensor.Tensor {
	s := f.op
	if f.plan == nil {
		return s.gatherLocal(s.Quant, f.ids, f.batch, f.a, f.workers)
	}
	p, out, staging := f.plan, f.out, f.staging
	if f.pending != nil {
		if _, err := f.pending.Wait(); err != nil {
			planPool.Put(p)
			panic(err)
		}
	}
	if s.cache != nil {
		for i, id := range p.missIDs {
			s.cache.Insert(0, uint64(id), staging.Row(int(p.missRows[i])))
		}
	}
	// Inline serial path: the parallel branch's closure must not be
	// reached at workers <= 1, or its allocation would break the
	// steady-state zero-alloc contract.
	if workers := slsWorkers(f.workers, f.batch, len(f.ids)*s.Table.Cols); workers <= 1 {
		s.accumStaged(out, staging, p.index, 0, f.batch)
	} else {
		tensor.ParallelFor(f.batch, workers, func(lo, hi int) {
			s.accumStaged(out, staging, p.index, lo, hi)
		})
	}
	planPool.Put(p)
	return out
}

// accumStaged pools output rows [kLo, kHi) from staged rows via plan
// indices, in original per-sample ID order. On the AVX2 tier each
// staged-row add runs through tensor.AddF32 (bit-identical to the
// scalar loop); the pure-Go tier mirrors accumRow's fixed-width 32/64
// specializations (bounds-check-free), with the default path covering
// the narrow NCF widths.
func (s *SLSOp) accumStaged(out, staging *tensor.Tensor, index []int32, kLo, kHi int) {
	sd := staging.Data()
	l := s.Lookups
	if tensor.SIMDActive() {
		cols := s.Table.Cols
		for k := kLo; k < kHi; k++ {
			d := out.Row(k)
			for _, u := range index[k*l : (k+1)*l] {
				tensor.AddF32(d, sd[int(u)*cols:int(u)*cols+cols])
			}
		}
		return
	}
	switch s.Table.Cols {
	case 32:
		for k := kLo; k < kHi; k++ {
			d := (*[32]float32)(out.Row(k))
			for _, u := range index[k*l : (k+1)*l] {
				src := (*[32]float32)(sd[int(u)*32:])
				for i := range d {
					d[i] += src[i]
				}
			}
		}
	case 64:
		for k := kLo; k < kHi; k++ {
			d := (*[64]float32)(out.Row(k))
			for _, u := range index[k*l : (k+1)*l] {
				src := (*[64]float32)(sd[int(u)*64:])
				for i := range d {
					d[i] += src[i]
				}
			}
		}
	default:
		cols := s.Table.Cols
		for k := kLo; k < kHi; k++ {
			d := out.Row(k)
			for _, u := range index[k*l : (k+1)*l] {
				src := sd[int(u)*cols : int(u)*cols+cols]
				for i, v := range src {
					d[i] += v
				}
			}
		}
	}
}
