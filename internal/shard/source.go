package shard

import (
	"fmt"
	"sync"
	"time"

	"recsys/internal/nn"
	"recsys/internal/tensor"
)

// tableSource adapts one embedding table of the remote tier to
// nn.GatherSource: BeginGather partitions the plan's miss list with
// ShardOf, fans the per-shard sub-plans out as opGatherRows requests,
// and scatters the raw rows into the caller's staging tensor.
// Client-side accumulation then runs in the original per-sample ID
// order, so the result is bit-identical to local serving regardless of
// shard count. The tier's rows never change under a running server, so
// a fetched row stays valid for as long as the caller keeps it.
type tableSource struct {
	c     *Client
	table uint32
	rows  int
	cols  int
}

// Source returns table's view of the remote tier as an nn.GatherSource
// for a table of the given height and width. Attach it with
// nn.SLSOp.SetRowStore.
func (c *Client) Source(table, rows, cols int) nn.GatherSource {
	return &tableSource{c: c, table: uint32(table), rows: rows, cols: cols}
}

// Rows implements nn.GatherSource.
func (t *tableSource) Rows() int { return t.rows }

// Cols implements nn.GatherSource.
func (t *tableSource) Cols() int { return t.cols }

// checkResp decodes and validates one gather response against this
// table.
func (t *tableSource) checkResp(payload []byte, reqID uint32, wantRows int) (*tableResp, error) {
	tr, err := decodeResp(payload, reqID)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	if tr == nil || tr.table != t.table || tr.cols != t.cols || tr.nRows != wantRows {
		return nil, fmt.Errorf("%w: response shape mismatch for table %d", ErrUnavailable, t.table)
	}
	return tr, nil
}

// part is one shard's slice of an in-flight gather.
type part struct {
	ids   []uint32 // row IDs, wire form
	rows  []int32  // destination staging rows, parallel to ids
	req   []byte   // encoded request frame payload
	reqID uint32
	err   error
}

// pending is one in-flight BeginGather fan-out. Pooled: Wait returns
// it to the pool.
type pending struct {
	src   *tableSource
	dst   *tensor.Tensor
	wg    sync.WaitGroup
	parts []part
}

var pendingPool = sync.Pool{New: func() any { return new(pending) }}

func deadlineMicros(deadline time.Time) uint32 {
	us := time.Until(deadline).Microseconds()
	if us < 0 {
		us = 0
	}
	if us > 1<<32-1 {
		us = 1<<32 - 1
	}
	return uint32(us)
}

// BeginGather implements nn.GatherSource. ids are copied out before it
// returns, honoring the contract that they alias caller scratch.
func (t *tableSource) BeginGather(ids []int64, dstRows []int32, dst *tensor.Tensor, deadline time.Time) nn.PendingGather {
	if deadline.IsZero() {
		deadline = time.Now().Add(t.c.opts.RequestTimeout)
	}
	g := pendingPool.Get().(*pending)
	g.src, g.dst = t, dst
	n := len(t.c.peers)
	if cap(g.parts) < n {
		g.parts = make([]part, n)
	}
	g.parts = g.parts[:n]
	for i := range g.parts {
		g.parts[i].ids = g.parts[i].ids[:0]
		g.parts[i].rows = g.parts[i].rows[:0]
		g.parts[i].err = nil
	}
	for i, id := range ids {
		si := ShardOf(id, n)
		p := &g.parts[si]
		p.ids = append(p.ids, uint32(id))
		p.rows = append(p.rows, dstRows[i])
	}
	us := deadlineMicros(deadline)
	for si := range g.parts {
		p := &g.parts[si]
		if len(p.ids) == 0 {
			continue
		}
		p.reqID = t.c.reqID.Add(1)
		// The request buffer is NOT recycled through the pool: an
		// abandoned hedge attempt can still be writing it to its socket
		// after the winning response has already let Wait return, so
		// reuse would race. The in-flight goroutines keep it alive; GC
		// reclaims it (the remote path has no zero-alloc contract).
		p.req = appendRowsReq(nil, p.reqID, us, t.table, p.ids)
		g.wg.Add(1)
		go g.run(si, deadline)
	}
	return g
}

// run executes one shard's sub-request and scatters its rows. Distinct
// shards write disjoint staging rows, so concurrent scatters never
// overlap.
func (g *pending) run(si int, deadline time.Time) {
	defer g.wg.Done()
	t := g.src
	p := &g.parts[si]
	bp, err := t.c.peers[si].do(p.req, deadline)
	if err != nil {
		p.err = err
		return
	}
	defer respPool.Put(bp)
	tr, err := t.checkResp(*bp, p.reqID, len(p.ids))
	if err != nil {
		p.err = err
		return
	}
	for i, r := range p.rows {
		tr.rowF32(i, g.dst.Row(int(r))[:t.cols])
	}
}

// Wait implements nn.PendingGather; the tier is read-only, so it never
// reports a generation change.
func (g *pending) Wait() (bool, error) {
	g.wg.Wait()
	var err error
	for i := range g.parts {
		if g.parts[i].err != nil {
			err = g.parts[i].err
			break
		}
	}
	g.src, g.dst = nil, nil
	pendingPool.Put(g)
	return false, err
}
