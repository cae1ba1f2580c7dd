package shard

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"recsys/internal/obs"
)

// ErrUnavailable is the typed failure of the embedding tier: a shard
// that cannot be reached, times out past retry and hedge, or answers
// with garbage. Every error the client surfaces wraps it, so callers
// (the engine) can map the whole family to one HTTP status (503)
// without knowing transport details.
var ErrUnavailable = errors.New("shard: embedding tier unavailable")

// connsPerShard bounds the idle connections kept per shard: one for
// the primary request, one warm for a hedge.
const connsPerShard = 2

// Options configures a client pool over a fixed shard topology.
type Options struct {
	// Addrs lists the shard servers (host:port); their order defines
	// shard indices and must match across every client of the tier.
	Addrs []string
	// DialTimeout bounds connection establishment (default 500ms).
	DialTimeout time.Duration
	// RequestTimeout bounds a gather when the caller passes no
	// deadline (default 2s).
	RequestTimeout time.Duration
	// HedgeAfter is the floor on the hedge delay: a second identical
	// request is sent to the same shard when the first has not
	// answered within max(HedgeAfter, observed HedgeQuantile latency),
	// first response wins (default 1ms; negative disables hedging).
	// With a hash-partitioned tier there is no replica to divert to —
	// hedging absorbs transient per-request stalls (GC pauses, queue
	// spikes), the DeepRecSys tail-latency pattern, not a persistently
	// slow host.
	HedgeAfter time.Duration
	// HedgeQuantile is the latency quantile that arms the hedge timer
	// (default 0.95).
	HedgeQuantile float64
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 500 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Second
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = time.Millisecond
	}
	if o.HedgeQuantile <= 0 || o.HedgeQuantile >= 1 {
		o.HedgeQuantile = 0.95
	}
	return o
}

// ShardStats is a point-in-time copy of one shard's client-side
// counters.
type ShardStats struct {
	Addr      string
	Requests  int64 // logical gather sub-requests
	Hedges    int64 // hedge attempts sent
	HedgeWins int64 // requests won by the hedge attempt
	Cancels   int64 // in-flight attempts abandoned after a win
	Retries   int64 // fresh-connection retries after an error
	Errors    int64 // attempt-level failures (timeouts, resets)
	Latency   obs.HistSnapshot
}

// Client is a pooled fan-out client over a shard tier. One Client is
// shared by every model in the engine; it is safe for concurrent use.
type Client struct {
	opts   Options
	peers  []*peer
	reqID  atomic.Uint32
	closed atomic.Bool
}

// peer is the per-shard connection pool plus hedging state.
type peer struct {
	c    *Client
	addr string

	mu   sync.Mutex
	idle []*wconn

	requests  atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	cancels   atomic.Int64
	retries   atomic.Int64
	errors    atomic.Int64
	lat       *obs.Histogram

	// hedgeNS caches max(HedgeAfter, observed HedgeQuantile latency),
	// recomputed from the histogram every quantileRecalcEvery requests
	// so the hot path never snapshots.
	hedgeNS atomic.Int64
	sinceQ  atomic.Int64
}

const quantileRecalcEvery = 64

// wconn is one pooled connection; a connection carries one request at
// a time (hedges run on their own connection).
type wconn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// respPool recycles response frame buffers independently of
// connections, so a decoded response can outlive the connection's
// return to the pool.
var respPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// Dial validates the topology (one pinged connection per shard) and
// returns the client pool.
func Dial(opts Options) (*Client, error) {
	opts = opts.withDefaults()
	if len(opts.Addrs) == 0 {
		return nil, errors.New("shard: no shard addresses")
	}
	c := &Client{opts: opts}
	for _, addr := range opts.Addrs {
		c.peers = append(c.peers, &peer{c: c, addr: addr, lat: obs.NewHistogram(obs.LatencyBoundsNS)})
	}
	deadline := time.Now().Add(opts.DialTimeout)
	for _, p := range c.peers {
		if err := p.ping(deadline); err != nil {
			c.Close()
			return nil, fmt.Errorf("shard: dial %s: %w", p.addr, err)
		}
	}
	return c, nil
}

// NumShards returns the tier width.
func (c *Client) NumShards() int { return len(c.peers) }

// Topology is the human-readable tier description stamped into
// benchmark output ("3 shards: a:1,b:2,c:3").
func (c *Client) Topology() string {
	if len(c.peers) == 1 {
		return "1 shard: " + c.opts.Addrs[0]
	}
	s := fmt.Sprintf("%d shards: %s", len(c.peers), c.opts.Addrs[0])
	for _, a := range c.opts.Addrs[1:] {
		s += "," + a
	}
	return s
}

// Stats snapshots every shard's counters in shard-index order.
func (c *Client) Stats() []ShardStats {
	out := make([]ShardStats, len(c.peers))
	for i, p := range c.peers {
		out[i] = ShardStats{
			Addr:      p.addr,
			Requests:  p.requests.Load(),
			Hedges:    p.hedges.Load(),
			HedgeWins: p.hedgeWins.Load(),
			Cancels:   p.cancels.Load(),
			Retries:   p.retries.Load(),
			Errors:    p.errors.Load(),
			Latency:   p.lat.Snapshot(),
		}
	}
	return out
}

// Close drops every pooled connection. In-flight requests fail or
// complete on their own sockets; their connections are closed instead
// of pooled afterwards.
func (c *Client) Close() {
	c.closed.Store(true)
	for _, p := range c.peers {
		p.mu.Lock()
		idle := p.idle
		p.idle = nil
		p.mu.Unlock()
		for _, wc := range idle {
			wc.c.Close()
		}
	}
}

func (p *peer) get(deadline time.Time) (*wconn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		wc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return wc, nil
	}
	p.mu.Unlock()
	d := net.Dialer{Timeout: p.c.opts.DialTimeout, Deadline: deadline}
	conn, err := d.Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &wconn{c: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 64<<10)}, nil
}

func (p *peer) put(wc *wconn) {
	wc.c.SetDeadline(time.Time{})
	p.mu.Lock()
	if !p.c.closed.Load() && len(p.idle) < connsPerShard {
		p.idle = append(p.idle, wc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	wc.c.Close()
}

// roundTrip sends one request frame and reads one response frame,
// returning the payload in a pooled buffer (release with respPool.Put
// after decoding). Any failure closes the connection.
func (p *peer) roundTrip(req []byte, deadline time.Time) (*[]byte, error) {
	wc, err := p.get(deadline)
	if err != nil {
		return nil, err
	}
	wc.c.SetDeadline(deadline)
	if err := writeFrame(wc.bw, req); err != nil {
		wc.c.Close()
		return nil, err
	}
	if err := wc.bw.Flush(); err != nil {
		wc.c.Close()
		return nil, err
	}
	bp := respPool.Get().(*[]byte)
	b, err := readFrame(wc.br, *bp)
	if err != nil {
		respPool.Put(bp)
		wc.c.Close()
		return nil, err
	}
	*bp = b
	p.put(wc)
	return bp, nil
}

func (p *peer) ping(deadline time.Time) error {
	req := appendPingReq(nil, p.c.reqID.Add(1))
	bp, err := p.roundTrip(req, deadline)
	if err != nil {
		return err
	}
	defer respPool.Put(bp)
	_, err = decodeResp(*bp, reqIDOf(req))
	return err
}

// reqIDOf re-reads the request ID from an encoded request (bytes 2-5).
func reqIDOf(req []byte) uint32 {
	return uint32(req[2]) | uint32(req[3])<<8 | uint32(req[4])<<16 | uint32(req[5])<<24
}

type rtRes struct {
	b     *[]byte
	err   error
	hedge bool
}

func drainResp(ch chan rtRes, n int) {
	for i := 0; i < n; i++ {
		if r := <-ch; r.b != nil {
			respPool.Put(r.b)
		}
	}
}

// hedgeDelay returns the current arm time for the hedge timer (0 =
// hedging disabled).
func (p *peer) hedgeDelay() time.Duration {
	if p.c.opts.HedgeAfter < 0 {
		return 0
	}
	if d := p.hedgeNS.Load(); d > 0 {
		return time.Duration(d)
	}
	return p.c.opts.HedgeAfter
}

// observe records a winning request latency and periodically refreshes
// the cached hedge delay from the histogram.
func (p *peer) observe(d time.Duration) {
	p.lat.Observe(int64(d))
	if p.sinceQ.Add(1)%quantileRecalcEvery != 0 {
		return
	}
	q := histQuantile(p.lat.Snapshot(), p.c.opts.HedgeQuantile)
	if floor := int64(p.c.opts.HedgeAfter); q < floor {
		q = floor
	}
	p.hedgeNS.Store(q)
}

// histQuantile approximates quantile q from a bucket snapshot: the
// upper bound of the bucket holding the q-th observation (twice the
// last bound for the +Inf bucket).
func histQuantile(s obs.HistSnapshot, q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i, n := range s.Counts {
		cum += n
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return 2 * s.Bounds[len(s.Bounds)-1]
		}
	}
	return 2 * s.Bounds[len(s.Bounds)-1]
}

// do runs one hedged request against p: primary attempt, a hedge on a
// second connection if the primary outlives the hedge delay, one
// fresh-connection retry if every in-flight attempt errors,
// first-response-wins. The returned buffer is pooled; release with
// respPool.Put. All failures wrap ErrUnavailable.
func (p *peer) do(req []byte, deadline time.Time) (*[]byte, error) {
	p.requests.Add(1)
	start := time.Now()
	ch := make(chan rtRes, 4)
	attempt := func(hedge bool) {
		b, err := p.roundTrip(req, deadline)
		ch <- rtRes{b: b, err: err, hedge: hedge}
	}
	go attempt(false)
	inflight, retried, hedged := 1, false, false
	var timerC <-chan time.Time
	if d := p.hedgeDelay(); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timerC = timer.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				if r.hedge {
					p.hedgeWins.Add(1)
				}
				if inflight > 0 {
					// The losing attempt is abandoned: no cancel opcode
					// on the wire, its connection finishes or times out
					// on its own and a background drain recycles the
					// buffer.
					p.cancels.Add(int64(inflight))
					go drainResp(ch, inflight)
				}
				p.observe(time.Since(start))
				return r.b, nil
			}
			p.errors.Add(1)
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight == 0 {
				if !retried {
					retried = true
					p.retries.Add(1)
					inflight++
					go attempt(false)
					continue
				}
				return nil, fmt.Errorf("%w: %s: %w", ErrUnavailable, p.addr, firstErr)
			}
		case <-timerC:
			timerC = nil
			if !hedged {
				hedged = true
				p.hedges.Add(1)
				inflight++
				go attempt(true)
			}
		}
	}
}
