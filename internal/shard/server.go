package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"recsys/internal/nn"
)

// Server serves embedding rows out of nn.RowStore implementations over
// the wire protocol — the process behind cmd/embshard. Each store is
// one table, addressed by its index; a server in an n-shard tier holds
// full-height tables but is only ever asked for the rows that hash to
// it (clients partition with ShardOf). The tier is read-only: a
// server's rows are fixed for its lifetime (cmd/embshard builds them
// once from preset, scale and seed), so requests read the stores with
// no lock. Rows are read from the
// store on every request: they are local to this process, so the cache
// that pays is the one on the client's side of the wire.
type Server struct {
	tables []nn.RowStore

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Fault injection (tests, cmd/embshard flags): every stallEvery-th
	// gather request sleeps stallNS before answering — the transient
	// per-request stall hedging exists to absorb. A constant slowdown
	// would defeat same-shard hedging (no replicas to fail over to), so
	// the injector models the production shape: occasional requests
	// hit a GC pause / queue spike, the rest are healthy.
	stallNS    atomic.Int64
	stallEvery atomic.Int64
	stallSeq   atomic.Int64

	// rowServiceNS emulates per-row fetch service time (one sleep of
	// nIDs × rowServiceNS per table section): the memory-bound row
	// gather cost internal/dist prices per shard. On hosts with too few
	// cores to expose real fan-out parallelism (CI boxes), this knob
	// makes scaling experiments measurable — sleeps overlap across
	// shards the way independent nodes' memory systems would.
	rowServiceNS atomic.Int64
}

// NewServer wraps stores (one per table index) into a server.
func NewServer(stores []nn.RowStore) (*Server, error) {
	if len(stores) == 0 {
		return nil, errors.New("shard: server needs at least one table store")
	}
	return &Server{tables: stores, conns: make(map[net.Conn]struct{})}, nil
}

// SetStall configures fault injection: every every-th gather request
// sleeps d before being served (every <= 0 disables).
func (s *Server) SetStall(d time.Duration, every int) {
	s.stallNS.Store(int64(d))
	s.stallEvery.Store(int64(every))
}

// SetRowServiceTime emulates d of service time per requested row
// (0 disables) — see rowServiceNS.
func (s *Server) SetRowServiceTime(d time.Duration) {
	s.rowServiceNS.Store(int64(d))
}

// Serve accepts connections on ln until Close. It returns nil after
// Close, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("shard: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Close stops accepting, closes every live connection, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	s.wg.Done()
}

// maxCols returns the widest table, sizing the per-connection row
// scratch.
func (s *Server) maxCols() int {
	m := 0
	for _, t := range s.tables {
		if c := t.Cols(); c > m {
			m = c
		}
	}
	return m
}

func (s *Server) handleConn(c net.Conn) {
	defer s.dropConn(c)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var in, out []byte
	row := make([]float32, s.maxCols())
	for {
		var err error
		in, err = readFrame(br, in)
		if err != nil {
			return // clean EOF or broken peer either way: drop the conn
		}
		out = s.handle(in, out[:0], row)
		if err := writeFrame(bw, out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func appendErrResp(b []byte, reqID uint32, status byte, msg string) []byte {
	b = append(b, wireVersion, status)
	b = putU32(b, reqID)
	b = putU16(b, uint16(len(msg)))
	return append(b, msg...)
}

// handle serves one decoded request frame, appending the response
// payload to out. The response never exceeds maxFrame: a request whose
// rows would not fit is refused before any row is read.
func (s *Server) handle(in, out []byte, row []float32) []byte {
	r := reader{b: in}
	version := r.u8()
	op := r.u8()
	reqID := r.u32()
	r.u32() // deadlineUS: advisory; the client enforces via socket deadlines
	nTables := int(r.u16())
	if r.err != nil || version != wireVersion {
		return appendErrResp(out, reqID, statusBadRequest, "bad request header")
	}
	switch op {
	case opPing:
		out = append(out, wireVersion, statusOK)
		out = putU32(out, reqID)
		return putU16(out, 0)
	case opGatherRows:
	default:
		return appendErrResp(out, reqID, statusBadRequest, fmt.Sprintf("unknown opcode %d", op))
	}
	if every := s.stallEvery.Load(); every > 0 && s.stallSeq.Add(1)%every == 0 {
		time.Sleep(time.Duration(s.stallNS.Load()))
	}
	out = append(out, wireVersion, statusOK)
	out = putU32(out, reqID)
	out = putU16(out, uint16(nTables))
	for i := 0; i < nTables; i++ {
		var err error
		out, err = s.serveTable(&r, out, row)
		if err != nil {
			return appendErrResp(out[:0], reqID, statusBadRequest, err.Error())
		}
	}
	return out
}

// serveTable decodes one request table section from r and appends its
// response section: the requested rows in request order.
func (s *Server) serveTable(r *reader, out []byte, row []float32) ([]byte, error) {
	idx := r.u32()
	nIDs := int(r.u32())
	ids := r.bytes(nIDs * 4)
	if r.err != nil {
		return out, r.err
	}
	if int(idx) >= len(s.tables) {
		return out, fmt.Errorf("no table %d", idx)
	}
	t := s.tables[int(idx)]
	rows, cols := t.Rows(), t.Cols()
	// A frame of legal size can ask for more rows than a response frame
	// holds (16 M IDs × 64 columns is 4 GiB); refuse before growing out.
	if size := len(out) + tableRespHeader + nIDs*cols*4; size > maxFrame {
		return out, fmt.Errorf("response of %d bytes exceeds the %d-byte frame limit", size, maxFrame)
	}
	if rs := s.rowServiceNS.Load(); rs > 0 {
		time.Sleep(time.Duration(rs * int64(nIDs)))
	}
	for i := 0; i < nIDs; i++ {
		if id := binary.LittleEndian.Uint32(ids[i*4:]); int(id) >= rows {
			return out, fmt.Errorf("row %d out of range for table %d", id, idx)
		}
	}
	out = putU32(out, idx)
	out = putU16(out, uint16(cols))
	out = putU32(out, uint32(nIDs))
	row = row[:cols]
	for i := 0; i < nIDs; i++ {
		id := int64(binary.LittleEndian.Uint32(ids[i*4:]))
		t.ReadRow(id, row)
		for _, v := range row {
			out = putU32(out, math.Float32bits(v))
		}
	}
	return out, nil
}
