package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Wire format: length-prefixed frames over TCP, little-endian
// throughout, one request in flight per connection (the client pools
// connections instead of pipelining, which keeps responses trivially
// matched and lets a hedge run on an independent socket).
//
//	frame    := u32 payloadLen | payload            (payloadLen ≤ maxFrame)
//	request  := u8 version | u8 opcode | u32 reqID | u32 deadlineUS |
//	            u16 nTables | table...
//	table    := u32 tableIdx | u32 nIDs | nIDs×u32 rowID
//	response := u8 version | u8 status | u32 reqID | body
//	body(OK) := u16 nTables | tableResp...
//	tableResp:= u32 tableIdx | u16 cols | u32 nRows |
//	            nRows×cols×f32 row values
//	body(err):= u16 msgLen | msg bytes
//
// deadlineUS is the client's remaining budget in microseconds at send
// time (0 = unbounded) — advisory load-shedding input for the server;
// the client enforces its deadline with socket deadlines regardless.
// The response rows are the requested rows in request order; pooling
// happens client-side, in per-sample ID order, which is what keeps
// scores bit-identical at any shard count. Opcode 2 is retired (it was
// a shard-side pooled gather); servers answer it statusBadRequest.
// A server's rows are fixed for its lifetime, so a tableResp carries
// no generation token (version 1 had one); either side refuses a frame
// of another version rather than misparse its table header.
const (
	wireVersion = 2

	opGatherRows = 1
	opPing       = 3

	statusOK         = 0
	statusBadRequest = 1
	statusError      = 2

	// maxFrame bounds a frame payload (64 MiB — a full-batch raw-row
	// response for the largest configured table widths fits with room
	// to spare) so a corrupt length prefix cannot balloon allocation.
	maxFrame = 1 << 26

	// tableRespHeader is the fixed part of a tableResp: tableIdx, cols,
	// nRows.
	tableRespHeader = 4 + 2 + 4
)

// errProto wraps malformed-frame conditions; the side that sees it
// closes the connection.
var errProto = errors.New("shard: protocol error")

func putU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// reader is a bounds-checked cursor over one frame payload. After any
// short read it latches err and returns zeros, so decoders can parse
// straight-line and check err once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated frame at byte %d", errProto, r.off)
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// writeFrame length-prefixes payload onto bw. The caller flushes.
func writeFrame(bw *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", errProto, len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// readFrame reads one frame payload into buf (grown as needed) and
// returns the filled slice. io.EOF before the length prefix is a clean
// close and is returned verbatim.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("shard: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", errProto, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n, n+n/4)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("shard: read frame body: %w", err)
	}
	return buf, nil
}

// appendRowsReq encodes a single-table opGatherRows request.
func appendRowsReq(b []byte, reqID, deadlineUS, table uint32, ids []uint32) []byte {
	b = append(b, wireVersion, opGatherRows)
	b = putU32(b, reqID)
	b = putU32(b, deadlineUS)
	b = putU16(b, 1)
	b = putU32(b, table)
	b = putU32(b, uint32(len(ids)))
	for _, id := range ids {
		b = putU32(b, id)
	}
	return b
}

// appendPingReq encodes an opPing request (connection liveness / Dial
// validation; the response carries zero tables).
func appendPingReq(b []byte, reqID uint32) []byte {
	b = append(b, wireVersion, opPing)
	b = putU32(b, reqID)
	b = putU32(b, 0)
	b = putU16(b, 0)
	return b
}

// tableResp is one decoded per-table response section. Rows aliases
// the frame buffer; consume before the next readFrame on the
// connection.
type tableResp struct {
	table uint32
	cols  int
	nRows int
	rows  []byte // nRows*cols*4 bytes of little-endian f32
}

// rowF32 decodes row i of a tableResp into dst (len cols).
func (t *tableResp) rowF32(i int, dst []float32) {
	off := i * t.cols * 4
	raw := t.rows[off : off+t.cols*4]
	for j := range dst {
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[j*4:]))
	}
}

// decodeResp parses a response payload, returning its single table
// section (nil for ping responses). A non-OK status is surfaced as an
// error carrying the server's message.
func decodeResp(payload []byte, wantReqID uint32) (*tableResp, error) {
	r := reader{b: payload}
	if v := r.u8(); r.err == nil && v != wireVersion {
		return nil, fmt.Errorf("%w: wire version %d, want %d", errProto, v, wireVersion)
	}
	status := r.u8()
	reqID := r.u32()
	if r.err == nil && reqID != wantReqID {
		return nil, fmt.Errorf("%w: response for request %d, want %d", errProto, reqID, wantReqID)
	}
	if status != statusOK {
		msg := string(r.bytes(int(r.u16())))
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("shard: server status %d: %s", status, msg)
	}
	nTables := r.u16()
	if nTables == 0 {
		return nil, r.err
	}
	if r.err == nil && nTables != 1 {
		return nil, fmt.Errorf("%w: %d tables in response, want 1", errProto, nTables)
	}
	t := &tableResp{table: r.u32(), cols: int(r.u16()), nRows: int(r.u32())}
	t.rows = r.bytes(t.nRows * t.cols * 4)
	if r.err != nil {
		return nil, r.err
	}
	return t, nil
}
