package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"recsys/internal/model"
	"recsys/internal/tensor"
)

// HTTP ingest: the body path of POST /rank. A request body is read once
// into a pooled byte buffer and parsed in place by a scanner that knows
// the one grammar the endpoint accepts (RankRequest's JSON shape),
// writing features straight into the flat buffers the model reads — no
// reflection, no [][]float32 intermediate, no per-request garbage.
// DESIGN.md "HTTP ingest" has the grammar and where it is stricter than
// encoding/json.

// maxBodyBytes caps a POST /rank body. A body past it is refused with
// 413, and a pooled buffer a request grew past it is dropped instead of
// retained. 8 MiB admits over a thousand RMC3-sized items per request.
const maxBodyBytes = 8 << 20

// maxBodyPresize caps what a request's declared Content-Length alone
// makes the server buffer; past it the body buffer grows only as bytes
// arrive, so a client that declares megabytes and stalls pins 256 KiB.
const maxBodyPresize = 256 << 10

// RankDecoder parses POST /rank bodies into buffers it reuses across
// calls, so steady-state decoding does not allocate. The zero value is
// ready to use; a RankDecoder is not safe for concurrent use.
type RankDecoder struct {
	dense  []float32 // batch × DenseIn features, row-major
	ids    []int     // every table's IDs, back to back
	ends   []int     // ends[t] is len(ids) after table t
	tables [][]int   // per-table views of ids
}

// Decode parses body, which must be one JSON object of RankRequest's
// shape, against cfg. It returns the batch size (the dense row count,
// or for a model without a dense path the first table's ID count over
// its lookups), the dense features as one row-major batch × cfg.DenseIn
// slice, and one ID list per table. The slices alias d's buffers and
// are valid until the next Decode.
//
// Decode bounds what a body can make it buffer by what cfg admits: it
// stops at the first dense row wider than cfg.DenseIn and at the first
// table past len(cfg.Tables). ID counts and ranges are left to
// model.ValidateRequest. Every failure wraps ErrBadRequest.
func (d *RankDecoder) Decode(cfg model.Config, body []byte) (batch int, dense []float32, sparse [][]int, err error) {
	s := bodyScanner{b: body}
	d.dense, d.ids, d.ends = d.dense[:0], d.ids[:0], d.ends[:0]
	rows := 0
	var sawDense, sawSparse bool
	if !s.consume('{') {
		return 0, nil, nil, s.fail("want '{'")
	}
	for first := true; !s.consume('}'); first = false {
		if !first && !s.consume(',') {
			return 0, nil, nil, s.fail("want ',' or '}'")
		}
		key, err := s.key()
		if err != nil {
			return 0, nil, nil, err
		}
		// Keys match byte for byte; the conversions only compare, so
		// they do not allocate.
		isDense, isSparse := string(key) == "dense", string(key) == "sparse_ids"
		switch {
		case isDense && !sawDense:
			sawDense = true
			rows, err = d.scanDense(&s, cfg.DenseIn)
		case isSparse && !sawSparse:
			sawSparse = true
			err = d.scanSparse(&s, len(cfg.Tables))
		case isDense || isSparse:
			err = s.fail("duplicate key")
		default:
			err = s.fail("unknown key")
		}
		if err != nil {
			return 0, nil, nil, err
		}
	}
	if s.peek(); s.i < len(s.b) {
		return 0, nil, nil, s.fail("data after the request object")
	}

	d.tables = d.tables[:0]
	start := 0
	for _, end := range d.ends {
		d.tables = append(d.tables, d.ids[start:end])
		start = end
	}
	switch {
	case cfg.DenseIn > 0:
		if rows == 0 {
			return 0, nil, nil, fmt.Errorf("%w: model %s requires dense features", ErrBadRequest, cfg.Name)
		}
		batch = rows
	case len(d.tables) > 0 && len(cfg.Tables) > 0:
		n, lookups := len(d.tables[0]), cfg.Tables[0].Lookups
		if n == 0 || n%lookups != 0 {
			return 0, nil, nil, fmt.Errorf("%w: cannot infer batch from %d IDs at %d lookups per sample", ErrBadRequest, n, lookups)
		}
		batch = n / lookups
	default:
		return 0, nil, nil, fmt.Errorf("%w: empty request", ErrBadRequest)
	}
	return batch, d.dense, d.tables, nil
}

// scanDense parses the "dense" member: null, or an array of rows, each
// null or an array of exactly width numbers. It appends the features to
// d.dense and returns the row count. A model without a dense path
// (width 0) has its rows checked and dropped, as encoding/json's caller
// ignored them.
func (d *RankDecoder) scanDense(s *bodyScanner, width int) (rows int, err error) {
	if s.null() {
		return 0, nil
	}
	if !s.consume('[') {
		return 0, s.fail("dense: want '[' or null")
	}
	for more := !s.consume(']'); more; rows++ {
		n := 0
		if !s.null() {
			if !s.consume('[') {
				return 0, s.fail("dense: want a row")
			}
			for inRow := !s.consume(']'); inRow; n++ {
				v, err := s.float32()
				if err != nil {
					return 0, err
				}
				if width > 0 {
					if n == width {
						return 0, s.fail(fmt.Sprintf("dense row %d has more than %d features", rows, width))
					}
					d.dense = append(d.dense, v)
				}
				switch s.sep() {
				case ']':
					inRow = false
				case 0:
					return 0, s.fail("dense: want ',' or ']'")
				}
			}
		}
		if width > 0 && n != width {
			return 0, s.fail(fmt.Sprintf("dense row %d has %d features, want %d", rows, n, width))
		}
		switch s.sep() {
		case ']':
			more = false
		case 0:
			return 0, s.fail("dense: want ',' or ']'")
		}
	}
	return rows, nil
}

// scanSparse parses the "sparse_ids" member: null, or an array of at
// most tables ID lists, each null or an array of integers. It appends
// the IDs to d.ids and each list's end to d.ends.
func (d *RankDecoder) scanSparse(s *bodyScanner, tables int) (err error) {
	if s.null() {
		return nil
	}
	if !s.consume('[') {
		return s.fail("sparse_ids: want '[' or null")
	}
	for more := !s.consume(']'); more; {
		if len(d.ends) == tables {
			return s.fail(fmt.Sprintf("more than %d sparse inputs", tables))
		}
		if !s.null() {
			if !s.consume('[') {
				return s.fail("sparse_ids: want an ID list")
			}
			if !s.consume(']') {
				if d.ids, err = s.idList(d.ids); err != nil {
					return err
				}
			}
		}
		d.ends = append(d.ends, len(d.ids))
		switch s.sep() {
		case ']':
			more = false
		case 0:
			return s.fail("sparse_ids: want ',' or ']'")
		}
	}
	return nil
}

// bodyScanner is a cursor over a request body. Its methods skip JSON
// whitespace before looking at a token; none recurses, so nesting depth
// in a hostile body costs nothing.
type bodyScanner struct {
	b []byte
	i int
	// slow counts the numbers float32 handed to strconv.ParseFloat; the
	// bit-pattern sweep reports it as the share off the fast path.
	slow int
}

func (s *bodyScanner) fail(msg string) error {
	return fmt.Errorf("%w: request body offset %d: %s", ErrBadRequest, s.i, msg)
}

// peek returns the next byte after whitespace without consuming it, or
// 0 at the end of the body.
func (s *bodyScanner) peek() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// consume steps over c if it is the next token.
func (s *bodyScanner) consume(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// sep steps over the token that follows an array element and returns
// it: ',' when another element comes, ']' at the end of the array. For
// anything else it steps over nothing and returns 0.
func (s *bodyScanner) sep() byte {
	c := s.peek()
	if c != ',' && c != ']' {
		return 0
	}
	s.i++
	return c
}

// null steps over a null literal if it is the next token.
func (s *bodyScanner) null() bool {
	if s.peek() != 'n' || len(s.b)-s.i < 4 || string(s.b[s.i:s.i+4]) != "null" {
		return false
	}
	s.i += 4
	return true
}

// key parses `"name" :` and returns the name's bytes as written. A key
// with an escape is refused rather than unescaped: the two names the
// endpoint knows need none.
func (s *bodyScanner) key() ([]byte, error) {
	if !s.consume('"') {
		return nil, s.fail("want a key")
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		if s.b[s.i] == '\\' {
			return nil, s.fail("escape in a key")
		}
		s.i++
	}
	if s.i == len(s.b) {
		return nil, s.fail("unterminated key")
	}
	name := s.b[start:s.i]
	s.i++
	if !s.consume(':') {
		return nil, s.fail("want ':'")
	}
	return name, nil
}

// float32 parses one JSON number (or null, which encoding/json decodes
// as 0) to the float32 strconv.ParseFloat(tok, 32) returns, the
// conversion encoding/json applies to a float32 field, so the value is
// bit-identical to what RankRequest would have held. One pass checks
// JSON's number grammar, stricter than ParseFloat's,
//
//	-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
//
// while it accumulates the decimal significand and exponent. A token of
// at most 19 digits whose significand is below 2^53 and whose exponent
// is within ±22 converts exactly (DESIGN.md "HTTP ingest" has the
// argument); every other token goes to ParseFloat on the bytes the pass
// delimited.
func (s *bodyScanner) float32() (float32, error) {
	if s.peek() == 'n' && s.null() {
		return 0, nil
	}
	b, i := s.b, s.i
	if i == len(b) {
		return 0, s.fail("want a number")
	}
	// sign is 1 after a '-', else 0, with no branch: a random sign, as
	// Box–Muller features have, would mispredict half the time.
	sign := (uint64(b[i]^'-') - 1) >> 63
	i += int(sign)
	// mant wraps past 19 digits; nd counts them, so a wrapped mant is
	// never used.
	var mant uint64
	first := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
	default:
		return 0, s.fail("want a number")
	}
	nd, exp := i-first, 0
	if i < len(b) && b[i] == '.' {
		for i, first = i+1, i+1; i < len(b) && b[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if i == first {
			return 0, s.fail("number has no digits after '.'")
		}
		nd, exp = nd+i-first, first-i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if eneg || i < len(b) && b[i] == '+' {
			i++
		}
		e := 0
		for first = i; i < len(b) && b[i]-'0' < 10; i++ {
			if e < 1e6 { // saturate, not wrap: past the fast path whatever the fraction adds
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == first {
			return 0, s.fail("number has no exponent digits")
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if nd <= 19 && mant < 1<<53 && -maxExp10 <= exp && exp <= maxExp10 {
		// mant and 10^|exp| are exact doubles, so d is the token's
		// value rounded once; |d| is 0 or in [1e-22, 2^53·1e22], inside
		// float32's normal range. float32(d) rounds a second time, which
		// shows only when d sits exactly on the midpoint of two float32s.
		d := float64(int64(mant))
		if exp < 0 {
			d /= pow10[-exp]
		} else {
			d *= pow10[exp]
		}
		if math.Float64bits(d)&(1<<29-1) != 1<<28 {
			s.i = i
			return float32(math.Float64frombits(math.Float64bits(d) | sign<<63)), nil
		}
	}
	s.slow++
	f, err := strconv.ParseFloat(string(b[s.i:i]), 32)
	if err != nil {
		return 0, s.fail("number overflows float32")
	}
	s.i = i
	return float32(f), nil
}

// maxExp10 is the largest power of ten a float64 holds exactly.
const maxExp10 = 22

var pow10 = [maxExp10 + 1]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// int parses one base-10 JSON integer (or null, which encoding/json
// decodes as 0). A number with a fraction or exponent is refused even
// when its value is integral, as encoding/json refuses it for an int
// field.
func (s *bodyScanner) int() (int, error) {
	if s.peek() == 'n' && s.null() {
		return 0, nil
	}
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) || b[i]-'0' > 9 {
		return 0, s.fail("want an integer")
	}
	// 19 digits cannot wrap a uint64, so one check after the run finds
	// every overflow.
	var v uint64
	first := i
	if b[i] == '0' {
		i++ // JSON allows no digit after a leading zero; the caller refuses one
	} else {
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			v = v*10 + uint64(b[i]-'0')
		}
	}
	if i-first > 19 || v > math.MaxInt {
		return 0, s.fail("integer overflows")
	}
	if i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e') {
		return 0, s.fail("want an integer, got a fraction or exponent")
	}
	s.i = i
	if neg {
		return -int(v), nil
	}
	return int(v), nil
}

// idList appends the elements of a non-empty ID list to dst, from the
// first element through the list's closing ']'. Each element is taken
// by idBlocks when it can be, else by idRun, and otherwise by one
// s.int()/s.sep() step.
func (s *bodyScanner) idList(dst []int) ([]int, error) {
	for {
		var closed bool
		if dst, s.i, closed = idBlocks(s.b, s.i, dst); closed {
			return dst, nil
		}
		if dst, s.i, closed = idRun(s.b, s.i, dst); closed {
			return dst, nil
		}
		id, err := s.int()
		if err != nil {
			return dst, err
		}
		dst = append(dst, id)
		switch s.sep() {
		case ']':
			return dst, nil
		case 0:
			return dst, s.fail("sparse_ids: want ',' or ']'")
		}
	}
}

// idBlockMax is the most elements one 64-byte block holds ("0," is two
// bytes), so the ID room idScanBlocks needs before each block.
const idBlockMax = 32

// idBlocks appends to ids the list elements that start at b[i] a
// 64-byte block at a time, on the avx512 tier of a CPU with VBMI
// (tensor.UseAVX512VBMI), and returns as idRun does. A block is taken
// whole, through its last separator, when each complete element in it
// is 0 or [1-9][0-9]{0,7} followed at once by ',' or ']' (DESIGN.md
// "ID runs"); the first block that is not, and the body's last 63
// bytes, are left at i for idRun and the scalar step. It asks for
// idBlockMax more slots of ids only when fewer are free, so what a body
// makes the decoder reserve follows the IDs it holds, not its length.
func idBlocks(b []byte, i int, ids []int) ([]int, int, bool) {
	for len(b)-i >= 64 && tensor.UseAVX512VBMI() {
		if cap(ids)-len(ids) < idBlockMax {
			ids = slices.Grow(ids, idBlockMax)
		}
		n, adv, closed := idScanBlocks(b[i:], ids[len(ids):cap(ids)])
		ids, i = ids[:len(ids)+n], i+adv
		if closed || adv == 0 {
			return ids, i, closed
		}
	}
	return ids, i, false
}

// idRun appends to ids the run of list elements that starts at b[i],
// each one 0 or [1-9][0-9]{0,6} followed at once by ',' or ']', while
// at least 8 bytes remain: the elements encoding/json writes for IDs
// below 10^7. It reads each element as one little-endian uint64: a SWAR
// mask of the bytes outside '0'-'9' finds the digit count, and three
// multiply-shift steps fold the digits into the value. It returns the
// grown ids, the offset after the last element it took, and whether
// that element closed the list. Everything else — whitespace, '-',
// null, a leading zero, 8 or more digits, '.', 'e', a short tail — it
// leaves at i for one s.int()/s.sep() step, so what it takes is exactly
// what that step would have taken, and every refusal and offset is
// that step's.
func idRun(b []byte, i int, ids []int) ([]int, int, bool) {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for len(b)-i >= 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		// A byte is a digit iff its low 7 bits are in [0x30, 0x39] and
		// its high bit is clear. Adding 0x46 to a low-7-bit value sets
		// bit 7 from 0x3a up, adding 0x50 sets it from 0x30 up, and
		// neither sum carries out of its byte.
		lo := w &^ highs
		nondigit := (w | (lo + 0x46*ones) | ^(lo + 0x50*ones)) & highs
		n := bits.TrailingZeros64(nondigit) >> 3
		if n == 0 || byte(w) == '0' && n > 1 {
			return ids, i, false
		}
		c := byte(w >> (8 * n)) // 0 when all 8 bytes are digits
		if c != ',' && c != ']' {
			return ids, i, false
		}
		// Shift the n digits to the top bytes, so the vacated low bytes
		// read as leading zeros, then fold pairs, quads and octets.
		v := (w & (0x0f * ones)) << (64 - 8*n)
		v = (v * (10<<8 + 1) >> 8) & 0x00ff00ff00ff00ff
		v = (v * (100<<16 + 1) >> 16) & 0x0000ffff0000ffff
		v = v * (10000<<32 + 1) >> 32
		ids = append(ids, int(v))
		i += n + 1
		if c == ']' {
			return ids, i, true
		}
	}
	return ids, i, false
}

// rankScratch is the reusable state of one POST /rank in flight: the
// body bytes, the decoded features and the score buffer RankInto
// appends into.
type rankScratch struct {
	body   bytes.Buffer
	dec    RankDecoder
	scores []float32
}

var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// putRankScratch returns s to the pool unless a request grew one of its
// buffers past maxBodyBytes: one giant request must not pin its
// high-water mark in every pooled scratch.
func putRankScratch(s *rankScratch) {
	if s.body.Cap() > maxBodyBytes ||
		cap(s.dec.dense)*4 > maxBodyBytes ||
		cap(s.dec.ids)*(strconv.IntSize/8) > maxBodyBytes {
		return
	}
	rankScratchPool.Put(s)
}
