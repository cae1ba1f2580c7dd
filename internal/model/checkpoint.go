package model

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"

	"recsys/internal/nn"
)

// Checkpointing: serialize a materialized model's weights so a trained
// model can be saved and later served. The format is a small binary
// container — magic, version, the JSON config, the table dtype byte
// (version 2), then the parameter blocks in paramBlocks order, with a
// CRC32 trailer. Each table is written as the model holds it: fp32 rows,
// or int8 codes with their per-row scales and offsets. A version-1 file
// has no dtype byte and holds fp32 tables; the one reader loads both.

const (
	checkpointMagic   = "RECSYS01"
	checkpointVersion = uint32(2)
)

// The table dtypes a version-2 checkpoint's dtype byte names.
const (
	tablesFP32 byte = 0
	tablesInt8 byte = 1
)

// Save writes the model's configuration and weights to w, each table as
// the model holds it.
func (m *Model) Save(w io.Writer) error {
	cfgJSON, err := m.Config.MarshalJSON()
	if err != nil {
		return err
	}
	dtype := tablesFP32
	if m.Quantized() {
		dtype = tablesInt8
	}
	hdr := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), checkpointVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(cfgJSON)))
	hdr = append(append(hdr, cfgJSON...), dtype)

	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)
	if _, err := out.Write(hdr); err != nil {
		return err
	}
	for _, block := range m.paramBlocks() {
		if err := block.write(out); err != nil {
			return err
		}
	}
	runtime.KeepAlive(m) // the embedding rows the blocks view are m's (paramBlocks)
	// Trailer: CRC of everything written so far.
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFile writes the checkpoint to a file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a checkpoint of size bytes from r into a model it
// allocates once and fills, each table held as the file holds it.
// Before allocating, it refuses a config over MaxBuildBytes and a size
// other than the header, the blocks the config declares and the CRC.
// It accepts exactly what Save writes: the canonical config encoding
// and nothing after the CRC.
func Load(r io.Reader, size int64) (*Model, error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)

	var head [16]byte // magic, version, config length
	if _, err := io.ReadFull(in, head[:]); err != nil {
		return nil, fmt.Errorf("model: reading checkpoint header: %w", err)
	}
	if magic := head[:len(checkpointMagic)]; string(magic) != checkpointMagic {
		return nil, fmt.Errorf("model: not a recsys checkpoint (magic %q)", magic)
	}
	version, cfgLen := binary.LittleEndian.Uint32(head[8:]), binary.LittleEndian.Uint32(head[12:])
	if version != 1 && version != checkpointVersion {
		return nil, fmt.Errorf("model: unsupported checkpoint version %d", version)
	}
	if cfgLen > 1<<20 || int64(cfgLen) > size {
		return nil, fmt.Errorf("model: implausible config size %d in a %d-byte checkpoint", cfgLen, size)
	}
	cfgJSON := make([]byte, cfgLen)
	if _, err := io.ReadFull(in, cfgJSON); err != nil {
		return nil, err
	}
	var cfg Config
	if err := cfg.UnmarshalJSON(cfgJSON); err != nil {
		return nil, err
	}
	if canon, err := cfg.MarshalJSON(); err != nil || !bytes.Equal(canon, cfgJSON) {
		return nil, errors.New("model: checkpoint config is not in the encoding Save writes")
	}
	dtype, hdrLen := tablesFP32, int64(len(head))+int64(cfgLen)
	if version >= 2 {
		hdrLen++
		var b [1]byte
		if _, err := io.ReadFull(in, b[:]); err != nil {
			return nil, err
		}
		if dtype = b[0]; dtype != tablesFP32 && dtype != tablesInt8 {
			return nil, fmt.Errorf("model: unknown checkpoint table dtype %d", dtype)
		}
	}
	held, blocks, err := heldBytes(cfg, dtype == tablesInt8)
	if err != nil {
		return nil, err
	}
	// Each block is an 8-byte element count and its elements.
	if want := hdrLen + 8*int64(blocks) + held + 4; want != size {
		return nil, fmt.Errorf("model: checkpoint is %d bytes, its header declares %d", size, want)
	}
	m, err := build(cfg, nil, dtype == tablesInt8)
	if err != nil {
		return nil, err
	}
	for _, block := range m.paramBlocks() {
		if err := block.read(in); err != nil {
			return nil, err
		}
	}
	runtime.KeepAlive(m)
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("model: reading checkpoint CRC: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("model: checkpoint CRC mismatch (%08x != %08x)", got, want)
	}
	return m, nil
}

// LoadFile reads a checkpoint from a file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return Load(f, fi.Size())
}

// paramBlock is one parameter block: fp32 values, or (rows non-nil) a
// strided view of an int8 table's fused rows (nn.QuantizedTable): the
// width bytes at byte at of every stride-byte row, elements of esize
// bytes each. A table's codes (esize 1), per-row scales and per-row
// offsets (esize 4, little-endian as the file holds them) are three
// views of one buffer.
type paramBlock struct {
	f32                      []float32
	rows                     []byte
	stride, at, width, esize int
}

// paramBlocks returns every parameter block in a fixed, documented
// order: bottom FCs (W then b, layer order), then each embedding table
// as its op holds it (the fp32 rows W, or the int8 codes, per-row
// scales and per-row offsets), then top FCs. Save, Load, Clone and
// CopyWeightsFrom all walk it, so each works on fp32 and int8 models.
// No block keeps its rows alive: on linux the embedding rows, an fp32
// W's data or the int8 codes (nn.QuantizedTable.RowBytes), are mapped
// outside the Go heap and unmapped with their owner, so a walker keeps
// m alive past its last block access.
func (m *Model) paramBlocks() []paramBlock {
	var blocks []paramBlock
	addFCs := func(mlp *nn.MLP) {
		for _, fc := range mlp.Layers {
			blocks = append(blocks, paramBlock{f32: fc.W.Data()}, paramBlock{f32: fc.B})
		}
	}
	if m.Bottom != nil {
		addFCs(m.Bottom)
	}
	for _, op := range m.SLS {
		if op.Quant == nil {
			blocks = append(blocks, paramBlock{f32: op.Table.W.Data()})
			continue
		}
		rows, stride := op.Quant.RowBytes()
		view := func(at, width, esize int) paramBlock {
			return paramBlock{rows: rows, stride: stride, at: at, width: width, esize: esize}
		}
		blocks = append(blocks, view(8, op.Quant.Cols, 1), view(0, 4, 4), view(4, 4, 4))
	}
	addFCs(m.Top)
	return blocks
}

// len is the block's element count, size its bytes per element.
func (b paramBlock) len() int {
	if b.rows != nil {
		return len(b.rows) / b.stride * (b.width / b.esize)
	}
	return len(b.f32)
}

func (b paramBlock) size() int {
	if b.rows != nil {
		return b.esize
	}
	return 4
}

// String names the block's length and dtype.
func (b paramBlock) String() string {
	if b.size() == 1 {
		return fmt.Sprintf("%d int8", b.len())
	}
	return fmt.Sprintf("%d fp32", b.len())
}

// appendBytes appends elements [lo, hi) to p as a checkpoint holds
// them: int8 codes as bytes, fp32 values little-endian.
func (b paramBlock) appendBytes(p []byte, lo, hi int) []byte {
	if b.rows == nil {
		for _, v := range b.f32[lo:hi] {
			p = binary.LittleEndian.AppendUint32(p, math.Float32bits(v))
		}
		return p
	}
	b.eachRun(lo, hi, func(run []byte) { p = append(p, run...) })
	return p
}

// setBytes stores p, elements as appendBytes emits them, from element
// lo on.
func (b paramBlock) setBytes(lo int, p []byte) {
	hi := lo + len(p)/b.size()
	if b.rows == nil {
		for i := range b.f32[lo:hi] {
			b.f32[lo+i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
		return
	}
	b.eachRun(lo, hi, func(run []byte) { p = p[copy(run, p):] })
}

// eachRun calls f, in order, on the contiguous byte runs of a view
// that hold elements [lo, hi): at most one run per row.
func (b paramBlock) eachRun(lo, hi int, f func(run []byte)) {
	perRow := b.width / b.esize
	for i := lo; i < hi; {
		r, j := i/perRow, i%perRow
		k := min(perRow-j, hi-i)
		o := r*b.stride + b.at + j*b.esize
		f(b.rows[o : o+k*b.esize])
		i += k
	}
}

// blockChunk is the element count one buffered write or read converts.
const blockChunk = 4096

// write emits the block's element count, then its elements,
// little-endian.
func (b paramBlock) write(w io.Writer) error {
	n := b.len()
	if err := binary.Write(w, binary.LittleEndian, uint64(n)); err != nil {
		return err
	}
	buf := make([]byte, 0, b.size()*blockChunk)
	for off := 0; off < n; off += blockChunk {
		if _, err := w.Write(b.appendBytes(buf[:0], off, min(off+blockChunk, n))); err != nil {
			return err
		}
	}
	return nil
}

// read fills the block from what write emitted, refusing a count other
// than the block's length before reading any element.
func (b paramBlock) read(r io.Reader) error {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if n != uint64(b.len()) {
		return fmt.Errorf("model: checkpoint block has %d elements, want %s", n, b)
	}
	buf := make([]byte, b.size()*blockChunk)
	for off := 0; off < b.len(); off += blockChunk {
		p := buf[:b.size()*(min(off+blockChunk, b.len())-off)]
		if _, err := io.ReadFull(r, p); err != nil {
			return err
		}
		b.setBytes(off, p)
	}
	return nil
}
