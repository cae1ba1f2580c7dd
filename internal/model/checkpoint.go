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
// the model holds it. The int8 MLP compute mode is not part of the
// checkpoint: a loaded model runs fp32 MLPs until QuantizeMLPs.
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

// paramBlock is one parameter slice: fp32 values, or (i8 non-nil) an
// int8 table's codes.
type paramBlock struct {
	f32 []float32
	i8  []int8
}

// paramBlocks returns every parameter slice in a fixed, documented
// order: bottom FCs (W then b, layer order), then each embedding table
// as its op holds it (the fp32 rows W, or the int8 codes, per-row
// scales and per-row offsets), then top FCs. Save, Load, Clone and
// CopyWeightsFrom all walk it, so each works on fp32 and int8 models.
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
		codes, scale, offset := op.Quant.Data()
		blocks = append(blocks, paramBlock{i8: codes}, paramBlock{f32: scale}, paramBlock{f32: offset})
	}
	addFCs(m.Top)
	return blocks
}

// len is the block's element count, size its bytes per element.
func (b paramBlock) len() int {
	if b.i8 != nil {
		return len(b.i8)
	}
	return len(b.f32)
}

func (b paramBlock) size() int {
	if b.i8 != nil {
		return 1
	}
	return 4
}

// String names the block's length and dtype.
func (b paramBlock) String() string {
	if b.i8 != nil {
		return fmt.Sprintf("%d int8", b.len())
	}
	return fmt.Sprintf("%d fp32", b.len())
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
		end := min(off+blockChunk, n)
		p := buf[:0]
		if b.i8 != nil {
			for _, v := range b.i8[off:end] {
				p = append(p, byte(v))
			}
		} else {
			for _, v := range b.f32[off:end] {
				p = binary.LittleEndian.AppendUint32(p, math.Float32bits(v))
			}
		}
		if _, err := w.Write(p); err != nil {
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
		end := min(off+blockChunk, b.len())
		p := buf[:b.size()*(end-off)]
		if _, err := io.ReadFull(r, p); err != nil {
			return err
		}
		if b.i8 != nil {
			for i, v := range p {
				b.i8[off+i] = int8(v)
			}
			continue
		}
		for i := range end - off {
			b.f32[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
	}
	return nil
}
