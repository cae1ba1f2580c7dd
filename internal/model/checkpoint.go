package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"recsys/internal/stats"
)

// Checkpointing: serialize a materialized model's weights so a trained
// model can be saved and later served. The format is a small binary
// container — magic, version, the JSON config, then the fp32 parameter
// blocks in a fixed order, with a CRC32 trailer.

const (
	checkpointMagic   = "RECSYS01"
	checkpointVersion = uint32(1)
)

// Save writes the model's configuration and weights to w. The format
// holds fp32 tables, so a model with int8 rows only is refused
// (ErrInt8Only) before anything is written.
func (m *Model) Save(w io.Writer) error {
	if err := m.needFP32("save"); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	if _, err := out.Write([]byte(checkpointMagic)); err != nil {
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, checkpointVersion); err != nil {
		return err
	}
	cfgJSON, err := m.Config.MarshalJSON()
	if err != nil {
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, uint32(len(cfgJSON))); err != nil {
		return err
	}
	if _, err := out.Write(cfgJSON); err != nil {
		return err
	}
	for _, block := range m.paramBlocks() {
		if err := writeFloats(out, block); err != nil {
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

// Load reads a checkpoint, rebuilding the model it describes.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)

	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(in, magic); err != nil {
		return nil, fmt.Errorf("model: reading checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("model: not a recsys checkpoint (magic %q)", magic)
	}
	var version uint32
	if err := binary.Read(in, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("model: unsupported checkpoint version %d", version)
	}
	var cfgLen uint32
	if err := binary.Read(in, binary.LittleEndian, &cfgLen); err != nil {
		return nil, err
	}
	if cfgLen > 1<<20 {
		return nil, fmt.Errorf("model: implausible config size %d", cfgLen)
	}
	cfgJSON := make([]byte, cfgLen)
	if _, err := io.ReadFull(in, cfgJSON); err != nil {
		return nil, err
	}
	var cfg Config
	if err := cfg.UnmarshalJSON(cfgJSON); err != nil {
		return nil, err
	}

	// Build a skeleton (its random init is immediately overwritten by
	// the checkpoint blocks).
	m, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		return nil, err
	}
	for _, block := range m.paramBlocks() {
		if err := readFloats(in, block); err != nil {
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
	return Load(f)
}

// paramBlocks returns every parameter slice in a fixed, documented
// order: bottom FCs (W then b, layer order), embedding tables, top FCs.
func (m *Model) paramBlocks() [][]float32 {
	var blocks [][]float32
	if m.Bottom != nil {
		for _, fc := range m.Bottom.Layers {
			blocks = append(blocks, fc.W.Data(), fc.B)
		}
	}
	for _, op := range m.SLS {
		blocks = append(blocks, op.Table.W.Data())
	}
	for _, fc := range m.Top.Layers {
		blocks = append(blocks, fc.W.Data(), fc.B)
	}
	return blocks
}

func writeFloats(w io.Writer, data []float32) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(data))); err != nil {
		return err
	}
	buf := make([]byte, 4*4096)
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[i*4:], floatBits(v))
		}
		if _, err := w.Write(buf[:len(chunk)*4]); err != nil {
			return err
		}
	}
	return nil
}

func readFloats(r io.Reader, dst []float32) error {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if n != uint64(len(dst)) {
		return fmt.Errorf("model: checkpoint block has %d floats, want %d", n, len(dst))
	}
	buf := make([]byte, 4*4096)
	for off := 0; off < len(dst); off += 4096 {
		end := off + 4096
		if end > len(dst) {
			end = len(dst)
		}
		chunk := dst[off:end]
		if _, err := io.ReadFull(r, buf[:len(chunk)*4]); err != nil {
			return err
		}
		for i := range chunk {
			chunk[i] = floatFromBits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
	return nil
}

func floatBits(v float32) uint32     { return math.Float32bits(v) }
func floatFromBits(b uint32) float32 { return math.Float32frombits(b) }
