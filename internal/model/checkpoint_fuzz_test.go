package model

import (
	"bytes"
	"encoding/binary"
	"testing"

	"recsys/internal/stats"
)

// FuzzCheckpointLoad throws arbitrary bytes at the checkpoint reader,
// seeded with the fp32 and the int8 save of a tiny model and with the
// version-1 file of the fp32 one. Load never panics and refuses what it
// rejects with an error and no model; a version-2 input it accepts
// re-saves to the same bytes, so the reader accepts exactly what the
// writer writes. No input is skipped: Load refuses a header that
// declares more than the input holds before allocating it.
func FuzzCheckpointLoad(f *testing.F) {
	cfg := Config{
		Name: "ckpt", Class: Custom, DenseIn: 3, BottomMLP: []int{4}, TopMLP: []int{3, 1},
		Tables: UniformTables(2, 8, 4, 2), Interaction: Dot,
	}
	m, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		f.Fatal(err)
	}
	fp32 := saveBytes(f, m)
	f.Add(fp32)
	f.Add(asVersion1(f, fp32))
	f.Add(saveBytes(f, m.QuantizeTables()))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if m != nil {
				t.Fatalf("Load returned a model beside its error %v", err)
			}
			return
		}
		if binary.LittleEndian.Uint32(data[8:12]) != checkpointVersion {
			return
		}
		if !bytes.Equal(saveBytes(t, m), data) {
			t.Fatal("an accepted version-2 checkpoint re-saves to other bytes")
		}
	})
}
