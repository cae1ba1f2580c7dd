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
// writer writes. Inputs whose config would build more than
// fuzzBuildBytes are skipped to keep each run cheap (MaxBuildBytes
// bounds the embedding storage of larger ones in production).
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
		if checkpointBuildBytes(data) > fuzzBuildBytes {
			t.Skip("config builds too large a skeleton for a fuzz run")
		}
		m, err := Load(bytes.NewReader(data))
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

// fuzzBuildBytes bounds the fp32 bytes of a skeleton a fuzz run builds.
const fuzzBuildBytes = 4 << 20

// checkpointBuildBytes is the fp32 parameter bytes of the model the
// config in data's header describes, computed in float64 so no declared
// size can overflow it, or 0 when the header holds no valid config.
func checkpointBuildBytes(data []byte) float64 {
	if len(data) < 16 {
		return 0
	}
	end := 16 + uint64(binary.LittleEndian.Uint32(data[12:16]))
	if uint64(len(data)) < end {
		return 0
	}
	var cfg Config
	if cfg.UnmarshalJSON(data[16:end]) != nil {
		return 0
	}
	var elems float64
	layer := func(in float64, widths []int) float64 {
		for _, w := range widths {
			elems += in*float64(w) + float64(w)
			in = float64(w)
		}
		return in
	}
	top := layer(float64(cfg.DenseIn), cfg.BottomMLP)
	pairs := float64(len(cfg.Tables)+1) * float64(len(cfg.Tables)) / 2
	cat := top
	for _, t := range cfg.Tables {
		elems += float64(t.Rows) * float64(t.Dim)
		cat += float64(t.Dim)
	}
	layer(max(cat, top+pairs), cfg.TopMLP)
	return 4 * elems
}
