package model

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		RMC1Small().Scaled(200),
		MLPerfNCF().Scaled(50), // no dense path
	} {
		src, err := Build(cfg, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", cfg.Name, err)
		}
		dst, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", cfg.Name, err)
		}
		// Identical predictions on identical input.
		req := NewRandomRequest(cfg, 6, stats.NewRNG(7))
		a, b := src.CTR(req), dst.CTR(req)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: prediction %d changed: %v vs %v", cfg.Name, i, a[i], b[i])
			}
		}
		// Weights bit-identical.
		if !tensor.Equal(src.Top.Layers[0].W, dst.Top.Layers[0].W, 0) {
			t.Fatalf("%s: top weights differ", cfg.Name)
		}
		if !tensor.Equal(src.SLS[0].Table.W, dst.SLS[0].Table.W, 0) {
			t.Fatalf("%s: embedding tables differ", cfg.Name)
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	cfg := RMC1Small().Scaled(500)
	src, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	dst, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Config.Name != cfg.Name {
		t.Errorf("config name %q", dst.Config.Name)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should error")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	cfg := RMC1Small().Scaled(500)
	src, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip a byte in the middle (weight data): CRC must catch it.
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := Load(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupted checkpoint should fail CRC")
	}

	// Wrong magic.
	bad := append([]byte("NOTMAGIC"), good[8:]...)
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}

	// Truncated.
	if _, err := Load(bytes.NewReader(good[:len(good)/3])); err == nil {
		t.Error("truncated checkpoint should fail")
	}

	// A dtype byte naming no dtype, and bytes after the CRC.
	dtype := append([]byte(nil), good...)
	dtype[16+binary.LittleEndian.Uint32(good[12:16])] = 7
	if _, err := Load(bytes.NewReader(dtype)); err == nil || !strings.Contains(err.Error(), "dtype 7") {
		t.Errorf("unknown table dtype: err %v", err)
	}
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), good...), 0))); err == nil {
		t.Error("data after the CRC should fail")
	}
}

// saveBytes is m's checkpoint.
func saveBytes(tb testing.TB, m *Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// asVersion1 rewrites a version-2 save of an fp32 model as the file the
// version-1 writer made of the same model: version 1, no dtype byte,
// the CRC recomputed.
func asVersion1(tb testing.TB, v2 []byte) []byte {
	tb.Helper()
	cfgEnd := 16 + int(binary.LittleEndian.Uint32(v2[12:16]))
	if v2[cfgEnd] != tablesFP32 {
		tb.Fatal("asVersion1 needs the save of an fp32 model")
	}
	v1 := append([]byte(nil), v2[:cfgEnd]...)
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	v1 = append(v1, v2[cfgEnd+1:len(v2)-4]...)
	return binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
}

// TestCheckpointLoadsVersion1: a version-1 file (no dtype byte, fp32
// tables) loads through the same reader with bit-identical weights and
// scores, and re-saves as the version-2 file of the same model.
func TestCheckpointLoadsVersion1(t *testing.T) {
	cfg := RMC1Small().Scaled(500)
	src, err := Build(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	v2 := saveBytes(t, src)
	m, err := Load(bytes.NewReader(asVersion1(t, v2)))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 6, stats.NewRNG(7))
	if !bitsEqual(src.CTR(req), m.CTR(req)) {
		t.Fatal("version-1 load scores differently from the saved model")
	}
	if !bytes.Equal(saveBytes(t, m), v2) {
		t.Fatal("version-1 load re-saves to other bytes than the model's version-2 save")
	}
}
