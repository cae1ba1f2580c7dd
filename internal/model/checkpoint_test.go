package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"runtime"
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
		dst, err := Load(&buf, int64(buf.Len()))
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
	if _, err := Load(bytes.NewReader(corrupt), int64(len(corrupt))); err == nil {
		t.Error("corrupted checkpoint should fail CRC")
	}

	// Wrong magic.
	bad := append([]byte("NOTMAGIC"), good[8:]...)
	if _, err := Load(bytes.NewReader(bad), int64(len(bad))); err == nil {
		t.Error("bad magic should fail")
	}

	// Truncated.
	if _, err := Load(bytes.NewReader(good[:len(good)/3]), int64(len(good)/3)); err == nil {
		t.Error("truncated checkpoint should fail")
	}

	// A dtype byte naming no dtype, and bytes after the CRC.
	dtype := append([]byte(nil), good...)
	dtype[16+binary.LittleEndian.Uint32(good[12:16])] = 7
	if _, err := Load(bytes.NewReader(dtype), int64(len(dtype))); err == nil || !strings.Contains(err.Error(), "dtype 7") {
		t.Errorf("unknown table dtype: err %v", err)
	}
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), good...), 0)), int64(len(good)+1)); err == nil {
		t.Error("data after the CRC should fail")
	}
}

// hostileHeader is a version-2 checkpoint header declaring cfg with fp32
// tables, zero-padded to size bytes: a file far too short for the
// parameters it declares.
func hostileHeader(tb testing.TB, cfg Config, size int) string {
	tb.Helper()
	cfgJSON, err := cfg.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	b := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), checkpointVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cfgJSON)))
	b = append(append(b, cfgJSON...), tablesFP32)
	if len(b) > size {
		tb.Fatalf("header is %d bytes, more than the %d-byte file", len(b), size)
	}
	return string(append(b, make([]byte, size-len(b))...))
}

// TestLoadRefusesHostileHeaders: a header that declares more parameters
// than MaxBuildBytes, or than the file holds, and a valid save one byte
// short or long, are each refused with an error before Load allocates
// what they declare (under 1 MiB in total per load).
func TestLoadRefusesHostileHeaders(t *testing.T) {
	table := func(rows, dim int) Config {
		return Config{Name: "h", Class: Custom, Tables: []TableSpec{{Rows: rows, Dim: dim, Lookups: 1}}, TopMLP: []int{1}}
	}
	src, err := Build(RMC1Small().Scaled(500), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	good := saveBytes(t, src)
	sizeErr := func(size, declared int) string {
		return fmt.Sprintf("checkpoint is %d bytes, its header declares %d", size, declared)
	}
	for _, tc := range []struct {
		name, data, want string
	}{
		{"2^14→2^14 bottom MLP in 120 bytes", hostileHeader(t, Config{Name: "h", Class: Custom, DenseIn: 1 << 14, BottomMLP: []int{1 << 14}, TopMLP: []int{1}}, 120), "cap"},
		{"2^23×32 table in 144 bytes", hostileHeader(t, table(1<<23, 32), 144), "cap"},
		{"2^22×32 table (under the cap) in 144 bytes", hostileHeader(t, table(1<<22, 32), 144), "checkpoint is 144 bytes, its header declares 536871"},
		{"rows 2^40 × dim 2^24", hostileHeader(t, table(1<<40, 1<<24), 160), "cap"},
		{"a valid save less its last byte", string(good[:len(good)-1]), sizeErr(len(good)-1, len(good))},
		{"a valid save plus one byte", string(good) + "\x00", sizeErr(len(good)+1, len(good))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Load(strings.NewReader(tc.data), int64(len(tc.data)))
		runtime.ReadMemStats(&after)
		if err == nil || m != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: Load allocated %d bytes before refusing it", tc.name, grew)
		}
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
	v1 := asVersion1(t, v2)
	m, err := Load(bytes.NewReader(v1), int64(len(v1)))
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

// TestCheckpointInt8BytesPinned pins what Save writes for two int8
// models (SHA-256 of the whole file) and what their tables pool (SHA-256
// of every table's SLS output, on each kernel tier), then checks that
// Load of those bytes scores bit-identically to the saved model. The
// round-trip tests would pass if Save and Load changed together; this
// one fails if the bytes of format version 2, or the pooled values,
// move at all — whatever layout the tables take in memory.
func TestCheckpointInt8BytesPinned(t *testing.T) {
	prev := tensor.KernelTier()
	defer func() { _ = tensor.SetKernel(prev) }()
	for _, c := range []struct {
		cfg       Config
		size      int
		file, sls string
	}{
		{RMC1Small().Scaled(500), 220779,
			"ac44752877d60b2455a4e1764c6ea9b157a6cb645125c6c3eac3c39947a3a173",
			"c0679e7608060753c9e239be59c4746cbe3948648bb7b50bfe71f2d31ff4b1bb"},
		{RMC2Small().Scaled(1000), 2642432,
			"0f3ea9011935c485265fb864e4f078ba8fa711a88fe95280a5f438d3168a69ce",
			"611fdfe3ab7a75ebd0347553013b071ff169507adcb1127bc85b21f9d52f424e"},
	} {
		m, err := Build(c.cfg, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		m.QuantizeTables()
		file := saveBytes(t, m)
		if sum := fmt.Sprintf("%x", sha256.Sum256(file)); len(file) != c.size || sum != c.file {
			t.Errorf("%s: Save wrote %d bytes, SHA-256 %s; want %d, %s", c.cfg.Name, len(file), sum, c.size, c.file)
		}
		loaded, err := Load(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			t.Fatal(err)
		}
		req := NewRandomRequest(c.cfg, 8, stats.NewRNG(2))
		for _, tier := range []string{tensor.KernelGo, tensor.KernelAVX2, tensor.KernelAVX512} {
			if tensor.SetKernel(tier) != nil {
				continue // this machine cannot run the tier
			}
			h := sha256.New()
			for i, op := range loaded.SLS {
				for _, v := range op.ForwardEx(req.SparseIDs[i], 8, nil, 1).Data() {
					h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
				}
			}
			if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != c.sls {
				t.Errorf("%s %s: pooled tables hash to %s, want %s", c.cfg.Name, tier, sum, c.sls)
			}
			a := tensor.NewArena()
			if !bitsEqual(arenaCTR(loaded, req, a, 1), arenaCTR(m, req, a, 1)) || !bitsEqual(loaded.CTR(req), m.CTR(req)) {
				t.Errorf("%s %s: the loaded model scores differently from the saved one", c.cfg.Name, tier)
			}
		}
	}
}
