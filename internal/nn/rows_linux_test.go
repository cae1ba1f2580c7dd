package nn_test

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/stats"
	"recsys/internal/train"
)

// TestInt8RowsOffHeap: an int8 model's rows are mapped outside the Go
// heap, so building RMC2 at 1/100 scale (19 MB of rows) grows the live
// heap by less than a tenth of them, and the mapping is returned once
// the model is unreachable and collected.
func TestInt8RowsOffHeap(t *testing.T) {
	base := settledMappedBytes() // less what earlier tests dropped
	rowBytes, heapGrew, mapped := buildRMC2(t, true, 100)
	if mapped != int64(rowBytes) {
		t.Errorf("building mapped %d bytes, want the model's %d row bytes", mapped, rowBytes)
	}
	if heapGrew >= int64(rowBytes)/10 {
		t.Errorf("building grew the live heap by %d bytes, want under a tenth of the %d row bytes", heapGrew, rowBytes)
	}
	if got := settledMappedBytes(); got != base {
		t.Errorf("%d bytes mapped after the model was dropped, want the %d before it was built", got, base)
	}
}

// TestFP32RowsOffHeap: an fp32 model's table rows (W) are mapped
// outside the Go heap too: building RMC2 at 1/400 scale (15 MB of fp32
// rows) maps exactly those bytes, grows the live heap by less than a
// tenth of them, and the mapping is returned with the model.
func TestFP32RowsOffHeap(t *testing.T) {
	base := settledMappedBytes()
	rowBytes, heapGrew, mapped := buildRMC2(t, false, 400)
	if mapped != int64(rowBytes) {
		t.Errorf("building mapped %d bytes, want the model's %d fp32 row bytes", mapped, rowBytes)
	}
	if heapGrew >= int64(rowBytes)/10 {
		t.Errorf("building grew the live heap by %d bytes, want under a tenth of the %d row bytes", heapGrew, rowBytes)
	}
	if got := settledMappedBytes(); got != base {
		t.Errorf("%d bytes mapped after the model was dropped, want the %d before it was built", got, base)
	}
}

// TestQuantizeTablesUnmapsFP32Rows: QuantizeTables drops each table's
// fp32 W, and once a collection has run, W's mapping is gone and only
// the int8 rows remain mapped.
func TestQuantizeTablesUnmapsFP32Rows(t *testing.T) {
	base := settledMappedBytes()
	spec := model.Spec{Preset: model.RMC2Small(), Scale: 400, Weight: 1}
	m, err := spec.Build(stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	fp32 := 0
	for _, op := range m.SLS {
		fp32 += 4 * len(op.Table.W.Data())
	}
	if got := nn.MappedBytes() - base; got != int64(fp32) {
		t.Fatalf("fp32 model maps %d bytes, want its %d row bytes", got, fp32)
	}
	m.QuantizeTables()
	int8Bytes := 0
	for _, op := range m.SLS {
		rows, _ := op.Quant.RowBytes()
		int8Bytes += len(rows)
	}
	if got := settledMappedBytes() - base; got != int64(int8Bytes) {
		t.Errorf("after QuantizeTables and a GC %d bytes mapped, want only the %d int8 row bytes (fp32 %d)", got, int8Bytes, fp32)
	}
	runtime.KeepAlive(m)
}

// TestFP32RowsNeverReadUnmapped drives every reader of an fp32 table's
// rows — the local gather, the trainer's sparse update, a checkpoint
// round trip, Clone and QuantizeTables — on models no variable is read
// after (m past Save, loaded past Clone), while another goroutine
// collects without pause, so the finalizers unmap each round's dropped
// rows while the next reads its own. A reader that let its table's W
// become unreachable mid-read could fault on an unmapped page; the test
// is a smoke test of that, not a proof, since the window is a race.
// Each round also checks that the round trip and the clone score what
// the trained model scores, bit for bit.
func TestFP32RowsNeverReadUnmapped(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	cfg := model.RMC1Small().Scaled(100)
	for i := 0; i < 20; i++ {
		rng := stats.NewRNG(uint64(i + 1))
		m, err := model.Build(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		req := model.NewRandomRequest(cfg, 8, rng)
		labels := make([]float32, req.Batch)
		for j := range labels {
			labels[j] = float32(j % 2)
		}
		train.NewTrainer(m, 0.05).Step(req, labels)
		want := m.CTR(req)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := model.Load(&buf, int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.CTR(req); !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("round %d: the loaded checkpoint scores %v, the trained model %v", i, got, want)
		}
		clone, err := loaded.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if got := clone.CTR(req); !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("round %d: the clone scores %v, the trained model %v", i, got, want)
		}
		clone.QuantizeTables().CTR(req)
	}
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// settledMappedBytes collects until the mapped byte count stops moving
// and returns it. The finalizer that unmaps a table runs after the
// cycle that finds it unreachable, on the finalizer goroutine.
func settledMappedBytes() int64 {
	last := nn.MappedBytes()
	for try := 0; try < 50; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		now := nn.MappedBytes()
		if now == last {
			break
		}
		last = now
	}
	return last
}

// buildRMC2 builds rmc2 at 1/scale, int8 or fp32, and reports its row
// bytes, how much it grew the live heap and how many bytes it mapped.
// The model is unreachable once it returns.
func buildRMC2(t *testing.T, int8Tables bool, scale int) (rowBytes int, heapGrew, mapped int64) {
	spec := model.Spec{Preset: model.RMC2Small(), Scale: scale, Weight: 1, Int8Tables: int8Tables}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	base := nn.MappedBytes()
	m, err := spec.Build(stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	for _, op := range m.SLS {
		if int8Tables {
			rows, _ := op.Quant.RowBytes()
			rowBytes += len(rows)
		} else {
			rowBytes += 4 * len(op.Table.W.Data())
		}
	}
	runtime.KeepAlive(m)
	return rowBytes, int64(after.HeapAlloc) - int64(before.HeapAlloc), nn.MappedBytes() - base
}
