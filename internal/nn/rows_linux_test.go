package nn_test

import (
	"runtime"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/stats"
)

// TestInt8RowsOffHeap: an int8 model's rows are mapped outside the Go
// heap, so building RMC2 at 1/100 scale (19 MB of rows) grows the live
// heap by less than a tenth of them, and the mapping is returned once
// the model is unreachable and collected.
func TestInt8RowsOffHeap(t *testing.T) {
	base := settledMappedBytes() // less what earlier tests dropped
	rowBytes, heapGrew, mapped := buildInt8RMC2(t)
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

// buildInt8RMC2 builds rmc2-int8:100 and reports its row bytes, how
// much it grew the live heap and how many bytes it mapped. The model is
// unreachable once it returns.
func buildInt8RMC2(t *testing.T) (rowBytes int, heapGrew, mapped int64) {
	spec := model.Spec{Preset: model.RMC2Small(), Scale: 100, Weight: 1, Int8Tables: true}
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
		rows, _ := op.Quant.RowBytes()
		rowBytes += len(rows)
	}
	runtime.KeepAlive(m)
	return rowBytes, int64(after.HeapAlloc) - int64(before.HeapAlloc), nn.MappedBytes() - base
}
