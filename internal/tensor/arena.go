package tensor

// Arena is a bump allocator for forward-pass scratch tensors. A
// steady-state inference pass allocates every activation from an
// arena and calls Reset between requests, so the per-request heap
// allocation count drops to zero once the slab has grown to the
// pass's working-set size (the paper's at-scale inference loop runs
// the same operator sequence per request, so the working set is
// fixed after the first pass).
//
// An Arena is NOT safe for concurrent use; give each inference
// worker its own. Tensors returned by Alloc alias the arena's slab
// and become invalid at the next Reset — copy anything that must
// outlive the pass.
type Arena struct {
	slab []float32
	off  int
	// total counts floats handed out since the last Reset. When a pass
	// outgrows the slab, Reset uses it to allocate one right-sized
	// slab, so a fixed per-pass working set reaches zero allocations
	// by the second pass.
	total int

	// tensors caches the *Tensor headers (and their shape slices)
	// handed out since the last Reset, reused in order on the next
	// pass so header allocation is also amortized to zero.
	tensors []*Tensor
	used    int

	ptrs []*Tensor // scratch for Ptrs
}

// NewArena returns an empty arena; the slab grows on demand.
func NewArena() *Arena { return &Arena{} }

// Alloc returns a zero-filled tensor carved from the arena. Shape
// rules match New. The shape check is inlined with constant-string
// panics (rather than checkShape's formatted ones) so the variadic
// slice never escapes — Alloc must stay heap-allocation-free on the
// steady-state path.
func (a *Arena) Alloc(shape ...int) *Tensor {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in shape")
		}
		n *= d
	}
	data := a.alloc(n)
	var t *Tensor
	if a.used < len(a.tensors) {
		t = a.tensors[a.used]
	} else {
		t = &Tensor{}
		a.tensors = append(a.tensors, t)
	}
	a.used++
	t.shape = append(t.shape[:0], shape...)
	t.data = data
	return t
}

// AllocUninit is Alloc without the zero fill: the returned tensor's
// contents are whatever a previous pass left in the slab. Only for
// scratch that is fully overwritten before any element is read (e.g.
// the gather staging buffer, where every row is materialized before
// accumulation) — the memclr is pure overhead there and measurably so
// on the SLS hot path.
func (a *Arena) AllocUninit(shape ...int) *Tensor {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in shape")
		}
		n *= d
	}
	data := a.allocRaw(n)
	var t *Tensor
	if a.used < len(a.tensors) {
		t = a.tensors[a.used]
	} else {
		t = &Tensor{}
		a.tensors = append(a.tensors, t)
	}
	a.used++
	t.shape = append(t.shape[:0], shape...)
	t.data = data
	return t
}

// alloc carves n zeroed float32s.
func (a *Arena) alloc(n int) []float32 {
	d := a.allocRaw(n)
	clear(d)
	return d
}

// allocRaw carves n float32s without clearing them. When the slab is
// exhausted a larger one is allocated; tensors handed out earlier keep
// referencing the old slab, so they stay valid for the remainder of
// the pass.
func (a *Arena) allocRaw(n int) []float32 {
	a.total += n
	if a.off+n > len(a.slab) {
		size := 2 * len(a.slab)
		if size < a.total {
			size = a.total
		}
		if size < 1024 {
			size = 1024
		}
		a.slab = make([]float32, size)
		a.off = 0
	}
	d := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return d
}

// Ptrs returns a reusable []*Tensor of length n with nil entries,
// for operator-input scratch (e.g. the Concat input list). The slice
// is owned by the arena and overwritten by the next Ptrs call.
func (a *Arena) Ptrs(n int) []*Tensor {
	if cap(a.ptrs) < n {
		a.ptrs = make([]*Tensor, n)
	}
	p := a.ptrs[:n]
	for i := range p {
		p[i] = nil
	}
	return p
}

// Reset recycles the arena for the next pass. All tensors previously
// returned by Alloc are invalidated: their storage and headers will
// be handed out again. If the finished pass outgrew the slab, one
// right-sized slab is allocated now so the next identical pass fits.
func (a *Arena) Reset() {
	if a.total > len(a.slab) {
		a.slab = make([]float32, a.total)
	}
	a.off = 0
	a.total = 0
	a.used = 0
}
