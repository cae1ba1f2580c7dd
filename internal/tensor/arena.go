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

	// i16slab/i32slab: integer scratch for the register-tiled int8 GEMM
	// (widened activation codes and per-row zero points), bump-allocated
	// and right-sized like the float slab so the int8 hot path also
	// reaches zero steady-state allocations.
	i16slab  []int16
	i16off   int
	i16total int
	i32slab  []int32
	i32off   int
	i32total int
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

// AllocI16 carves n uninitialized int16s from the arena's i16 slab —
// the widened activation-code buffer of the register-tiled int8 GEMM
// (VPMADDWD consumes i16 lanes, so codes are stored pre-widened). Like
// AllocUninit, the contents are whatever a previous pass left behind —
// only for scratch fully overwritten before any read — and the slice
// is invalidated by Reset.
func (a *Arena) AllocI16(n int) []int16 {
	a.i16total += n
	if a.i16off+n > len(a.i16slab) {
		size := 2 * len(a.i16slab)
		if size < a.i16total {
			size = a.i16total
		}
		if size < 1024 {
			size = 1024
		}
		a.i16slab = make([]int16, size)
		a.i16off = 0
	}
	d := a.i16slab[a.i16off : a.i16off+n : a.i16off+n]
	a.i16off += n
	return d
}

// AllocI32 carves n uninitialized int32s from the arena's i32 slab —
// per-row zero points for the int8 GEMM epilogue. Same contract as
// AllocI16.
func (a *Arena) AllocI32(n int) []int32 {
	a.i32total += n
	if a.i32off+n > len(a.i32slab) {
		size := 2 * len(a.i32slab)
		if size < a.i32total {
			size = a.i32total
		}
		if size < 256 {
			size = 256
		}
		a.i32slab = make([]int32, size)
		a.i32off = 0
	}
	d := a.i32slab[a.i32off : a.i32off+n : a.i32off+n]
	a.i32off += n
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
	if a.i16total > len(a.i16slab) {
		a.i16slab = make([]int16, a.i16total)
	}
	if a.i32total > len(a.i32slab) {
		a.i32slab = make([]int32, a.i32total)
	}
	a.off = 0
	a.total = 0
	a.used = 0
	a.i16off = 0
	a.i16total = 0
	a.i32off = 0
	a.i32total = 0
}
