package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buf is a pooled byte buffer with an explicit reference count — the
// unit of the body-buffer ownership protocol. A Get returns a buffer
// with one reference, owned by the caller; every transfer of ownership
// hands that reference on, every new alias that outlives the current
// owner takes its own reference with Retain, and each reference is
// discharged by exactly one Release. The final Release recycles the
// buffer, so any alias kept past one's own Release (a sniffed body, a
// logged observation) reads recycled memory — the aliasing hazard the
// protocol exists to make explicit.
//
// The reference count is atomic: Retain and Release are safe from
// concurrent owners, but the contents B are not synchronized — writers
// must be the sole owner.
type Buf struct {
	// B is the buffer contents. The owner may reslice and append to it
	// freely; the backing array returns to the pool on final Release.
	B []byte

	refs atomic.Int32
	pool *BufPool
}

// Retain adds a reference: the caller is keeping an alias of B beyond
// the lifetime of the reference it already holds, and commits to one
// additional Release. Retain on a nil buffer is a no-op, so unpooled
// bodies (nil Buf) flow through the same call sites.
//
//wsu:noalloc
func (b *Buf) Retain() {
	if b == nil {
		return
	}
	b.refs.Add(1)
}

// Release discharges one reference; the final one recycles the buffer
// into its pool, after which B must not be touched. Releasing more
// times than Get+Retain granted is a protocol violation and panics.
// Release on a nil buffer is a no-op (see Retain).
//
//wsu:noalloc
//wsu:owns b
//wsu:allow poolcheck -- a positive refcount keeps the buffer live; the final Release recycles it
func (b *Buf) Release() {
	if b == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n > 0:
	case n == 0:
		b.pool.put(b)
	default:
		//wsu:allow noalloc -- the over-release panic is a protocol violation, never the steady state
		panic("pool: Buf released more times than its references allow")
	}
}

// Grow ensures the buffer holds n bytes, like bytes.Buffer.Grow but by
// size class: when n is past the capacity the contents move into a
// GetSized buffer of n's class (at least twice the capacity, so many
// small growths stay linear), the backing arrays trade places, and the
// outgrown one returns to its own class. The caller keeps the same
// *Buf and must be its sole owner: another reference would go on
// reading the array that was just handed back.
//
//wsu:noalloc
func (b *Buf) Grow(n int) {
	if n <= cap(b.B) {
		return
	}
	next := b.pool.GetSized(max(n, 2*cap(b.B)))
	next.B = append(next.B, b.B...)
	b.B, next.B = next.B, b.B
	next.Release()
}

// Refs reports the current reference count (for tests and diagnostics).
func (b *Buf) Refs() int {
	if b == nil {
		return 0
	}
	return int(b.refs.Load())
}

// Size classes: a released buffer is kept in the class its capacity
// has reached — powers of two from minClass to maxClass; class 0 also
// holds everything smaller — and a buffer grown past maxClass is
// dropped to the GC, so an occasional giant body does not pin its
// buffer forever. Only classes a process has actually filled hold
// anything: one that only ever sees sub-4 KiB messages retains 4 KiB
// buffers and nothing else.
const (
	minClassShift = 12 // 4 KiB
	maxClassShift = 20 // 1 MiB
	numClasses    = maxClassShift - minClassShift + 1
)

// BufPool recycles Bufs by power-of-two capacity class. The zero value
// is ready to use.
type BufPool struct {
	classes [numClasses]sync.Pool // *Buf with refs == 0; see classFloor
}

// classCeil is the class whose every buffer holds at least n bytes;
// numClasses or more means n is beyond the largest class.
func classCeil(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassShift
}

// classFloor is the class a buffer of capacity c is kept in: the
// largest one whose guarantee c still meets.
func classFloor(c int) int {
	if c < 1<<minClassShift {
		return 0
	}
	return bits.Len(uint(c)) - 1 - minClassShift
}

// Get returns a buffer with one reference and zero-length contents,
// from the smallest class: for callers that do not know the length and
// grow B as they go. Ownership transfers to the caller: exactly one
// Release (plus one per extra Retain) must eventually pair with it.
//
//wsu:owns return
func (p *BufPool) Get() *Buf { return p.GetSized(0) }

// GetSized is Get for a caller that knows the length: the returned
// buffer has zero-length contents and capacity at least n, drawn from
// n's size class, so a 65 KiB reply reuses the buffer the last one
// released and a 0.3 KiB one is never handed it. A fresh buffer is
// allocated at the class's full size, so it comes back to the class it
// was asked from (exactly n beyond the largest class, where nothing is
// retained).
//
//wsu:owns return
func (p *BufPool) GetSized(n int) *Buf {
	c := classCeil(n)
	size := n
	if c < numClasses {
		size = 1 << (c + minClassShift)
		if b, ok := p.classes[c].Get().(*Buf); ok {
			b.refs.Store(1)
			if cap(b.B) < n { // the smallest class also keeps what an owner resliced below it
				b.B = make([]byte, 0, size)
			}
			return b
		}
	}
	b := &Buf{B: make([]byte, 0, size), pool: p}
	b.refs.Store(1)
	return b
}

// put recycles a fully released buffer into the class its capacity has
// reached, dropping those grown past the largest.
//
//wsu:owns b
//wsu:allow poolcheck -- oversized buffers are dropped to the GC by design
func (p *BufPool) put(b *Buf) {
	if cap(b.B) > 1<<maxClassShift {
		return
	}
	b.B = b.B[:0]
	p.classes[classFloor(cap(b.B))].Put(b)
}
