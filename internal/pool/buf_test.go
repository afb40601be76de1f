package pool

import (
	"bytes"
	"testing"
)

func TestBufGetRelease(t *testing.T) {
	var p BufPool
	b := p.Get()
	if b.Refs() != 1 {
		t.Fatalf("fresh Buf has %d refs, want 1", b.Refs())
	}
	b.B = append(b.B, "hello"...)
	b.Release()
	if b.Refs() != 0 {
		t.Fatalf("released Buf has %d refs, want 0", b.Refs())
	}
}

func TestBufRecycles(t *testing.T) {
	var p BufPool
	b := p.Get()
	b.B = append(b.B, bytes.Repeat([]byte("x"), 1024)...)
	b.Release()
	// The next Get must come back zero-length even when it reuses the
	// released buffer's backing array.
	c := p.Get()
	if len(c.B) != 0 {
		t.Fatalf("recycled Buf has len %d, want 0", len(c.B))
	}
	if c.Refs() != 1 {
		t.Fatalf("recycled Buf has %d refs, want 1", c.Refs())
	}
	c.Release()
}

func TestBufRetainDefersRecycle(t *testing.T) {
	var p BufPool
	b := p.Get()
	b.B = append(b.B, "payload"...)
	b.Retain() // second owner
	b.Release()
	if b.Refs() != 1 {
		t.Fatalf("after Retain+Release refs = %d, want 1", b.Refs())
	}
	// Still live: contents must be intact and the pool must not hand
	// the buffer out again.
	if string(b.B) != "payload" {
		t.Fatalf("retained Buf contents clobbered: %q", b.B)
	}
	b.Release()
	if b.Refs() != 0 {
		t.Fatalf("after final Release refs = %d, want 0", b.Refs())
	}
}

func TestBufOverReleasePanics(t *testing.T) {
	var p = BufPool{}
	b := p.Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	b.Release()
}

func TestBufNilSafe(t *testing.T) {
	var b *Buf
	b.Retain()
	b.Release()
	if b.Refs() != 0 {
		t.Fatal("nil Buf reports nonzero refs")
	}
}

func TestBufPoolDropsOversized(t *testing.T) {
	var p BufPool
	b := p.GetSized(1<<20 + 1)
	if cap(b.B) != 1<<20+1 {
		t.Fatalf("beyond the largest class: cap %d, want exactly the request", cap(b.B))
	}
	big := &b.B[:1][0]
	b.Release()
	// Nothing may hand the dropped array out again, whatever is asked.
	for _, n := range []int{0, 1 << 20, 1<<20 + 1} {
		c := p.GetSized(n)
		if cap(c.B) > 0 && &c.B[:1][0] == big {
			t.Fatalf("GetSized(%d) returned the buffer grown past the largest class", n)
		}
		c.Release()
	}
}

// sameArray reports whether two buffers share a backing array.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

func TestBufPoolRecyclesByClass(t *testing.T) {
	var p BufPool
	big := p.GetSized(65 << 10)
	if cap(big.B) < 65<<10 || len(big.B) != 0 {
		t.Fatalf("GetSized(65 KiB): len %d cap %d", len(big.B), cap(big.B))
	}
	arr := big.B[:1]
	big.Release()

	// A caller in the smallest class — sized or not — never gets it:
	// a process of small messages must not be handed (and then keep
	// re-pooling) some large message's buffer.
	for _, n := range []int{0, 1 << 10} {
		small := p.GetSized(n)
		if sameArray(small.B, arr) {
			t.Fatalf("GetSized(%d) was handed the 65 KiB buffer (cap %d)", n, cap(small.B))
		}
		small.Release()
	}
	small := p.Get()
	if sameArray(small.B, arr) {
		t.Fatalf("Get was handed the 65 KiB buffer (cap %d)", cap(small.B))
	}
	small.Release()

	// The next 65 KiB request does. (sync.Pool may drop entries under
	// the race detector, so only identity-when-reused is asserted
	// there; the allocation test below pins reuse.)
	again := p.GetSized(65 << 10)
	if cap(again.B) < 65<<10 || len(again.B) != 0 {
		t.Fatalf("recycled GetSized(65 KiB): len %d cap %d", len(again.B), cap(again.B))
	}
	again.Release()
}

func TestBufPoolClassBounds(t *testing.T) {
	var p BufPool
	for _, tc := range []struct{ n, wantCap int }{
		{1, 4 << 10}, {4 << 10, 4 << 10}, {4<<10 + 1, 8 << 10},
		{64 << 10, 64 << 10}, {64<<10 + 1, 128 << 10}, {1 << 20, 1 << 20},
	} {
		b := p.GetSized(tc.n)
		if cap(b.B) != tc.wantCap {
			t.Errorf("fresh GetSized(%d): cap %d, want the class size %d", tc.n, cap(b.B), tc.wantCap)
		}
		b.Release()
	}
	// A buffer appended past its class is kept in the class it reached.
	b := p.Get()
	b.B = append(b.B, make([]byte, 20<<10)...)
	grown := b.B[:1]
	b.Release()
	if c := p.GetSized(32 << 10); sameArray(c.B, grown) {
		t.Fatalf("a %d-byte buffer was handed to a 32 KiB request", cap(grown))
	}
}

func TestBufPoolUndersizedInSmallestClass(t *testing.T) {
	var p BufPool
	b := p.Get()
	b.B = b.B[cap(b.B)-8 : cap(b.B)] // resliced down to cap 8: kept in the smallest class
	b.Release()
	for i := 0; i < 4; i++ {
		c := p.GetSized(1 << 10)
		if cap(c.B) < 1<<10 {
			t.Fatalf("GetSized(1 KiB) returned cap %d", cap(c.B))
		}
		defer c.Release()
	}
}

func TestBufPoolSteadyStateAllocFree(t *testing.T) {
	var p BufPool
	for c := 0; c < numClasses; c++ {
		n := 1<<(c+minClassShift) - 100
		p.GetSized(n).Release() // warm the class
		allocs := testing.AllocsPerRun(100, func() {
			b := p.GetSized(n)
			b.B = b.B[:n]
			b.Release()
		})
		if allocs != 0 {
			t.Errorf("class %d (%d bytes): steady-state GetSized/Release allocates %.1f/op", c, n, allocs)
		}
	}
}

// TestBufGrow pins the move up a class: the owner keeps its *Buf and
// contents, the capacity reaches the request and at least doubles, a
// request that already fits changes nothing, and both backing arrays go
// back to their classes — a warmed get, grow, release cycle allocates
// nothing.
func TestBufGrow(t *testing.T) {
	var p BufPool
	b := p.Get()
	b.B = append(b.B, "contents"...)

	b.Grow(5 << 10)
	if string(b.B) != "contents" || cap(b.B) != 8<<10 || b.Refs() != 1 {
		t.Fatalf("after Grow(5 KiB): %q, cap %d, refs %d; want the contents at the 8 KiB class", b.B, cap(b.B), b.Refs())
	}
	held := b.B
	b.Grow(8 << 10)
	if !sameArray(b.B, held) {
		t.Fatalf("Grow to the capacity already held swapped the array (cap %d)", cap(b.B))
	}
	b.Grow(8<<10 + 1) // one byte past: at least doubles
	if string(b.B) != "contents" || cap(b.B) != 16<<10 {
		t.Fatalf("after Grow(8 KiB + 1): %q, cap %d; want a doubling to 16 KiB", b.B, cap(b.B))
	}
	b.Release()

	// Nothing per cycle without the race detector. Under it sync.Pool
	// drops a quarter of its Puts, and each of the cycle's two then
	// costs a Buf and its array: 1 per cycle on average, where a Grow
	// that lost either array would cost 2 on every one.
	if allocs := testing.AllocsPerRun(100, func() {
		b := p.Get()
		b.Grow(5 << 10)
		b.Release()
	}); allocs > 1 {
		t.Errorf("steady-state Get/Grow/Release allocates %.1f/op", allocs)
	}
}
