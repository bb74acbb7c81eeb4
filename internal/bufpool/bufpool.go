// Package bufpool is the shared recycling pool for transfer-sized
// buffers: the segment engine's copy chunks, the sequential-fallback
// streams, mercury's bulk-transfer chunks and its received bulk frames
// all draw from it instead of allocating a fresh buffer (hundreds of
// KiB each) per stream or per frame. Buffers are pooled as *[]byte so
// the pool interface itself does not allocate.
//
// A process runs with a small set of chunk sizes, so pooled capacities
// converge; a pooled buffer too small for the requested size is
// dropped and replaced, and buffers beyond MaxRetained plus Headroom
// never enter the pool so one oversized tuning experiment cannot pin
// its footprint.
package bufpool

import "sync"

// MaxRetained bounds the chunk size the pool keeps buffers for. 16 MiB
// covers the largest bulk-chunk tuning the ablations sweep.
const MaxRetained = 16 << 20

// Headroom is the spare capacity a fresh buffer gets past its requested
// size, rounded to a multiple of Headroom. A buffer sized for a bulk
// chunk then also holds that chunk's received wire frame — the chunk
// plus a header of under 64 bytes — and both round to the same
// capacity, so chunk and frame buffers recycle through one pool instead
// of dropping each other. Buffers up to MaxRetained+Headroom are
// retained.
const Headroom = 64

var pool sync.Pool

// Get returns a pooled buffer of exactly size bytes.
func Get(size int) *[]byte {
	if p, _ := pool.Get().(*[]byte); p != nil && cap(*p) >= size {
		*p = (*p)[:size]
		return p
	}
	b := make([]byte, size, (size+Headroom)&^(Headroom-1))
	return &b
}

// Put returns a buffer obtained from Get to the pool. The caller must
// not retain the slice afterwards — in particular, a buffer an
// abandoned goroutine may still write into must be leaked to the GC
// instead.
func Put(p *[]byte) {
	if cap(*p) > MaxRetained+Headroom {
		return
	}
	pool.Put(p)
}
