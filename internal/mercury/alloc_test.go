//go:build !race

package mercury

// Allocation-regression guard for the bulk data path. Runs only
// without the race detector (its instrumentation allocates).

import (
	"testing"
	"time"
)

// TestBulkPullAllocsFlatInChunks: once the pools are warm a pull's
// allocations do not grow with its length — received chunks travel in
// pooled frames, chunk sends are gathered writes, and the per-chunk
// read on the serving side reuses one reader goroutine. Both ends run
// in this process, so the count covers sender and receiver.
func TestBulkPullAllocsFlatInChunks(t *testing.T) {
	srv, cli, addr := newPair(t, "ofi+tcp")
	srv.SetBulkChunk(testChunk)
	// No keepalive may fire mid-measurement on a slow host.
	srv.SetBulkKeepalive(time.Hour)
	ep, err := cli.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(chunks int) float64 {
		data := seeded(int64(chunks), chunks*testChunk)
		h := srv.ExposeBulk(NewMemRegion(data))
		defer srv.ReleaseBulk(h)
		dst := NewMemRegion(make([]byte, len(data)))
		pull := func() {
			if n, err := ep.BulkPull(h, 0, 0, dst); err != nil || n != int64(len(data)) {
				t.Fatalf("pull: n=%d err=%v", n, err)
			}
		}
		for i := 0; i < 8; i++ {
			pull()
		}
		return testing.AllocsPerRun(50, pull)
	}
	few, many := allocs(4), allocs(64)
	t.Logf("allocs per pull: 4 chunks %.0f, 64 chunks %.0f", few, many)
	if many > few {
		t.Errorf("a 64-chunk pull allocates %.0f times, a 4-chunk pull %.0f: allocations grow with the chunk count", many, few)
	}
}
