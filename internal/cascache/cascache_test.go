package cascache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fillEntry commits one segment into the cache, failing the test on any
// error.
func fillEntry(t *testing.T, c *Cache, ds string, content []byte) []byte {
	t.Helper()
	sum := sha256.Sum256(content)
	fl, err := c.BeginFill(ds, sum[:], int64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	if fl == nil {
		t.Fatal("BeginFill returned nil for a fresh key")
	}
	if _, err := fl.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := fl.Commit(); err != nil {
		t.Fatal(err)
	}
	return sum[:]
}

func TestFillAndGet(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("norns"), 1000)
	digest := fillEntry(t, c, "lustre://", content)

	e, ok := c.Get("lustre://", digest, int64(len(content)))
	if !ok {
		t.Fatal("freshly committed entry missed")
	}
	defer e.Close()
	if !e.Verified() {
		t.Fatal("commit-verified entry reported unverified")
	}
	got := make([]byte, len(content))
	if _, err := e.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("entry content mismatch")
	}
	// The same digest under another dataspace is a separate namespace.
	if _, ok := c.Get("nvme0://", digest, int64(len(content))); ok {
		t.Fatal("entry leaked across dataspace namespaces")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len(content)) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSingleFlightFill races many fillers on one key: exactly one gets
// the fill, everyone else is told to skip, and the committed entry is
// intact. Run with -race.
func TestSingleFlightFill(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("x"), 4096)
	sum := sha256.Sum256(content)

	const racers = 16
	fills := make([]*Fill, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fl, err := c.BeginFill("ds://", sum[:], int64(len(content)))
			if err != nil {
				t.Error(err)
				return
			}
			fills[i] = fl
			if fl == nil {
				return
			}
			if _, err := fl.WriteAt(content, 0); err != nil {
				t.Error(err)
				return
			}
			if err := fl.Commit(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	var won int
	for _, fl := range fills {
		if fl != nil {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d fills won the single-flight race, want 1", won)
	}
	if _, ok := c.Get("ds://", sum[:], int64(len(content))); !ok {
		t.Fatal("entry missing after racing fills")
	}
	// The key is released: a later fill attempt on an existing entry
	// still reports "skip", not a wedged slot.
	if fl, _ := c.BeginFill("ds://", sum[:], int64(len(content))); fl != nil {
		t.Fatal("BeginFill offered a fill for an existing entry")
	}
}

// TestEvictionMidServe pins an entry by serving it, then forces size
// pressure: the cold entry is evicted from the index but the open
// handle keeps reading (unlink semantics), so a transfer that raced the
// eviction completes.
func TestEvictionMidServe(t *testing.T) {
	c, err := Open(t.TempDir(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte("a"), 6000)
	d1 := fillEntry(t, c, "ds://", first)
	e, ok := c.Get("ds://", d1, int64(len(first)))
	if !ok {
		t.Fatal("first entry missed")
	}
	defer e.Close()

	// Committing the second entry pushes the footprint past the cap and
	// evicts the first (it is the LRU tail).
	second := bytes.Repeat([]byte("b"), 6000)
	fillEntry(t, c, "ds://", second)

	if _, ok := c.Get("ds://", d1, int64(len(first))); ok {
		t.Fatal("evicted entry still indexed")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 10_000 {
		t.Fatalf("footprint %d exceeds cap after eviction", st.Bytes)
	}
	// The pinned handle still serves the full content.
	got := make([]byte, len(first))
	if _, err := e.ReadAt(got, 0); err != nil {
		t.Fatalf("read after eviction: %v", err)
	}
	if !bytes.Equal(got, first) {
		t.Fatal("pinned entry content changed under eviction")
	}
}

// TestCorruptEntryQuarantine flips a byte in a committed entry behind
// the cache's back, reopens (entries load unverified), and walks the
// serve-side contract: the caller detects the digest mismatch and
// quarantines; the entry stops being served and the corrupt file is
// preserved for inspection.
func TestCorruptEntryQuarantine(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("z"), 2048)
	digest := fillEntry(t, c, "ds://", content)

	// Corrupt the object in place.
	objPath := filepath.Join(objectsDir(dir), filepath.FromSlash(key("ds://", digest)))
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[100] ^= 0xff
	if err := os.WriteFile(objPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c2.Get("ds://", digest, int64(len(content)))
	if !ok {
		t.Fatal("adopted entry missed")
	}
	if e.Verified() {
		t.Fatal("adopted entry must load unverified")
	}
	sum, err := HashSegment(e, 0, e.Size())
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if bytes.Equal(sum, digest) {
		t.Fatal("corruption not visible to the serve-side hash")
	}
	c2.Quarantine("ds://", digest)
	if _, ok := c2.Get("ds://", digest, int64(len(content))); ok {
		t.Fatal("quarantined entry still served")
	}
	q, err := os.ReadDir(quarantineDir(dir))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir entries = %d err = %v, want 1", len(q), err)
	}
}

// TestCrashDuringFillRecovery simulates a daemon dying mid-fill: the
// temp file is left behind, never committed. Reopening sweeps it and
// the half-written bytes are never served.
func TestCrashDuringFillRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("w"), 8192)
	sum := sha256.Sum256(content)
	fl, err := c.BeginFill("ds://", sum[:], int64(len(content)))
	if err != nil || fl == nil {
		t.Fatalf("BeginFill: %v %v", fl, err)
	}
	if _, err := fl.WriteAt(content[:1000], 0); err != nil {
		t.Fatal(err)
	}
	// Crash: no Commit, no Abort. The process's in-memory state is gone.
	c2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("ds://", sum[:], int64(len(content))); ok {
		t.Fatal("uncommitted fill was served after recovery")
	}
	tmps, err := os.ReadDir(tmpDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("%d stale temp files survived recovery, want 0", len(tmps))
	}
	if st := c2.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("recovered stats = %+v, want empty", st)
	}
}

// TestCommitRejectsWrongBytes: a fill whose content does not hash to
// the declared digest must not publish.
func TestCommitRejectsWrongBytes(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("the real content")
	sum := sha256.Sum256(content)
	fl, err := c.BeginFill("ds://", sum[:], int64(len(content)))
	if err != nil || fl == nil {
		t.Fatalf("BeginFill: %v %v", fl, err)
	}
	if _, err := fl.WriteAt([]byte("not the content!"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fl.Commit(); err == nil {
		t.Fatal("Commit accepted bytes that do not match the digest")
	}
	if _, ok := c.Get("ds://", sum[:], int64(len(content))); ok {
		t.Fatal("mismatched fill was published")
	}
}

// TestConfigMismatchWipes: a cache directory written under a different
// recorded configuration is dropped wholesale at Open.
func TestConfigMismatchWipes(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	digest := fillEntry(t, c, "ds://", []byte("entry under v1"))
	if err := os.WriteFile(configPath(dir), []byte("norns-cascache v0 xxhash\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("ds://", digest, int64(len("entry under v1"))); ok {
		t.Fatal("entry from a mismatched config survived")
	}
	if body, err := os.ReadFile(configPath(dir)); err != nil || string(body) != configBody {
		t.Fatalf("config not rewritten: %q err=%v", body, err)
	}
}

func TestHashSegments(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 1000) // 10000 bytes
	r := bytes.NewReader(data)
	digests, err := HashSegments(r, int64(len(data)), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 3 {
		t.Fatalf("segments = %d, want 3", len(digests))
	}
	for i, want := range [][2]int64{{0, 4096}, {4096, 4096}, {8192, 1808}} {
		sum := sha256.Sum256(data[want[0] : want[0]+want[1]])
		if !bytes.Equal(digests[i], sum[:]) {
			t.Fatalf("segment %d digest mismatch", i)
		}
		one, err := HashSegment(r, want[0], want[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one, sum[:]) {
			t.Fatalf("HashSegment %d mismatch", i)
		}
	}
	if _, err := io.ReadAll(bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	}
}

// writeChunks writes content into fl in chunk-sized pieces, in the
// given chunk order.
func writeChunks(t *testing.T, fl *Fill, content []byte, chunk int, order []int) {
	t.Helper()
	for _, i := range order {
		end := min((i+1)*chunk, len(content))
		if _, err := fl.WriteAt(content[i*chunk:end], int64(i*chunk)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFillHashesInOrderWrites: a fill written front to back is hashed
// as it lands, so Commit needs no re-read.
func TestFillHashesInOrderWrites(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("in order "), 1000)
	sum := sha256.Sum256(content)
	fl, err := c.BeginFill("ds://", sum[:], int64(len(content)))
	if err != nil || fl == nil {
		t.Fatalf("BeginFill: %v %v", fl, err)
	}
	writeChunks(t, fl, content, 1000, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	if fl.broken || fl.hashed != int64(len(content)) {
		t.Fatalf("in-order fill: broken=%v hashed=%d of %d", fl.broken, fl.hashed, len(content))
	}
	if err := fl.Commit(); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Get("ds://", sum[:], int64(len(content)))
	if !ok || !e.Verified() {
		t.Fatalf("committed entry: ok=%v", ok)
	}
	e.Close()
}

// TestFillOutOfOrder: writes that do not extend the hashed prefix —
// reordered chunks, or a chunk rewritten after an in-order pass — leave
// a hash that does not describe the file, so Commit rejects the fill
// and publishes nothing, even when the bytes on disk end up right.
func TestFillOutOfOrder(t *testing.T) {
	content := make([]byte, 8<<10) // every 1 KiB chunk distinct
	for i := range content {
		content[i] = byte(i*7 + i>>10)
	}
	sum := sha256.Sum256(content)
	wrong := bytes.Repeat([]byte("X"), 1024)
	cases := []struct {
		name  string
		write func(t *testing.T, fl *Fill)
	}{
		{"reversed", func(t *testing.T, fl *Fill) {
			writeChunks(t, fl, content, 1024, []int{7, 6, 5, 4, 3, 2, 1, 0})
		}},
		{"interleaved", func(t *testing.T, fl *Fill) {
			writeChunks(t, fl, content, 1024, []int{0, 2, 1, 3, 5, 4, 7, 6})
		}},
		{"in-order-then-overwritten", func(t *testing.T, fl *Fill) {
			writeChunks(t, fl, content, 1024, []int{0, 1, 2, 3, 4, 5, 6, 7})
			fl.WriteAt(wrong, 2*1024)
		}},
		{"in-order-wrong-then-repaired", func(t *testing.T, fl *Fill) {
			writeChunks(t, fl, content, 1024, []int{0, 1})
			fl.WriteAt(wrong, 2*1024)
			writeChunks(t, fl, content, 1024, []int{3, 4, 5, 6, 7, 2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(t.TempDir(), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := c.BeginFill("ds://", sum[:], int64(len(content)))
			if err != nil || fl == nil {
				t.Fatalf("BeginFill: %v %v", fl, err)
			}
			tc.write(t, fl)
			if err := fl.Commit(); !errors.Is(err, errUnordered) {
				t.Fatalf("Commit = %v, want %v", err, errUnordered)
			}
			if _, ok := c.Get("ds://", sum[:], int64(len(content))); ok {
				t.Fatal("out-of-order fill was published")
			}
			// The key is free again: an in-order refill commits.
			fl, err = c.BeginFill("ds://", sum[:], int64(len(content)))
			if err != nil || fl == nil {
				t.Fatalf("BeginFill after rejection: %v %v", fl, err)
			}
			writeChunks(t, fl, content, 1024, []int{0, 1, 2, 3, 4, 5, 6, 7})
			if err := fl.Commit(); err != nil {
				t.Fatalf("in-order refill: %v", err)
			}
		})
	}
}

// TestFillFailedWriteRejected: a write that fails partway through a
// fill leaves a hole in the temp file. The bytes that were handed to
// the failed write must not count as written: even when the writer
// carries on with every later chunk, Commit rejects the fill.
func TestFillFailedWriteRejected(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("failed write "), 700)
	sum := sha256.Sum256(content)
	fl, err := c.BeginFill("ds://", sum[:], int64(len(content)))
	if err != nil || fl == nil {
		t.Fatalf("BeginFill: %v %v", fl, err)
	}
	writeChunks(t, fl, content, 1000, []int{0, 1})
	// Fail the third chunk's write at its own offset: the fill's
	// descriptor is briefly swapped for a read-only one.
	good := fl.f
	ro, err := os.Open(fl.tmp)
	if err != nil {
		t.Fatal(err)
	}
	fl.f = ro
	if _, err := fl.WriteAt(content[2000:3000], 2000); err == nil {
		t.Fatal("write through a read-only descriptor succeeded")
	}
	fl.f = good
	ro.Close()
	writeChunks(t, fl, content, 1000, []int{3, 4, 5, 6, 7, 8, 9})
	if err := fl.Commit(); !errors.Is(err, errUnordered) {
		t.Fatalf("Commit = %v, want %v", err, errUnordered)
	}
	if _, ok := c.Get("ds://", sum[:], int64(len(content))); ok {
		t.Fatal("fill with a failed write was published")
	}
}
