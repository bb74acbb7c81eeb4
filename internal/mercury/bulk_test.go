package mercury

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Buffer-lifetime tests for the bulk data path. A received chunk stays
// in the pooled frame it landed in until BulkPull has written it out,
// so these pin the ownership rules: the frame returns to the pool only
// after dst.WriteAt returns, at most once, and a pull that stops early
// or an endpoint torn down mid-stream neither wedges the connection nor
// recycles a buffer someone still reads. Run them under -race.

const testChunk = 64 << 10

// seeded returns n pseudo-random bytes.
func seeded(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkedSink is a pull destination that re-checks every chunk after
// yielding: if the chunk's frame were recycled while WriteAt still held
// it, a concurrent pull's frame would overwrite it and the second hash
// would differ.
type checkedSink struct {
	*MemRegion
	mu       sync.Mutex
	recycled int
}

func (s *checkedSink) WriteAt(p []byte, off int64) (int, error) {
	before := sha256.Sum256(p)
	time.Sleep(20 * time.Microsecond)
	if sha256.Sum256(p) != before {
		s.mu.Lock()
		s.recycled++
		s.mu.Unlock()
	}
	return s.MemRegion.WriteAt(p, off)
}

// TestConcurrentBulkPullsIntegrity: concurrent pulls multiplexed on one
// endpoint each land byte-exact, and no chunk's frame is reused while
// its WriteAt runs.
func TestConcurrentBulkPullsIntegrity(t *testing.T) {
	for _, plugin := range []string{"sm", "ofi+tcp"} {
		t.Run(plugin, func(t *testing.T) {
			srv, cli, addr := newPair(t, plugin)
			srv.SetBulkChunk(testChunk)
			ep, err := cli.Lookup(addr)
			if err != nil {
				t.Fatal(err)
			}
			const pulls = 6
			var wg sync.WaitGroup
			errs := make(chan error, pulls)
			for i := 0; i < pulls; i++ {
				// Sizes straddle chunk boundaries so short tail frames
				// (which use the reader's scratch, not the pool) mix in.
				data := seeded(int64(i), 16*testChunk+i*4099)
				h := srv.ExposeBulk(NewMemRegion(data))
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := &checkedSink{MemRegion: NewMemRegion(make([]byte, len(data)))}
					n, err := ep.BulkPull(h, 0, 0, dst)
					switch {
					case err != nil:
						errs <- err
					case n != int64(len(data)):
						errs <- fmt.Errorf("pulled %d of %d bytes", n, len(data))
					case dst.recycled > 0:
						errs <- fmt.Errorf("%d chunks changed while their WriteAt ran", dst.recycled)
					case sha256.Sum256(dst.Bytes()) != sha256.Sum256(data):
						errs <- errors.New("destination SHA-256 differs from the source")
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

var errSinkFull = errors.New("sink: device full")

// failingSink fails every write at or past failAt.
type failingSink struct {
	*MemRegion
	failAt int64
}

func (s *failingSink) WriteAt(p []byte, off int64) (int, error) {
	if off >= s.failAt {
		return 0, errSinkFull
	}
	return s.MemRegion.WriteAt(p, off)
}

// pullWithin runs one pull and fails the test if it does not return in
// time — the symptom of a wedged read loop.
func pullWithin(t *testing.T, ep *Endpoint, h BulkHandle, dst BulkProvider) (int64, error) {
	t.Helper()
	type result struct {
		n   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := ep.BulkPull(h, 0, 0, dst)
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		return r.n, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("bulk pull did not return within 10s: endpoint wedged")
		return 0, nil
	}
}

// TestBulkPullWriteFailureMidStream: a destination write that fails
// partway through ends the pull with that error while the server is
// still streaming. The chunks left queued for the abandoned pull must
// not block the endpoint's read loop: the next pull on the same
// connection completes byte-exact.
func TestBulkPullWriteFailureMidStream(t *testing.T) {
	srv, cli, addr := newPair(t, "ofi+tcp")
	srv.SetBulkChunk(testChunk)
	data := seeded(7, 64*testChunk)
	h := srv.ExposeBulk(NewMemRegion(data))
	ep, err := cli.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		sink := &failingSink{MemRegion: NewMemRegion(make([]byte, len(data))), failAt: 2 * testChunk}
		if _, err := pullWithin(t, ep, h, sink); !errors.Is(err, errSinkFull) {
			t.Fatalf("round %d: failing pull = %v, want the sink's error", round, err)
		}
		dst := NewMemRegion(make([]byte, len(data)))
		n, err := pullWithin(t, ep, h, dst)
		if err != nil || n != int64(len(data)) || !bytes.Equal(dst.Bytes(), data) {
			t.Fatalf("round %d: pull after a failed one: n=%d err=%v match=%v",
				round, n, err, bytes.Equal(dst.Bytes(), data))
		}
	}
}

// slowSink delays every write so a teardown lands mid-stream, and
// signals its first write.
type slowSink struct {
	*MemRegion
	started chan struct{}
	once    sync.Once
}

func (s *slowSink) WriteAt(p []byte, off int64) (int, error) {
	s.once.Do(func() { close(s.started) })
	time.Sleep(time.Millisecond)
	return s.MemRegion.WriteAt(p, off)
}

// TestBulkPullTeardownMidStream: closing either end while a pull is
// streaming fails the pull promptly — chunks still queued are dropped,
// never recycled under a reader — and a fresh lookup redials and pulls
// byte-exact.
func TestBulkPullTeardownMidStream(t *testing.T) {
	for _, side := range []string{"client", "server"} {
		t.Run(side, func(t *testing.T) {
			srv, cli, addr := newPair(t, "ofi+tcp")
			srv.SetBulkChunk(testChunk)
			data := seeded(11, 256*testChunk)
			h := srv.ExposeBulk(NewMemRegion(data))
			ep, err := cli.Lookup(addr)
			if err != nil {
				t.Fatal(err)
			}
			sink := &slowSink{MemRegion: NewMemRegion(make([]byte, len(data))), started: make(chan struct{})}
			go func() {
				<-sink.started
				if side == "client" {
					ep.Close()
				} else {
					srv.Close()
				}
			}()
			if n, err := pullWithin(t, ep, h, sink); err == nil {
				t.Fatalf("pull survived a %s teardown (%d bytes)", side, n)
			}
			if side == "server" {
				return
			}
			again, err := cli.Lookup(addr)
			if err != nil {
				t.Fatal(err)
			}
			if again == ep {
				t.Fatal("lookup returned the torn-down endpoint")
			}
			dst := NewMemRegion(make([]byte, len(data)))
			if n, err := pullWithin(t, again, h, dst); err != nil || !bytes.Equal(dst.Bytes(), data) {
				t.Fatalf("pull after redial: n=%d err=%v", n, err)
			}
		})
	}
}

// TestMessageReleaseOnce: releasing a message hands its frame back at
// most once, however often release is called.
func TestMessageReleaseOnce(t *testing.T) {
	b := make([]byte, 8)
	m := message{frame: &b}
	m.release()
	if m.frame != nil {
		t.Fatal("release kept the frame")
	}
	m.release() // a second call must be a no-op, not a second Put
}
