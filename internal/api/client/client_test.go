package client

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/transport"
)

// scripted serves handler on a fresh socket and dials a core client
// to it, so each test scripts the daemon side of the exchange.
func scripted(t *testing.T, handler transport.Handler) *Client {
	t.Helper()
	srv := transport.NewServer(handler, true)
	addr, err := srv.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial("test", "unix", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pushState pushes one state event for taskID on subscription subID.
func pushState(t *testing.T, peer transport.PeerInfo, subID, taskID uint64, st task.Status) {
	t.Helper()
	err := peer.Push(&proto.Response{Status: proto.Success, HasEvent: true, Event: proto.Event{
		SubID: subID, Kind: uint32(proto.EvState), TaskID: taskID,
		HasStats: true, Stats: proto.TaskStats{Status: uint32(st), MovedBytes: 8},
	}})
	if err != nil {
		t.Error(err)
	}
}

func TestWaitRoundsSubMillisecondTimeoutUp(t *testing.T) {
	sent := make(chan int64, 1)
	c := scripted(t, func(_ transport.PeerInfo, req *proto.Request) *proto.Response {
		sent <- req.TimeoutMS
		return &proto.Response{Status: proto.ETimeout}
	})
	for _, tc := range []struct {
		timeout time.Duration
		wantMS  int64
	}{{time.Nanosecond, 1}, {999 * time.Microsecond, 1}, {5 * time.Millisecond, 5}, {0, 0}, {-time.Second, -1000}} {
		_, err := c.Wait(1, tc.timeout)
		if got := <-sent; got != tc.wantMS {
			t.Errorf("Wait(%v) sent TimeoutMS %d, want %d", tc.timeout, got, tc.wantMS)
		}
		if !errors.Is(err, apierr.ErrTimeout) || !apierr.IsRetryable(err) {
			t.Errorf("Wait(%v) = %v, want a retryable ErrTimeout", tc.timeout, err)
		}
	}
}

// TestWatchTerminalBeforeSubscribeResponse: the daemon pushes the
// terminal event before the subscribe response; the handle registered
// ahead of the RPC still catches it.
func TestWatchTerminalBeforeSubscribeResponse(t *testing.T) {
	c := scripted(t, func(peer transport.PeerInfo, req *proto.Request) *proto.Response {
		pushState(t, peer, 7, req.Subscribe.TaskIDs[0], task.Finished)
		return &proto.Response{Status: proto.Success, SubID: 7}
	})
	calls := 0
	st, err := c.Watch(42, time.Hour, func(Stats) { calls++ })
	if err != nil || st.Status != task.Finished || st.MovedBytes != 8 {
		t.Fatalf("Watch = %+v, %v", st, err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want once (the terminal snapshot)", calls)
	}
}

// TestConcurrentWatchesShareOneHandle: two watches of one task share a
// handle, so a single pushed terminal event resolves both.
func TestConcurrentWatchesShareOneHandle(t *testing.T) {
	var mu sync.Mutex
	subscribes := 0
	second := make(chan struct{})
	c := scripted(t, func(peer transport.PeerInfo, req *proto.Request) *proto.Response {
		mu.Lock()
		subscribes++
		n := subscribes
		mu.Unlock()
		if n == 1 {
			<-second // hold the first watch until the second registered
			return &proto.Response{Status: proto.Success, SubID: 1}
		}
		pushState(t, peer, 2, req.Subscribe.TaskIDs[0], task.Finished)
		close(second)
		return &proto.Response{Status: proto.Success, SubID: 2}
	})
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			st, err := c.Watch(42, time.Hour, nil)
			if err == nil && st.Status != task.Finished {
				err = errors.New("watch ended " + st.Status.String())
			}
			errs <- err
		}()
	}
	for range 2 {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a watch never resolved")
		}
	}
}

// TestWatchSubscribeFailureReleasesHandle: a rejected subscription
// surfaces the typed error and leaves no handle registered.
func TestWatchSubscribeFailureReleasesHandle(t *testing.T) {
	c := scripted(t, func(transport.PeerInfo, *proto.Request) *proto.Response {
		return &proto.Response{Status: proto.ENotFound, Error: "no such task"}
	})
	if _, err := c.Watch(42, time.Millisecond, nil); !errors.Is(err, apierr.ErrNoSuchTask) {
		t.Fatalf("Watch = %v, want ErrNoSuchTask", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.handles) != 0 {
		t.Fatalf("%d handles left registered", len(c.handles))
	}
}

// TestWatchConnectionLoss: closing the connection mid-watch fails the
// handle, and Watch returns the connection error.
func TestWatchConnectionLoss(t *testing.T) {
	c := scripted(t, func(peer transport.PeerInfo, req *proto.Request) *proto.Response {
		pushState(t, peer, 1, req.Subscribe.TaskIDs[0], task.Running)
		return &proto.Response{Status: proto.Success, SubID: 1}
	})
	// fn first sees the running snapshot, after the subscription is
	// open; dropping the connection there leaves only the dispatcher
	// to resolve the handle.
	var once sync.Once
	_, err := c.Watch(42, time.Millisecond, func(Stats) { once.Do(func() { c.Close() }) })
	if !errors.Is(err, transport.ErrConnClosed) {
		t.Fatalf("Watch = %v, want ErrConnClosed", err)
	}
}

func TestHandleIgnoresStaleEvents(t *testing.T) {
	h := &TaskHandle{id: 1, stats: Stats{Status: task.Pending}}
	done := h.Done()
	if h.apply(Stats{Status: task.Running, MovedBytes: 10}, "test") {
		t.Fatal("running event spent the handle")
	}
	h.apply(Stats{Status: task.Pending}, "test")
	h.apply(Stats{Status: task.Running, MovedBytes: 5}, "test")
	if st := h.Stats(); st.Status != task.Running || st.MovedBytes != 10 {
		t.Fatalf("stale events applied: %+v", st)
	}
	if !h.apply(Stats{Status: task.Failed, Err: "boom"}, "test") {
		t.Fatal("terminal event did not spend the handle")
	}
	select {
	case <-done:
	default:
		t.Fatal("Done not closed at the terminal event")
	}
	if err := h.Err(); !errors.Is(err, apierr.ErrTaskError) {
		t.Fatalf("Err = %v, want ErrTaskError", err)
	}
}
