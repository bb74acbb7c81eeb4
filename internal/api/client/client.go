// Package client is the one client core under the norns (user) and
// nornsctl (admin) API libraries: the connection to a urd daemon, PID
// stamping, the mapping of failed responses to *apierr.Error, the task
// calls both libraries share, and the single push-event dispatcher.
//
// Dispatch contract: one goroutine per connection drains the pushed
// events and routes them two ways. A TaskHandle resolves by task ID and
// never drops a state event: the terminal transition always reaches
// it, whatever the consumer is doing. An Events sink matches by
// subscription ID and never blocks the dispatcher: when its consumer
// falls behind, the overflow is coalesced into one EventGap entry
// carrying the drop count.
package client

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/transport"
)

// Stats is the norns_stat_t completion report, extended with the
// segmented transfer engine's live progress fields: a running task
// reports bytes moved, segments done, and the observed rate.
type Stats struct {
	Status     task.Status
	Err        string
	TotalBytes int64
	MovedBytes int64
	// SizeErr reports a failed up-front size probe; TotalBytes is then an
	// explicit 0 fallback rather than a measured value.
	SizeErr string
	// SegmentsTotal/SegmentsDone report the transfer plan's completion
	// (0 total = unsegmented path).
	SegmentsTotal uint64
	SegmentsDone  uint64
	// BandwidthBps is the task's observed transfer rate at report time.
	BandwidthBps float64
	// CacheBytes is the subset of MovedBytes served from the daemon's
	// staging cache instead of the fabric; DeltaBytes counts bytes never
	// moved because the destination already matched the source digests.
	CacheBytes int64
	DeltaBytes int64
	// Attempts counts completed execution attempts that failed
	// transiently and were retried (0 = first attempt succeeded or is
	// still running).
	Attempts uint64
}

func statsOf(st *proto.TaskStats) Stats {
	return Stats{
		Status:        task.Status(st.Status),
		Err:           st.Err,
		TotalBytes:    st.TotalBytes,
		MovedBytes:    st.MovedBytes,
		SizeErr:       st.SizeErr,
		SegmentsTotal: st.SegmentsTotal,
		SegmentsDone:  st.SegmentsDone,
		BandwidthBps:  st.BandwidthBps,
		CacheBytes:    st.CacheBytes,
		DeltaBytes:    st.DeltaBytes,
		Attempts:      st.Attempts,
	}
}

// Client speaks the wire protocol to a urd daemon on behalf of one API
// library.
type Client struct {
	conn *transport.Conn
	// api names the library in rendered errors ("norns", "nornsctl").
	api string
	pid uint64

	// Push-event dispatch state: one goroutine drains the connection's
	// event channel, resolving task handles and feeding Events sinks.
	dispatchOnce sync.Once
	mu           sync.Mutex
	handles      map[uint64]*TaskHandle // by task ID, open tasks only
	sinks        map[uint64]*eventSink  // by subscription ID
	// unclaimed parks events whose SubID has no sink yet: the daemon's
	// pump can push a subscription's first events before the client has
	// processed the OpSubscribe response carrying that SubID. Claimed
	// (Events) or discarded (SubmitBatch, Watch, whose events route to
	// handles by task ID) as soon as the subscribing RPC returns.
	unclaimed    map[uint64][]TaskEvent
	unclaimedIDs []uint64 // insertion order, for bounded eviction
	// discarded remembers recently settled SubIDs whose later events
	// route elsewhere (handles) or nowhere (ended Events streams), so
	// they are dropped instead of endlessly re-parked.
	discarded     map[uint64]struct{}
	discardedRing []uint64 // bounded FIFO over discarded
	// expectParked / expectSubs widen the parking bounds while combined
	// submit+subscribe batches are in flight: each such batch can have
	// every terminal event arrive before its response is processed, and
	// none may be dropped — nor may its whole parked subscription be
	// evicted by sibling batches racing alongside it — or a handle would
	// never resolve. expectParked widens the per-subscription event cap;
	// expectSubs widens the cross-subscription eviction cap (one extra
	// unclaimed subscription per outstanding batch).
	expectParked int
	expectSubs   int
	// dispatchDead marks the dispatcher as exited (connection gone):
	// handles and sinks registered afterwards are resolved immediately.
	dispatchDead bool
	dispatchDone chan struct{}
}

// Dial connects to a daemon socket on behalf of the named API library,
// stamping the calling process's PID on every request.
func Dial(api, network, addr string) (*Client, error) {
	conn, err := transport.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, api: api, pid: uint64(os.Getpid())}, nil
}

// SetPID overrides the credential sent with requests.
func (c *Client) SetPID(pid uint64) { c.pid = pid }

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// apiError converts a failed response into a typed error: the result
// satisfies errors.Is against the sentinel for its status code.
func (c *Client) apiError(resp *proto.Response) error {
	return apierr.New(c.api, resp)
}

func (c *Client) errNoStats() error {
	return fmt.Errorf("%s: response without stats", c.api)
}

// Call stamps the client's PID on req, sends it, and turns a failed
// response into an *apierr.Error.
func (c *Client) Call(ctx context.Context, req *proto.Request) (*proto.Response, error) {
	req.PID = c.pid
	resp, err := c.conn.Call(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Status != proto.Success {
		return nil, c.apiError(resp)
	}
	return resp, nil
}

// Send issues req like Call but without waiting: Receive resolves the
// returned channel, keeping several requests in flight per client.
func (c *Client) Send(ctx context.Context, req *proto.Request) (<-chan *proto.Response, error) {
	req.PID = c.pid
	return c.conn.Send(ctx, req)
}

// Receive waits for a response issued by Send, mapping failures as Call
// does.
func (c *Client) Receive(ctx context.Context, ch <-chan *proto.Response) (*proto.Response, error) {
	resp, err := c.conn.Receive(ctx, ch)
	if err != nil {
		return nil, err
	}
	if resp.Status != proto.Success {
		return nil, c.apiError(resp)
	}
	return resp, nil
}

// Submit queues one task and returns its ID.
func (c *Client) Submit(spec *proto.TaskSpec) (uint64, error) {
	resp, err := c.Call(context.Background(), &proto.Request{Op: proto.OpSubmit, Task: spec})
	if err != nil {
		return 0, err
	}
	return resp.TaskID, nil
}

// Wait blocks until the task terminates and returns its stats. timeout
// <= 0 waits forever; when a positive timeout elapses first the error
// matches apierr.ErrTimeout (and apierr.IsRetryable).
func (c *Client) Wait(taskID uint64, timeout time.Duration) (Stats, error) {
	// The daemon reads TimeoutMS 0 as "forever": a positive timeout
	// below one millisecond must not truncate into it.
	ms := timeout.Milliseconds()
	if timeout > 0 && ms == 0 {
		ms = 1
	}
	resp, err := c.Call(context.Background(), &proto.Request{Op: proto.OpWait, TaskID: taskID, TimeoutMS: ms})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, c.errNoStats()
	}
	return statsOf(resp.Stats), nil
}

// Status fetches a task's current stats without blocking. A Failed
// task yields its stats and a nil error — the stats carry the failure,
// as in the C API's norns_error.
func (c *Client) Status(taskID uint64) (Stats, error) {
	req := &proto.Request{Op: proto.OpTaskStatus, PID: c.pid, TaskID: taskID}
	resp, err := c.conn.Call(context.Background(), req)
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		if resp.Status != proto.Success {
			return Stats{}, c.apiError(resp)
		}
		return Stats{}, c.errNoStats()
	}
	return statsOf(resp.Stats), nil
}

// Cancel requests a task's abortion and returns the snapshot taken
// right after the request was applied.
func (c *Client) Cancel(taskID uint64) (Stats, error) {
	resp, err := c.Call(context.Background(), &proto.Request{Op: proto.OpCancel, TaskID: taskID})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, c.errNoStats()
	}
	return statsOf(resp.Stats), nil
}

// BatchResult is one entry's outcome in a SubmitBatch call: a live
// handle on acceptance, or the per-entry rejection (errors.Is matches
// apierr.ErrAgain for backpressure — resubmit just those entries).
type BatchResult struct {
	Handle *TaskHandle
	Err    error
}

// handleProgressMS is the progress-tick rate requested for handle
// subscriptions and Events streams; the daemon may throttle further.
const handleProgressMS = 100

// SubmitBatch queues many tasks in a single RPC that also subscribes to
// them. Acceptance is per entry, and the returned slice aligns with
// specs. Accepted handles resolve from the subscription's pushed
// events; no status polling is involved. An error is returned when the
// batch as a whole could not be submitted or subscribed; in the latter
// case the results still name the accepted tasks, whose handles are
// already failed with that error.
func (c *Client) SubmitBatch(ctx context.Context, specs []proto.TaskSpec) ([]BatchResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	c.startDispatch()
	// Widen the event-parking bound for the duration of the batch: every
	// accepted task's terminal event may land before this function has
	// registered the handles, and each one must survive parking.
	c.mu.Lock()
	c.expectParked += len(specs)
	c.expectSubs++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.expectParked -= len(specs)
		c.expectSubs--
		c.mu.Unlock()
	}()
	// One RPC carries the specs AND the subscription: the daemon
	// attaches it before any task becomes runnable, so no event can be
	// missed and no snapshots are needed. Terminal-only: the handles
	// resolve on outcomes (plus progress ticks); pending/running
	// transitions would only burn push frames.
	resp, err := c.Call(ctx, &proto.Request{
		Op: proto.OpSubmitBatch, Tasks: specs,
		Subscribe: &proto.SubscribeSpec{ProgressMS: handleProgressMS, TerminalOnly: true},
	})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("%s: batch of %d returned %d results", c.api, len(specs), len(resp.Results))
	}
	out := make([]BatchResult, len(specs))
	accepted := 0
	for i := range resp.Results {
		r := &resp.Results[i]
		if proto.StatusCode(r.Status) != proto.Success {
			out[i].Err = c.apiError(&proto.Response{Status: proto.StatusCode(r.Status), Error: r.Error})
			continue
		}
		out[i].Handle = c.track(r.TaskID)
		accepted++
	}
	if accepted == 0 {
		return out, nil
	}
	if resp.SubID == 0 {
		// The daemon attaches the subscription to any accepted task
		// unless its event hub is closing, in which case no event will
		// ever come: fail the handles now so Done/Err stay truthful.
		err := fmt.Errorf("%s: batch accepted without a subscription", c.api)
		for _, r := range out {
			if r.Handle != nil {
				c.release(r.Handle)
				r.Handle.fail(err)
			}
		}
		return out, err
	}
	// Replay anything the subscription's pump pushed ahead of this
	// response into the handles and route the rest by task ID.
	c.adoptSub(resp.SubID)
	return out, nil
}

// Watch follows a task until it reaches a terminal state and returns
// the terminal stats. fn, when non-nil, receives the task's latest
// snapshot at most once per interval while it changes, and always the
// terminal one. Watch registers a TaskHandle before it subscribes, so
// the terminal transition cannot be lost, and it costs zero status
// polls.
func (c *Client) Watch(taskID uint64, interval time.Duration, fn func(Stats)) (Stats, error) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	c.startDispatch()
	h := c.track(taskID)
	// Sub-millisecond intervals still want ticks; the daemon floors the
	// rate. The subscription snapshots the task's current state.
	resp, err := c.Call(context.Background(), &proto.Request{
		Op:        proto.OpSubscribe,
		Subscribe: &proto.SubscribeSpec{TaskIDs: []uint64{taskID}, ProgressMS: max(interval.Milliseconds(), 1)},
	})
	if err != nil {
		c.release(h)
		return Stats{}, err
	}
	// The subscription's events route to the handle by task ID; gap
	// markers and anything arriving after the handle is spent are
	// dropped. The daemon reaps the subscription after the terminal
	// event, so there is nothing to unsubscribe.
	c.discardSub(resp.SubID)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var shown Stats
	for {
		select {
		case <-h.Done():
			st := h.Stats()
			if !st.Status.Terminal() {
				return Stats{}, h.Err() // the connection failed
			}
			if fn != nil {
				fn(st)
			}
			return st, nil
		case <-tick.C:
			if st := h.Stats(); fn != nil && st != shown {
				shown = st
				fn(st)
			}
		}
	}
}

// ErrCancelled is returned by TaskHandle.Err for cancelled tasks.
var ErrCancelled = errors.New("norns: task cancelled")
