// Package norns is the user-level NORNS API (the norns_* functions of
// Table I): parallel applications running inside a batch job use it to
// query the dataspaces configured for them and to define, submit,
// monitor, and wait on asynchronous I/O tasks, as in the paper's
// Listing 2.
//
// The v2 surface is event-driven: SubmitBatch queues many tasks in one
// RPC and returns *TaskHandle values that resolve from server-pushed
// events (no polling), WaitAll/WaitAny compose handles under a
// context, and Events streams every task transition the daemon
// observes. The v1 calls (Submit, Wait, Error, Cancel) remain and keep
// speaking the original single-op protocol.
//
// The package is a thin facade over internal/api/client, which it
// shares with nornsctl: the connection, the event dispatcher, Stats,
// and TaskHandle all live there.
package norns

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/api/client"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
)

// Re-exported task kinds, mirroring NORNS_IOTASK_*.
const (
	Copy   = task.Copy
	Move   = task.Move
	Remove = task.Remove
	NoOp   = task.NoOp
)

// MemoryRegion mirrors NORNS_MEMORY_REGION(buffer, size).
func MemoryRegion(buf []byte) task.Resource { return task.MemoryRegion(buf) }

// PosixPath mirrors NORNS_POSIX_PATH(nsid, path).
func PosixPath(dataspace, path string) task.Resource {
	return task.PosixPath(dataspace, path)
}

// RemotePosixPath mirrors NORNS_REMOTE_PATH(host, nsid, path).
func RemotePosixPath(node, dataspace, path string) task.Resource {
	return task.RemotePosixPath(node, dataspace, path)
}

// IOTask is a client-side task descriptor (norns_iotask_t).
type IOTask struct {
	ID     uint64
	Kind   task.Kind
	Input  task.Resource
	Output task.Resource
	// Priority is a hint to priority-based queue policies.
	Priority int
	// Deadline, when positive, bounds the task's execution to this long
	// after the daemon accepts it; past it the task fails with a
	// deadline-exceeded error instead of running indefinitely.
	Deadline time.Duration
}

// NewIOTask mirrors NORNS_IOTASK(op, input, output).
func NewIOTask(kind task.Kind, input, output task.Resource) IOTask {
	return IOTask{Kind: kind, Input: input, Output: output}
}

// Stats is the norns_stat_t completion report with the transfer
// engine's live progress, cache, delta, and retry fields.
type Stats = client.Stats

// DataspaceInfo describes one dataspace visible to the caller.
type DataspaceInfo struct {
	ID        string
	Backend   uint32
	Mount     string
	Capacity  int64
	UsedBytes int64
}

// Typed error sentinels. Every failed response satisfies errors.Is
// against the sentinel matching its status code, so callers branch
// programmatically — errors.Is(err, norns.ErrAgain) is the retry
// signal under backpressure — instead of string-matching.
var (
	ErrAgain      = apierr.ErrAgain
	ErrBadRequest = apierr.ErrBadRequest
	ErrNoSuchTask = apierr.ErrNoSuchTask
	ErrExists     = apierr.ErrExists
	ErrPermission = apierr.ErrPermission
	ErrTaskError  = apierr.ErrTaskError
	ErrInternal   = apierr.ErrInternal
	// ErrTimeout matches the error Wait returns when its timeout
	// elapses first; apierr.IsRetryable accepts it.
	ErrTimeout = apierr.ErrTimeout
	// ErrCancelled is returned by TaskHandle.Err for cancelled tasks.
	ErrCancelled = client.ErrCancelled
)

// Client speaks the user protocol to a urd daemon.
type Client struct {
	c *client.Client
}

// Dial connects to the daemon's user socket.
func Dial(socket string) (*Client, error) {
	return DialNetwork("unix", socket)
}

// DialNetwork connects over an explicit network ("unix" or "tcp").
func DialNetwork(network, addr string) (*Client, error) {
	c, err := client.Dial("norns", network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// SetPID overrides the credential sent with requests; tests use it to
// simulate multiple client processes from one test binary.
func (c *Client) SetPID(pid uint64) { c.c.SetPID(pid) }

// Close tears the connection down.
func (c *Client) Close() error { return c.c.Close() }

func specOf(t *IOTask) *proto.TaskSpec {
	spec := new(proto.TaskSpec)
	fillSpec(t, spec)
	return spec
}

// fillSpec writes t's wire spec into dst — the batch path fills the
// request's spec slice in place instead of allocating a TaskSpec per
// task only to copy it.
func fillSpec(t *IOTask, dst *proto.TaskSpec) {
	*dst = proto.TaskSpec{
		Kind:       uint32(t.Kind),
		Input:      proto.FromResource(t.Input),
		Output:     proto.FromResource(t.Output),
		Priority:   int64(t.Priority),
		DeadlineMS: t.Deadline.Milliseconds(),
	}
}

// Submit mirrors norns_submit: the task is queued asynchronously and its
// ID is stored in t.
func (c *Client) Submit(t *IOTask) error {
	id, err := c.c.Submit(specOf(t))
	if err != nil {
		return err
	}
	t.ID = id
	return nil
}

// Wait mirrors norns_wait(task, timeout): it blocks until the task
// reaches a terminal state. timeout <= 0 waits forever; otherwise an
// error matching ErrTimeout reports that the timeout elapsed first.
func (c *Client) Wait(t *IOTask, timeout time.Duration) error {
	_, err := c.c.Wait(t.ID, timeout)
	return err
}

// Error mirrors norns_error(task, stats): it fetches the task's current
// statistics. A Failed task yields stats with Status == task.Failed and
// a nil error — matching the C API, where the stats carry the failure.
func (c *Client) Error(t *IOTask) (Stats, error) {
	return c.c.Status(t.ID)
}

// Cancel mirrors norns_cancel: it requests the task's abortion. A
// pending task is cancelled immediately; a running task is interrupted
// at its next chunk boundary (poll with Error or block with Wait to
// observe the terminal state). Cancelling an already-terminal task
// fails with NORNS_EBADREQUEST. The returned stats are the snapshot
// taken right after the request was applied.
func (c *Client) Cancel(t *IOTask) (Stats, error) {
	return c.c.Cancel(t.ID)
}

// GetDataspaceInfo mirrors norns_get_dataspace_info.
func (c *Client) GetDataspaceInfo() ([]DataspaceInfo, error) {
	resp, err := c.c.Call(context.Background(), &proto.Request{Op: proto.OpGetDataspaceInfo})
	if err != nil {
		return nil, err
	}
	out := make([]DataspaceInfo, 0, len(resp.Dataspaces))
	for _, ds := range resp.Dataspaces {
		out = append(out, DataspaceInfo{
			ID:        ds.ID,
			Backend:   ds.Backend,
			Mount:     ds.Mount,
			Capacity:  ds.Capacity,
			UsedBytes: ds.UsedBytes,
		})
	}
	return out, nil
}

// SubmitAsync issues a submit without waiting for the daemon's reply;
// the returned function resolves it. The figure-4 throughput benchmark
// uses this to keep multiple requests in flight per client.
func (c *Client) SubmitAsync(t *IOTask) (func() error, error) {
	ch, err := c.c.Send(context.Background(), &proto.Request{Op: proto.OpSubmit, Task: specOf(t)})
	if err != nil {
		return nil, err
	}
	return func() error {
		resp, err := c.c.Receive(context.Background(), ch)
		if err != nil {
			return err
		}
		t.ID = resp.TaskID
		return nil
	}, nil
}

// ---------------------------------------------------------------------
// v2 event-driven API: batch submission, task handles, subscriptions.

// TaskHandle tracks one submitted task and resolves from server-pushed
// events (no polling); see client.TaskHandle.
type TaskHandle = client.TaskHandle

// BatchResult is one entry's outcome in a SubmitBatch call: a live
// handle on acceptance, or the per-entry rejection (errors.Is matches
// ErrAgain for backpressure — resubmit just those entries).
type BatchResult = client.BatchResult

// EventKind identifies what a TaskEvent reports.
type EventKind = client.EventKind

// Event kinds surfaced by Events.
const (
	// EventState is a task life-cycle transition.
	EventState = client.EventState
	// EventProgress is a rate-limited progress tick for a running task.
	EventProgress = client.EventProgress
	// EventGap reports that events were coalesced because the consumer
	// fell behind (daemon- or client-side); Dropped carries the count.
	// Reconcile with Error if exact history matters.
	EventGap = client.EventGap
)

// TaskEvent is one entry in an Events stream.
type TaskEvent = client.TaskEvent

// SubmitBatch queues many tasks in a single RPC. Acceptance is per
// entry — one full shard rejects its entry with ErrAgain while the
// rest of the batch is queued — and the returned slice aligns with
// tasks (accepted entries also get their ID stored in the IOTask).
// Accepted handles resolve via a server-push subscription opened by
// the same call; no status polling is involved. An error is returned
// only when the batch as a whole could not be submitted or subscribed.
func (c *Client) SubmitBatch(ctx context.Context, tasks []*IOTask) ([]BatchResult, error) {
	specs := make([]proto.TaskSpec, len(tasks))
	for i, t := range tasks {
		fillSpec(t, &specs[i])
	}
	out, err := c.c.SubmitBatch(ctx, specs)
	for i, r := range out {
		if r.Handle != nil {
			tasks[i].ID = r.Handle.ID()
		}
	}
	return out, err
}

// SubmitTask queues one task through the v2 path and returns its
// handle (a batch of one).
func (c *Client) SubmitTask(ctx context.Context, t *IOTask) (*TaskHandle, error) {
	res, err := c.SubmitBatch(ctx, []*IOTask{t})
	if err != nil {
		return nil, err
	}
	if res[0].Err != nil {
		return nil, res[0].Err
	}
	return res[0].Handle, nil
}

// WaitAll blocks until every handle resolves or the context is done.
// It returns the context's error on cancellation, otherwise the
// handles' terminal errors joined (nil when every task finished).
func (c *Client) WaitAll(ctx context.Context, handles ...*TaskHandle) error {
	for _, h := range handles {
		if h == nil {
			continue
		}
		select {
		case <-h.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	var errs []error
	for _, h := range handles {
		if h == nil {
			continue
		}
		if err := h.Err(); err != nil {
			errs = append(errs, fmt.Errorf("task %d: %w", h.ID(), err))
		}
	}
	return errors.Join(errs...)
}

// WaitAny blocks until one of the handles resolves, returning its
// index, or until the context is done (index -1, ctx.Err()). Nil
// handles (rejected batch entries) are skipped, as in WaitAll.
func (c *Client) WaitAny(ctx context.Context, handles ...*TaskHandle) (int, error) {
	live := 0
	for i, h := range handles {
		if h == nil {
			continue
		}
		live++
		// Fast path: something already resolved.
		select {
		case <-h.Done():
			return i, nil
		default:
		}
	}
	if live == 0 {
		return -1, errors.New("norns: WaitAny without (non-nil) handles")
	}
	agg := make(chan int)
	stop := make(chan struct{})
	defer close(stop)
	for i, h := range handles {
		if h == nil {
			continue
		}
		go func(i int, done <-chan struct{}) {
			select {
			case <-done:
				select {
				case agg <- i:
				case <-stop:
				}
			case <-stop:
			}
		}(i, h.Done())
	}
	select {
	case i := <-agg:
		return i, nil
	case <-ctx.Done():
		return -1, ctx.Err()
	}
}

// Events subscribes to every task transition the daemon observes —
// submissions, dispatches, terminal states, and throttled progress
// ticks — and streams them until the context is done or the
// connection fails (the channel is then closed). Delivery never blocks
// the daemon or the client's other traffic: if the consumer falls
// behind, events are coalesced into one EventGap entry carrying the
// drop count.
func (c *Client) Events(ctx context.Context) (<-chan TaskEvent, error) {
	return c.c.Events(ctx)
}
