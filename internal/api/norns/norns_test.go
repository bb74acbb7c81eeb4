package norns_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/api/norns"
	"github.com/ngioproject/norns-go/internal/api/nornsctl"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/transport"
	"github.com/ngioproject/norns-go/internal/urd"
)

// harness starts a daemon with one memory dataspace and a registered
// job/process for the test's PID.
func harness(t *testing.T) (*norns.Client, *nornsctl.Client) {
	user, ctl, _ := harnessCfg(t, urd.Config{Workers: 2})
	return user, ctl
}

// harnessCfg starts a daemon with the given pipeline knobs (sockets and
// node name are filled in) and returns clients plus the daemon itself,
// so tests can assert on daemon-side gauges like StatusPolls.
func harnessCfg(t *testing.T, cfg urd.Config) (*norns.Client, *nornsctl.Client, *urd.Daemon) {
	t.Helper()
	dir := t.TempDir()
	cfg.NodeName = "apitest"
	cfg.UserSocket = filepath.Join(dir, "u.sock")
	cfg.ControlSocket = filepath.Join(dir, "c.sock")
	d, err := urd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	ctl, err := nornsctl.Dial(filepath.Join(dir, "c.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	if err := ctl.RegisterDataspace(nornsctl.DataspaceDef{ID: "tmp0://", Backend: nornsctl.BackendMemory}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.RegisterJob(nornsctl.JobDef{ID: 1, Hosts: []string{"apitest"},
		Limits: []nornsctl.JobLimit{{Dataspace: "tmp0://"}}}); err != nil {
		t.Fatal(err)
	}
	user, err := norns.Dial(filepath.Join(dir, "u.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { user.Close() })
	user.SetPID(777)
	if err := ctl.AddProcess(1, nornsctl.ProcDef{PID: 777, UID: 1, GID: 1}); err != nil {
		t.Fatal(err)
	}
	return user, ctl, d
}

func TestListing2Flow(t *testing.T) {
	user, _ := harness(t)
	tk := norns.NewIOTask(norns.Copy,
		norns.MemoryRegion([]byte("buffer")),
		norns.PosixPath("tmp0://", "path/to/output"))
	if err := user.Submit(&tk); err != nil {
		t.Fatalf("norns_submit: %v", err)
	}
	if err := user.Wait(&tk, 5*time.Second); err != nil {
		t.Fatalf("norns_wait: %v", err)
	}
	st, err := user.Error(&tk)
	if err != nil {
		t.Fatalf("norns_error: %v", err)
	}
	if st.Status != task.Finished || st.MovedBytes != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWaitTimeoutReturnsErrTimeout(t *testing.T) {
	// The bandwidth cap (4 MiB/s, 1 MiB burst) keeps the 4 MiB transfer
	// running for about 0.75 s, so a 1 ns wait must time out — and must
	// not be truncated to the daemon's "0 = wait forever".
	user, _, _ := harnessCfg(t, urd.Config{
		Workers: 1, MaxBandwidthBps: 4 << 20, BufSize: 64 << 10,
	})
	tk := norns.NewIOTask(norns.Copy, norns.MemoryRegion(make([]byte, 4<<20)), norns.PosixPath("tmp0://", "slow"))
	if err := user.Submit(&tk); err != nil {
		t.Fatal(err)
	}
	err := user.Wait(&tk, time.Nanosecond)
	if !errors.Is(err, norns.ErrTimeout) || !errors.Is(err, apierr.ErrTimeout) || !apierr.IsRetryable(err) {
		t.Fatalf("Wait(1ns) = %v, want a retryable ErrTimeout", err)
	}
	// Eventually it finishes.
	if err := user.Wait(&tk, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAsyncPipelining(t *testing.T) {
	user, _ := harness(t)
	const n = 32
	resolvers := make([]func() error, 0, n)
	tasks := make([]*norns.IOTask, 0, n)
	for i := 0; i < n; i++ {
		tk := norns.NewIOTask(norns.Copy,
			norns.MemoryRegion([]byte("x")),
			norns.PosixPath("tmp0://", fmt.Sprintf("async/%d", i)))
		resolve, err := user.SubmitAsync(&tk)
		if err != nil {
			t.Fatal(err)
		}
		resolvers = append(resolvers, resolve)
		tasks = append(tasks, &tk)
	}
	for i, resolve := range resolvers {
		if err := resolve(); err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
		if tasks[i].ID == 0 {
			t.Fatalf("task %d has no ID after resolve", i)
		}
	}
	for _, tk := range tasks {
		if err := user.Wait(tk, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGetDataspaceInfoThroughUserAPI(t *testing.T) {
	user, _ := harness(t)
	infos, err := user.GetDataspaceInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "tmp0://" {
		t.Fatalf("infos = %+v", infos)
	}
}

func TestErrorOnFailedTaskCarriesReason(t *testing.T) {
	user, ctl := harness(t)
	// Remove of a missing path fails at execution.
	id, err := ctl.Submit(task.Remove, task.PosixPath("tmp0://", "nope"), task.Resource{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Wait(id, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	tk := norns.IOTask{ID: id}
	st, err := user.Error(&tk)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != task.Failed || st.Err == "" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitValidationErrorSurfaced(t *testing.T) {
	user, _ := harness(t)
	// Memory output resources are rejected by task validation.
	tk := norns.NewIOTask(norns.Copy,
		norns.PosixPath("tmp0://", "src"),
		norns.MemoryRegion(make([]byte, 4)))
	err := user.Submit(&tk)
	if err == nil {
		t.Fatal("invalid task accepted")
	}
}

func TestDialMissingSocket(t *testing.T) {
	if _, err := norns.Dial(filepath.Join(t.TempDir(), "nope.sock")); err == nil {
		t.Fatal("Dial succeeded on missing socket")
	}
}

// TestBatchSubscribeNoPolling is the v2 acceptance test: one
// SubmitBatch RPC queues well over 100 tasks, and a subscribed client
// observes every terminal transition — Done fires on all handles with
// final stats — without the daemon serving a single OpTaskStatus poll.
// (The daemon counts status ops served; the v1 flow in the other tests
// proves the old protocol still works.)
func TestBatchSubscribeNoPolling(t *testing.T) {
	user, _, d := harnessCfg(t, urd.Config{Workers: 4})
	const n = 120
	tasks := make([]*norns.IOTask, n)
	for i := range tasks {
		tk := norns.NewIOTask(norns.Copy,
			norns.MemoryRegion([]byte("batch payload")),
			norns.PosixPath("tmp0://", fmt.Sprintf("batch/%d", i)))
		tasks[i] = &tk
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := user.SubmitBatch(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*norns.TaskHandle, 0, n)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("entry %d rejected: %v", i, r.Err)
		}
		if r.Handle == nil || r.Handle.ID() == 0 || tasks[i].ID != r.Handle.ID() {
			t.Fatalf("entry %d handle = %+v, task ID = %d", i, r.Handle, tasks[i].ID)
		}
		handles = append(handles, r.Handle)
	}
	if err := user.WaitAll(ctx, handles...); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		st := h.Stats()
		if st.Status != task.Finished || st.MovedBytes != int64(len("batch payload")) {
			t.Fatalf("task %d stats = %+v", h.ID(), st)
		}
		if h.Err() != nil {
			t.Fatalf("task %d err = %v", h.ID(), h.Err())
		}
	}
	if polls := d.StatusPolls(); polls != 0 {
		t.Fatalf("daemon served %d status polls for an event-driven client", polls)
	}
}

// TestBatchPartialAcceptance: a bounded shard rejects overflow entries
// with ErrAgain while accepting the rest of the same batch — the
// per-entry EAGAIN contract.
func TestBatchPartialAcceptance(t *testing.T) {
	user, _, _ := harnessCfg(t, urd.Config{Workers: 1, MaxShardQueue: 2})
	const n = 50
	tasks := make([]*norns.IOTask, n)
	payload := make([]byte, 1<<20)
	for i := range tasks {
		tk := norns.NewIOTask(norns.Copy,
			norns.MemoryRegion(payload),
			norns.PosixPath("tmp0://", fmt.Sprintf("over/%d", i)))
		tasks[i] = &tk
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := user.SubmitBatch(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []*norns.TaskHandle
	rejected := 0
	for i, r := range results {
		switch {
		case r.Err == nil:
			accepted = append(accepted, r.Handle)
		case errors.Is(r.Err, norns.ErrAgain):
			rejected++
		default:
			t.Fatalf("entry %d failed with %v, want ErrAgain", i, r.Err)
		}
	}
	// One running + two queued ensures at least one acceptance; a
	// 50-entry burst against a 2-slot queue ensures rejections.
	if len(accepted) == 0 || rejected == 0 {
		t.Fatalf("accepted %d rejected %d, want both non-zero", len(accepted), rejected)
	}
	if err := user.WaitAll(ctx, accepted...); err != nil {
		t.Fatal(err)
	}
}

// TestTaskHandleFailureAndCancel: handles resolve failures to
// ErrTaskError-matching errors and cancellations to ErrCancelled.
func TestTaskHandleFailureAndCancel(t *testing.T) {
	user, _, _ := harnessCfg(t, urd.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Remove of a missing path fails at execution.
	doomed := norns.NewIOTask(norns.Remove, norns.PosixPath("tmp0://", "missing"), task.Resource{})
	h, err := user.SubmitTask(ctx, &doomed)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-ctx.Done():
		t.Fatal("handle never resolved")
	}
	if err := h.Err(); !errors.Is(err, norns.ErrTaskError) {
		t.Fatalf("failed task Err = %v, want ErrTaskError match", err)
	}
	if st := h.Stats(); st.Status != task.Failed || st.Err == "" {
		t.Fatalf("failed task stats = %+v", st)
	}

	// A cancelled task resolves to ErrCancelled. The throttled daemon
	// below makes the transfer slow enough that the cancel reliably
	// lands mid-flight; the admin-side cancel also exercises the
	// cross-client event path.
	user2, ctl2, _ := harnessCfg(t, urd.Config{
		Workers: 1, MaxBandwidthBps: 64 << 10, BufSize: 16 << 10,
	})
	victim := norns.NewIOTask(norns.Copy,
		norns.MemoryRegion(make([]byte, 4<<20)),
		norns.PosixPath("tmp0://", "victim"))
	vh, err := user2.SubmitTask(ctx, &victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl2.Cancel(vh.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-vh.Done():
	case <-ctx.Done():
		t.Fatal("cancelled handle never resolved")
	}
	if err := vh.Err(); !errors.Is(err, norns.ErrCancelled) {
		t.Fatalf("cancelled task Err = %v, want ErrCancelled", err)
	}
	if st := vh.Stats(); st.Status != task.Cancelled {
		t.Fatalf("cancelled task stats = %+v", st)
	}
}

// TestWaitAny returns as soon as one handle resolves.
func TestWaitAny(t *testing.T) {
	user, _, _ := harnessCfg(t, urd.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	quick := norns.NewIOTask(norns.NoOp, task.Resource{}, task.Resource{})
	slow := norns.NewIOTask(norns.Copy,
		norns.MemoryRegion(make([]byte, 8<<20)),
		norns.PosixPath("tmp0://", "slow"))
	// Submit the slow one first so the single worker is busy with it.
	sh, err := user.SubmitTask(ctx, &slow)
	if err != nil {
		t.Fatal(err)
	}
	qh, err := user.SubmitTask(ctx, &quick)
	if err != nil {
		t.Fatal(err)
	}
	if i, err := user.WaitAny(ctx, sh, qh); err != nil || i < 0 {
		t.Fatalf("WaitAny = %d, %v", i, err)
	}
	if err := user.WaitAll(ctx, sh, qh); err != nil {
		t.Fatal(err)
	}
	// WaitAny on already-resolved handles returns immediately.
	if i, err := user.WaitAny(ctx, sh, qh); err != nil || i < 0 {
		t.Fatalf("WaitAny(resolved) = %d, %v", i, err)
	}
}

// TestEventsStream: an all-tasks subscription observes another
// client's submissions through to their terminal states.
func TestEventsStream(t *testing.T) {
	user, ctl, _ := harnessCfg(t, urd.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, err := user.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Submit through the admin API: the events still reach the user
	// connection's subscription.
	id, err := ctl.Submit(task.Copy, task.MemoryRegion([]byte("observed")), task.PosixPath("tmp0://", "ev"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawPending, sawTerminal := false, false
	for !sawTerminal {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("events channel closed early")
			}
			if ev.TaskID != id {
				continue
			}
			if ev.Kind == norns.EventState && ev.Stats.Status == task.Pending {
				sawPending = true
			}
			if ev.Kind == norns.EventState && ev.Stats.Status.Terminal() {
				if ev.Stats.Status != task.Finished || ev.Stats.MovedBytes != int64(len("observed")) {
					t.Fatalf("terminal event = %+v", ev.Stats)
				}
				sawTerminal = true
			}
		case <-ctx.Done():
			t.Fatal("no terminal event")
		}
	}
	if !sawPending {
		t.Fatal("submission event not observed")
	}
	cancel()
	// The stream closes once the context ends.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("events channel not closed after context cancellation")
		}
	}
}

// TestTypedErrors: failed responses satisfy errors.Is against the
// exported sentinels instead of demanding string matching.
func TestTypedErrors(t *testing.T) {
	user, ctl, _ := harnessCfg(t, urd.Config{Workers: 1})
	// Unknown task -> ErrNoSuchTask.
	unknown := norns.IOTask{ID: 99999}
	if err := user.Wait(&unknown, time.Second); !errors.Is(err, norns.ErrNoSuchTask) {
		t.Fatalf("Wait(unknown) = %v, want ErrNoSuchTask", err)
	}
	// Cancelling a finished task -> ErrBadRequest.
	tk := norns.NewIOTask(norns.NoOp, task.Resource{}, task.Resource{})
	if err := user.Submit(&tk); err != nil {
		t.Fatal(err)
	}
	if err := user.Wait(&tk, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := user.Cancel(&tk); !errors.Is(err, norns.ErrBadRequest) {
		t.Fatalf("Cancel(finished) = %v, want ErrBadRequest", err)
	}
	// Duplicate dataspace -> ErrExists via the admin client.
	if err := ctl.RegisterDataspace(nornsctl.DataspaceDef{ID: "tmp0://", Backend: nornsctl.BackendMemory}); !errors.Is(err, nornsctl.ErrExists) {
		t.Fatalf("duplicate register = %v, want ErrExists", err)
	}
	// The rendered form keeps the historical shape.
	if err := user.Wait(&unknown, time.Second); err == nil || !strings.Contains(err.Error(), "NORNS_ENOTFOUND") {
		t.Fatalf("error text = %v", err)
	}
}

// TestSubscriptionWatch: the admin Watch rides the push subscription —
// zero status polls — and still reports live progress and the terminal
// state.
func TestSubscriptionWatch(t *testing.T) {
	_, ctl, d := harnessCfg(t, urd.Config{Workers: 2})
	id, err := ctl.Submit(task.Copy, task.MemoryRegion(make([]byte, 2<<20)), task.PosixPath("tmp0://", "w"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	st, err := ctl.Watch(id, 10*time.Millisecond, func(nornsctl.Stats) { snaps++ })
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != task.Finished || st.MovedBytes != 2<<20 {
		t.Fatalf("terminal stats = %+v", st)
	}
	if snaps == 0 {
		t.Fatal("watch callback never invoked")
	}
	if polls := d.StatusPolls(); polls != 0 {
		t.Fatalf("watch caused %d status polls", polls)
	}

	// A callback slower than the interval on a bandwidth-capped copy:
	// the terminal transition still reaches Watch, without polling.
	_, ctl2, d2 := harnessCfg(t, urd.Config{
		Workers: 1, MaxBandwidthBps: 4 << 20, BufSize: 64 << 10,
	})
	id, err = ctl2.Submit(task.Copy, task.MemoryRegion(make([]byte, 4<<20)), task.PosixPath("tmp0://", "w"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err = ctl2.Watch(id, 5*time.Millisecond, func(nornsctl.Stats) { time.Sleep(50 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != task.Finished || st.MovedBytes != 4<<20 {
		t.Fatalf("slow-callback terminal stats = %+v", st)
	}
	if polls := d2.StatusPolls(); polls != 0 {
		t.Fatalf("slow-callback watch caused %d status polls", polls)
	}
}

// TestConcurrentWatches: Watch calls sharing one admin client — two
// tasks, plus a second watch of the first task — must each observe
// their task's terminal state: the dispatcher routes by task ID into a
// handle, so no watch can steal or drop another's events.
func TestConcurrentWatches(t *testing.T) {
	_, ctl, d := harnessCfg(t, urd.Config{
		Workers: 2, MaxBandwidthBps: 4 << 20, BufSize: 64 << 10,
	})
	ids := make([]uint64, 2)
	for i := range ids {
		id, err := ctl.Submit(task.Copy, task.MemoryRegion(make([]byte, 1<<20)),
			task.PosixPath("tmp0://", fmt.Sprintf("cw/%d", i)), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	type outcome struct {
		st  nornsctl.Stats
		err error
	}
	watched := append(ids, ids[0])
	results := make(chan outcome, len(watched))
	for _, id := range watched {
		go func(id uint64) {
			st, err := ctl.Watch(id, 20*time.Millisecond, nil)
			results <- outcome{st, err}
		}(id)
	}
	for range watched {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.st.Status != task.Finished || r.st.MovedBytes != 1<<20 {
				t.Fatalf("terminal stats = %+v", r.st)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("a concurrent watch never resolved")
		}
	}
	if polls := d.StatusPolls(); polls != 0 {
		t.Fatalf("concurrent watches caused %d status polls", polls)
	}
}

// TestSubscribeToExpiredDeadlineTask: subscribing to a still-pending
// task whose deadline already lapsed expires it and delivers the
// failure — with another subscriber live, which once self-deadlocked
// the hub (the expiry published from inside the subscribe path).
func TestSubscribeToExpiredDeadlineTask(t *testing.T) {
	user, ctl, _ := harnessCfg(t, urd.Config{
		Workers: 1, MaxBandwidthBps: 64 << 10, BufSize: 16 << 10,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A live all-tasks subscription keeps the hub's publish path hot.
	if _, err := user.Events(ctx); err != nil {
		t.Fatal(err)
	}
	// Occupy the single worker, then queue a task on the same shard
	// (same mem->tmp0:// route) with a deadline that lapses while it
	// waits behind the hog.
	hogID, err := ctl.Submit(task.Copy, task.MemoryRegion(make([]byte, 2<<20)),
		task.PosixPath("tmp0://", "hog"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Cancel(hogID) // fast daemon drain at cleanup
	id, err := ctl.SubmitTask(task.Copy, task.MemoryRegion([]byte("late")),
		task.PosixPath("tmp0://", "late"), nornsctl.SubmitOptions{DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the deadline lapse while queued
	st, err := ctl.Watch(id, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != task.Failed || !strings.Contains(st.Err, "deadline") {
		t.Fatalf("expired task stats = %+v", st)
	}
}

// TestSubmitBatchWithoutSubscriptionFailsHandles drives SubmitBatch
// against a shim that strips the Subscribe field from OpSubmitBatch
// requests, so the response carries SubID 0 — what urd answers when its
// event hub is closing. No event can ever resolve the accepted handles:
// SubmitBatch must report an error, fail every handle at once, and not
// try a separate OpSubscribe.
func TestSubmitBatchWithoutSubscriptionFailsHandles(t *testing.T) {
	dir := t.TempDir()
	cfg := urd.Config{
		NodeName:      "oldd",
		ControlSocket: filepath.Join(dir, "c.sock"),
		Workers:       2,
	}
	d, err := urd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	var subscribes atomic.Int32
	shim := transport.NewServer(func(peer transport.PeerInfo, req *proto.Request) *proto.Response {
		switch req.Op {
		case proto.OpSubmitBatch:
			req.Subscribe = nil
		case proto.OpSubscribe:
			subscribes.Add(1)
		}
		return d.Handle(peer, req)
	}, false)
	addr, err := shim.Listen("unix", filepath.Join(dir, "u.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shim.Close)
	ctl, err := nornsctl.Dial(cfg.ControlSocket)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	if err := ctl.RegisterJob(nornsctl.JobDef{ID: 1, Hosts: []string{"oldd"}}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddProcess(1, nornsctl.ProcDef{PID: 777}); err != nil {
		t.Fatal(err)
	}
	c, err := norns.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetPID(777)

	tasks := make([]*norns.IOTask, 24)
	for i := range tasks {
		tk := norns.NewIOTask(norns.NoOp, norns.MemoryRegion(nil), norns.MemoryRegion(nil))
		tasks[i] = &tk
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	results, err := c.SubmitBatch(ctx, tasks)
	if err == nil {
		t.Fatal("SubmitBatch without a subscription returned no error")
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results for %d tasks", len(results), len(tasks))
	}
	deadline := time.After(time.Second)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("entry %d: %v", i, r.Err)
		}
		select {
		case <-r.Handle.Done():
		case <-deadline:
			t.Fatalf("handle %d not failed within 1s", i)
		}
		if r.Handle.Err() == nil {
			t.Fatalf("handle %d resolved without an error", i)
		}
	}
	if n := subscribes.Load(); n != 0 {
		t.Fatalf("client sent %d OpSubscribe requests", n)
	}
}

// TestManyConcurrentBatchesOneClient drives more concurrent
// SubmitBatch calls through one client than the parking table's base
// capacity (unclaimedSubs): each combined submit+subscribe batch can
// have all its terminal events pushed ahead of its response, and an
// eviction of any batch's parked events would strand its handles
// unresolved. The widened eviction cap (expectSubs) must keep every
// in-flight batch's parked subscription alive.
func TestManyConcurrentBatchesOneClient(t *testing.T) {
	c, _ := harness(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const batches = 12 // > unclaimedSubs (8)
	errs := make(chan error, batches)
	for b := 0; b < batches; b++ {
		go func() {
			tasks := make([]*norns.IOTask, 8)
			for i := range tasks {
				tk := norns.NewIOTask(norns.NoOp, norns.MemoryRegion(nil), norns.MemoryRegion(nil))
				tasks[i] = &tk
			}
			results, err := c.SubmitBatch(ctx, tasks)
			if err != nil {
				errs <- err
				return
			}
			handles := make([]*norns.TaskHandle, 0, len(results))
			for i, r := range results {
				if r.Err != nil {
					errs <- fmt.Errorf("entry %d: %w", i, r.Err)
					return
				}
				handles = append(handles, r.Handle)
			}
			errs <- c.WaitAll(ctx, handles...)
		}()
	}
	for b := 0; b < batches; b++ {
		if err := <-errs; err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
}
