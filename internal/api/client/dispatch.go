package client

import (
	"context"
	"sync"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/transport"
)

// TaskHandle tracks one task. It resolves from server-pushed events —
// state transitions and throttled progress ticks arrive on the client's
// connection — so observing a task costs zero status polls.
type TaskHandle struct {
	id uint64
	// refs counts the registrations sharing this handle (a batch entry
	// plus any concurrent Watch calls of the same task). Guarded by the
	// owning Client's mu.
	refs int

	mu    sync.Mutex
	stats Stats
	err   error
	// done is materialized lazily (most handles resolve from the push
	// stream before anyone blocks on them, and then Done hands out the
	// shared closed channel instead of allocating one per task).
	done chan struct{}
	over bool
}

// closedChan is the shared pre-closed channel resolved handles return
// from Done when no waiter ever materialized a private one.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// ID returns the daemon-assigned task ID.
func (h *TaskHandle) ID() uint64 { return h.id }

// Done returns a channel closed when the task reaches a terminal state
// (or the connection fails, in which case Err reports it).
func (h *TaskHandle) Done() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done == nil {
		if h.over {
			h.done = closedChan
		} else {
			h.done = make(chan struct{})
		}
	}
	return h.done
}

// Stats returns the latest snapshot pushed by the daemon: live
// progress while the task runs, the final report once Done is closed.
func (h *TaskHandle) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// Err reports the task's terminal outcome: nil for a finished task,
// ErrCancelled for a cancelled one, an ErrTaskError-matching error for
// a failure, the connection error if the daemon became unreachable —
// and nil while the task is still in flight (check Done first).
func (h *TaskHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// statusRank orders life-cycle states for staleness detection: a
// client can hold several subscriptions covering one task (an Events
// stream plus a batch subscription), whose pumps are independent — so
// an older event can arrive after a newer one.
func statusRank(s task.Status) int {
	switch s {
	case task.Pending:
		return 0
	case task.Running:
		return 1
	case task.Cancelling:
		return 2
	default: // terminal
		return 3
	}
}

// apply folds one pushed event into the handle, resolving it on
// terminal transitions. Stale events — an earlier life-cycle state, or
// regressed progress within the same state, delivered late by another
// subscription's pump — are ignored so Stats() stays monotonic. It
// reports whether the handle is spent.
func (h *TaskHandle) apply(st Stats, api string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.over {
		return true
	}
	if nr, cr := statusRank(st.Status), statusRank(h.stats.Status); nr < cr ||
		(nr == cr && st.MovedBytes < h.stats.MovedBytes) {
		return false
	}
	h.stats = st
	switch st.Status {
	case task.Finished:
		// err stays nil
	case task.Failed:
		h.err = &apierr.Error{API: api, Code: proto.ETaskError, Msg: st.Err}
	case task.Cancelled:
		h.err = ErrCancelled
	default:
		return false // still in flight
	}
	h.over = true
	if h.done != nil {
		close(h.done)
	}
	return true
}

// fail resolves a handle that can no longer receive events (connection
// loss) with the given error.
func (h *TaskHandle) fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.over {
		return
	}
	h.err = err
	h.over = true
	if h.done != nil {
		close(h.done)
	}
}

// EventKind identifies what a TaskEvent reports.
type EventKind uint32

// Event kinds surfaced by Events.
const (
	// EventState is a task life-cycle transition.
	EventState = EventKind(proto.EvState)
	// EventProgress is a rate-limited progress tick for a running task.
	EventProgress = EventKind(proto.EvProgress)
	// EventGap reports that events were coalesced because the consumer
	// fell behind (daemon- or client-side); Dropped carries the count.
	// Reconcile with a status call if exact history matters.
	EventGap = EventKind(proto.EvGap)
)

// TaskEvent is one entry in an Events stream.
type TaskEvent struct {
	TaskID  uint64
	Kind    EventKind
	Stats   Stats
	Dropped uint64
}

// eventSink fans dispatched events to one Events consumer without ever
// blocking the dispatch loop: overflow is dropped and surfaced as a
// client-side gap event once the consumer catches up.
type eventSink struct {
	ch      chan TaskEvent
	dropped uint64
}

// unclaimed caps for events that arrive before their subscription's
// response has been processed (the daemon's pump and the response
// writer race on the wire): per subscription, and across
// subscriptions, beyond which the oldest parked subscription is
// dropped wholesale. Steady state is empty — every subscribe path
// claims or discards its SubID as soon as its RPC returns.
const (
	unclaimedPerSub = 256
	unclaimedSubs   = 8
)

// discardedCap bounds the settled-SubID memory; past it the oldest
// entry is forgotten (its events then fall back to bounded parking).
const discardedCap = 128

// startDispatch launches the shared event dispatch goroutine (idempotent).
func (c *Client) startDispatch() {
	c.dispatchOnce.Do(func() {
		c.mu.Lock()
		c.handles = make(map[uint64]*TaskHandle)
		c.sinks = make(map[uint64]*eventSink)
		c.unclaimed = make(map[uint64][]TaskEvent)
		c.discarded = make(map[uint64]struct{})
		c.dispatchDone = make(chan struct{})
		c.mu.Unlock()
		events := c.conn.Events()
		go func() {
			defer close(c.dispatchDone)
			for ev := range events {
				c.dispatch(ev)
			}
			// Connection gone: resolve every open handle with the
			// error and release Events consumers.
			c.mu.Lock()
			c.dispatchDead = true
			handles, sinks := c.handles, c.sinks
			c.handles, c.sinks = make(map[uint64]*TaskHandle), make(map[uint64]*eventSink)
			c.unclaimed, c.unclaimedIDs = make(map[uint64][]TaskEvent), nil
			c.mu.Unlock()
			for _, h := range handles {
				h.fail(transport.ErrConnClosed)
			}
			for _, s := range sinks {
				close(s.ch)
			}
		}()
	})
}

// dispatch routes one pushed event: task handles resolve by task ID,
// Events sinks match by subscription ID. Events for a SubID with no
// sink yet are parked (bounded) until the subscribing RPC claims or
// discards them.
func (c *Client) dispatch(ev proto.Event) {
	var st Stats
	if ev.HasStats {
		st = statsOf(&ev.Stats)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	handled := false
	if proto.EventKind(ev.Kind) != proto.EvGap {
		handled = c.applyHandleLocked(ev.TaskID, st)
	}
	sink, ok := c.sinks[ev.SubID]
	if !ok {
		// Parking exists so an Events stream's first pushes (racing its
		// OpSubscribe response) are not lost. An event that already
		// found its consumer — a registered task handle — has nothing
		// left to deliver: batch subscriptions discard their SubID on
		// return, so parking those events only to throw them away was
		// pure allocation churn on the submit hot path.
		if handled {
			return
		}
		if _, settled := c.discarded[ev.SubID]; !settled {
			c.parkLocked(ev.SubID, TaskEvent{TaskID: ev.TaskID, Kind: EventKind(ev.Kind), Stats: st, Dropped: ev.Dropped})
		}
		return
	}
	c.forwardLocked(sink, TaskEvent{TaskID: ev.TaskID, Kind: EventKind(ev.Kind), Stats: st, Dropped: ev.Dropped})
}

// applyHandleLocked folds one event into the task's handle (if any),
// reporting whether a handle consumed it. Caller holds c.mu.
func (c *Client) applyHandleLocked(taskID uint64, st Stats) bool {
	h, ok := c.handles[taskID]
	if !ok {
		return false
	}
	if h.apply(st, c.api) {
		delete(c.handles, taskID)
	}
	return true
}

// adoptSub replays a combined-batch subscription's parked events into
// the just-registered handles, then retires the SubID: later events
// route by task ID through the normal dispatch path. This closes the
// race where the daemon's pump delivers terminal events before the
// client has processed the batch response that names the tasks.
func (c *Client) adoptSub(subID uint64) {
	c.mu.Lock()
	for _, te := range c.takeUnclaimedLocked(subID) {
		if te.Kind != EventGap {
			c.applyHandleLocked(te.TaskID, te.Stats)
		}
	}
	c.discardLocked(subID)
	c.mu.Unlock()
}

// forwardLocked hands one event to a sink without blocking, folding
// overflow into a client-side gap marker delivered once space frees.
func (c *Client) forwardLocked(sink *eventSink, te TaskEvent) {
	if sink.dropped > 0 {
		// Deliver the gap marker first so ordering reads
		// "…events…, gap, …events…" at the consumer.
		select {
		case sink.ch <- TaskEvent{Kind: EventGap, Dropped: sink.dropped}:
			sink.dropped = 0
		default:
			sink.dropped++
			return
		}
	}
	select {
	case sink.ch <- te:
	default:
		sink.dropped++
	}
}

// parkLocked buffers an event for a not-yet-claimed subscription,
// evicting the oldest parked subscription past the global bound.
func (c *Client) parkLocked(subID uint64, te TaskEvent) {
	evs, known := c.unclaimed[subID]
	if !known {
		if len(c.unclaimedIDs) >= unclaimedSubs+c.expectSubs {
			oldest := c.unclaimedIDs[0]
			c.unclaimedIDs = c.unclaimedIDs[1:]
			delete(c.unclaimed, oldest)
		}
		c.unclaimedIDs = append(c.unclaimedIDs, subID)
	}
	// State events are what handles and streams hang on — a combined
	// batch's terminal events must never be crowded out of the park by
	// a burst of progress ticks, or WaitAll would block forever. Ticks
	// respect the base cap; state events are admitted up to a wider
	// ceiling bounded by the outstanding batches' task counts.
	limit := unclaimedPerSub + c.expectParked
	if te.Kind == EventState {
		limit += c.expectParked
	}
	if len(evs) < limit {
		c.unclaimed[subID] = append(evs, te)
	}
}

// claimSink registers a sink for a subscription and replays anything
// that arrived ahead of the subscribe response, in order. A sink
// claimed after the dispatcher exited is closed on the spot so its
// consumer unblocks instead of hanging on a dead connection.
func (c *Client) claimSink(subID uint64, sink *eventSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dispatchDead {
		close(sink.ch)
		return
	}
	for _, te := range c.takeUnclaimedLocked(subID) {
		c.forwardLocked(sink, te)
	}
	c.sinks[subID] = sink
}

// discardSub drops a subscription's parked events and remembers the
// SubID so its future events are dropped too — its traffic is routed
// another way (handles resolve by task ID) or nowhere (an ended Events
// stream).
func (c *Client) discardSub(subID uint64) {
	c.mu.Lock()
	c.takeUnclaimedLocked(subID)
	c.discardLocked(subID)
	c.mu.Unlock()
}

// discardLocked marks a SubID settled. Caller holds c.mu.
func (c *Client) discardLocked(subID uint64) {
	if _, ok := c.discarded[subID]; !ok {
		if len(c.discardedRing) >= discardedCap {
			oldest := c.discardedRing[0]
			c.discardedRing = c.discardedRing[1:]
			delete(c.discarded, oldest)
		}
		c.discarded[subID] = struct{}{}
		c.discardedRing = append(c.discardedRing, subID)
	}
}

func (c *Client) takeUnclaimedLocked(subID uint64) []TaskEvent {
	evs, ok := c.unclaimed[subID]
	if !ok {
		return nil
	}
	delete(c.unclaimed, subID)
	for i, id := range c.unclaimedIDs {
		if id == subID {
			c.unclaimedIDs = append(c.unclaimedIDs[:i], c.unclaimedIDs[i+1:]...)
			break
		}
	}
	return evs
}

// track returns the handle routing taskID's events, registering a new
// one unless a live handle for the task exists already (concurrent
// watches share it). Registration happens under the lock the
// dispatcher takes, so no event for the task can slip past it; a
// handle registered after the dispatcher exited is failed on the spot.
func (c *Client) track(taskID uint64) *TaskHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.handles[taskID]
	if !ok {
		h = &TaskHandle{id: taskID, stats: Stats{Status: task.Pending}}
		if c.dispatchDead {
			h.fail(transport.ErrConnClosed)
		} else {
			c.handles[taskID] = h
		}
	}
	h.refs++
	return h
}

// release drops one registration of a handle whose subscription could
// not be opened; the last one unregisters it, since no event will ever
// come to evict it.
func (c *Client) release(h *TaskHandle) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.refs--; h.refs == 0 && c.handles[h.id] == h {
		delete(c.handles, h.id)
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
	c.startDispatch()
	resp, err := c.Call(ctx, &proto.Request{
		Op:        proto.OpSubscribe,
		Subscribe: &proto.SubscribeSpec{All: true, ProgressMS: handleProgressMS},
	})
	if err != nil {
		return nil, err
	}
	sink := &eventSink{ch: make(chan TaskEvent, 128)}
	// claimSink also replays any events the daemon pushed before this
	// response was processed, preserving order.
	c.claimSink(resp.SubID, sink)
	go func() {
		select {
		case <-ctx.Done():
		case <-c.dispatchDone:
			return // dispatcher closed the sink already
		}
		c.mu.Lock()
		_, live := c.sinks[resp.SubID]
		delete(c.sinks, resp.SubID)
		c.mu.Unlock()
		if !live {
			return
		}
		// Events still in flight until the unsubscribe lands must be
		// dropped, not parked for a consumer that is gone.
		c.discardSub(resp.SubID)
		// Best-effort: tell the daemon to stop pushing. The connection
		// may be long-lived, so do not leak the subscription.
		uctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, _ = c.Call(uctx, &proto.Request{Op: proto.OpUnsubscribe, SubID: resp.SubID})
		cancel()
		close(sink.ch)
	}()
	return sink.ch, nil
}
