package mercury

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/ngioproject/norns-go/internal/bufpool"
	"github.com/ngioproject/norns-go/internal/wire"
)

// ErrRPCTimeout reports an RPC or bulk stream that exceeded the class's
// configured deadline (SetRPCTimeout) waiting on the peer. The endpoint
// is failed as a side effect: a peer that stopped responding mid-stream
// cannot be trusted with the connection's framing, so later lookups
// redial.
var ErrRPCTimeout = errors.New("mercury: rpc deadline exceeded")

// Endpoint is an outbound connection to a remote Class. It supports
// concurrent pipelined RPCs and bulk operations, matched by sequence
// number.
type Endpoint struct {
	class *Class
	conn  net.Conn
	addr  string
	// brk is the per-address circuit breaker shared by every slot to
	// this address; nil when breaking is disabled on the class.
	brk *breaker

	w *connWriter

	mu      sync.Mutex
	pending map[uint64]chan message
	nextSeq uint64
	err     error
	closed  bool

	// failed is closed (once) when the endpoint fails; waiters select on
	// it instead of on closed pending channels, so the readLoop can keep
	// blocking-sends (the bulk flow-control mechanism) without ever
	// racing a channel close.
	failed chan struct{}
}

func newEndpoint(c *Class, conn net.Conn, addr string) *Endpoint {
	ep := &Endpoint{
		class:   c,
		conn:    conn,
		addr:    addr,
		brk:     c.breakerFor(addr),
		w:       newConnWriter(conn),
		pending: make(map[uint64]chan message),
		failed:  make(chan struct{}),
	}
	go ep.readLoop()
	return ep
}

// Addr returns the remote address.
func (ep *Endpoint) Addr() string { return ep.addr }

// bulkReadAhead is how many received chunks one pull may queue ahead
// of its consumer: 1 MiB at the default chunk size. Past it the read
// loop blocks and TCP backpressure throttles the sender.
const bulkReadAhead = 4

func (ep *Endpoint) readLoop() {
	fr := wire.NewFrameReader(ep.conn)
	// One message decodes every frame and travels by value: a fresh one
	// handed to the Unmarshaler interface would cost a heap object per
	// frame.
	m := new(message)
	for {
		msg, frame, err := fr.ReadPooledFrame()
		if err == nil {
			*m = message{}
			err = wire.Unmarshal(msg, m)
		}
		if err != nil {
			ep.fail(errEndpointClosed)
			return
		}
		if m.Kind == kindBulkData && frame != nil {
			// The chunk stays in the frame it landed in; the consumer
			// releases the frame once the chunk is written out.
			m.frame = frame
		} else {
			// Other payloads (RPC responses) outlive their frame, which
			// is the reader's scratch or goes straight back to the pool.
			m.Payload = append([]byte(nil), m.Payload...)
			if frame != nil {
				bufpool.Put(frame)
			}
		}
		ep.mu.Lock()
		ch := ep.pending[m.Seq]
		ep.mu.Unlock()
		if ch == nil {
			m.release()
			continue
		}
		// Blocking send is the bulk flow control (TCP backpressure when
		// the consumer is slower); the failed arm releases the loop if
		// the endpoint is torn down while the consumer is gone —
		// channels are never closed, so this cannot panic.
		select {
		case ch <- *m:
		case <-ep.failed:
			m.release()
		}
	}
}

func (ep *Endpoint) fail(err error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.err == nil {
		ep.err = err
		close(ep.failed)
	}
}

func (ep *Endpoint) broken() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.err != nil || ep.closed
}

// register allocates a sequence number with a response channel buffered
// for streaming bulk data.
func (ep *Endpoint) register(buffer int) (uint64, chan message, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.err != nil {
		return 0, nil, ep.err
	}
	if ep.closed {
		return 0, nil, errEndpointClosed
	}
	ep.nextSeq++
	ch := make(chan message, buffer)
	ep.pending[ep.nextSeq] = ch
	return ep.nextSeq, ch, nil
}

func (ep *Endpoint) unregister(seq uint64, ch chan message) {
	ep.mu.Lock()
	delete(ep.pending, seq)
	ep.mu.Unlock()
	// A consumer that stops early (a failed destination write, a
	// timeout) leaves chunks queued, and the read loop may be blocked
	// delivering one more. Draining makes room for that last send, so a
	// full channel nobody reads can never wedge the connection. The
	// drained chunks' frames fall to the GC.
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// recv waits for one message on ch, bounded by the class's RPC timeout
// when one is configured. A timeout fails the endpoint and closes the
// connection so the stuck readLoop exits and later lookups redial.
// Messages already buffered are drained before the failure signal is
// honored, so a response that won the race is never discarded.
func (ep *Endpoint) recv(ch chan message, timer *rpcTimer) (message, error) {
	select {
	case m := <-ch:
		return m, nil
	default:
	}
	if timer == nil {
		select {
		case m := <-ch:
			return m, nil
		case <-ep.failed:
			return message{}, ep.waitErr()
		}
	}
	select {
	case m := <-ch:
		return m, nil
	case <-ep.failed:
		return message{}, ep.waitErr()
	case <-timer.c():
		ep.fail(ErrRPCTimeout)
		ep.conn.Close()
		return message{}, ErrRPCTimeout
	}
}

// waitErr reports why a pending channel closed: the recorded endpoint
// failure (e.g. a concurrent RPC's timeout) or a plain teardown.
func (ep *Endpoint) waitErr() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.err != nil {
		return ep.err
	}
	return errEndpointClosed
}

// rpcTimer is a resettable deadline for one RPC exchange; nil when the
// class has no timeout configured.
type rpcTimer struct {
	t *time.Timer
	d time.Duration
}

func (ep *Endpoint) newTimer() *rpcTimer {
	d := ep.class.rpcTimeout
	if d <= 0 {
		return nil
	}
	return &rpcTimer{t: time.NewTimer(d), d: d}
}

func (t *rpcTimer) c() <-chan time.Time { return t.t.C }

// reset re-arms the deadline — bulk streams reset per chunk so the bound
// is on peer silence, not total stream duration.
func (t *rpcTimer) reset() {
	if !t.t.Stop() {
		select {
		case <-t.t.C:
		default:
		}
	}
	t.t.Reset(t.d)
}

func (t *rpcTimer) stop() {
	if t != nil {
		t.t.Stop()
	}
}

// Forward issues an RPC and waits for its response payload, bounded by
// the class's RPC timeout when one is configured.
func (ep *Endpoint) Forward(name string, payload []byte) ([]byte, error) {
	return ep.forward(name, payload, ep.class.rpcTimeout)
}

// ForwardNoDeadline issues an RPC with the class's RPC timeout
// suppressed. It exists for RPCs whose response legitimately takes as
// long as a bulk transfer (the pull request of a send, which only
// answers once the peer has pulled everything); callers are expected
// to provide their own liveness signal — the urd network manager
// watches bulk activity on the exposed handle.
func (ep *Endpoint) ForwardNoDeadline(name string, payload []byte) ([]byte, error) {
	return ep.forward(name, payload, 0)
}

// ForwardMarshal issues an RPC whose request payload is encoded into a
// pooled buffer that lives exactly as long as the send — the zero-copy
// replacement for Forward(name, wire.Marshal(m)), which allocated and
// copied the payload on every call.
func (ep *Endpoint) ForwardMarshal(name string, m wire.Marshaler) ([]byte, error) {
	return ep.forwardMarshal(name, m, ep.class.rpcTimeout)
}

// ForwardMarshalNoDeadline is ForwardMarshal with the class's RPC
// timeout suppressed (see ForwardNoDeadline).
func (ep *Endpoint) ForwardMarshalNoDeadline(name string, m wire.Marshaler) ([]byte, error) {
	return ep.forwardMarshal(name, m, 0)
}

func (ep *Endpoint) forwardMarshal(name string, m wire.Marshaler, timeout time.Duration) ([]byte, error) {
	e := wire.GetEncoder()
	m.MarshalWire(e)
	out, err := ep.forward(name, e.Buffer(), timeout)
	// The payload was consumed by the send (forward's WriteMessage
	// copies it into the frame buffer before returning); the response
	// wait does not reference it, so the encoder can go back to the pool
	// even on the error paths.
	wire.PutEncoder(e)
	return out, err
}

// breakerAllow gates one exchange through the endpoint's breaker;
// breakerSuccess / breakerFailure report its outcome. All are no-ops
// when breaking is disabled. Only transport-level outcomes feed the
// breaker — an app-level error string means the peer answered, which is
// health, not failure.
func (ep *Endpoint) breakerAllow() error {
	if ep.brk == nil {
		return nil
	}
	return ep.brk.allow()
}

func (ep *Endpoint) breakerSuccess() {
	if ep.brk != nil {
		ep.brk.success()
	}
}

func (ep *Endpoint) breakerFailure() {
	if ep.brk != nil {
		ep.brk.failure()
	}
}

func (ep *Endpoint) forward(name string, payload []byte, timeout time.Duration) ([]byte, error) {
	if err := ep.breakerAllow(); err != nil {
		return nil, fmt.Errorf("mercury: rpc %q: %w", name, err)
	}
	if h := ep.class.faultHook(); h != nil {
		if err := h(ep.addr, name); err != nil {
			ep.breakerFailure()
			return nil, fmt.Errorf("mercury: rpc %q: %w", name, err)
		}
	}
	seq, ch, err := ep.register(1)
	if err != nil {
		ep.breakerFailure()
		return nil, err
	}
	defer ep.unregister(seq, ch)
	if err := ep.w.send(&message{Seq: seq, Kind: kindRPCRequest, Name: name, Payload: payload}); err != nil {
		ep.fail(err)
		ep.breakerFailure()
		return nil, err
	}
	var timer *rpcTimer
	if timeout > 0 {
		timer = &rpcTimer{t: time.NewTimer(timeout), d: timeout}
	}
	defer timer.stop()
	m, err := ep.recv(ch, timer)
	if err != nil {
		ep.breakerFailure()
		return nil, fmt.Errorf("mercury: rpc %q: %w", name, err)
	}
	ep.breakerSuccess()
	if m.Err != "" {
		return nil, fmt.Errorf("mercury: rpc %q: %s", name, m.Err)
	}
	return m.Payload, nil
}

// BulkPull fetches [offset, offset+count) of the remote handle into dst
// starting at dst offset 0-relative positions (dst offsets mirror source
// offsets minus offset). count <= 0 pulls to the end of the handle.
// It returns the number of bytes pulled.
func (ep *Endpoint) BulkPull(h BulkHandle, offset, count int64, dst BulkProvider) (int64, error) {
	if err := ep.breakerAllow(); err != nil {
		return 0, fmt.Errorf("mercury: bulk pull: %w", err)
	}
	if hook := ep.class.faultHook(); hook != nil {
		if err := hook(ep.addr, "bulk.pull"); err != nil {
			ep.breakerFailure()
			return 0, fmt.Errorf("mercury: bulk pull: %w", err)
		}
	}
	seq, ch, err := ep.register(bulkReadAhead)
	if err != nil {
		ep.breakerFailure()
		return 0, err
	}
	defer ep.unregister(seq, ch)
	if err := ep.w.send(&message{Seq: seq, Kind: kindBulkPull, Handle: h.ID, Offset: offset, Count: count}); err != nil {
		ep.fail(err)
		ep.breakerFailure()
		return 0, err
	}
	timer := ep.newTimer()
	defer timer.stop()
	var got int64
	for {
		m, rerr := ep.recv(ch, timer)
		if rerr != nil {
			ep.breakerFailure()
			return got, fmt.Errorf("mercury: bulk pull: %w", rerr)
		}
		switch m.Kind {
		case kindBulkData:
			n := len(m.Payload)
			_, err := dst.WriteAt(m.Payload, m.Offset-offset)
			m.release()
			if err != nil {
				return got, err
			}
			got += int64(n)
			if timer != nil {
				timer.reset()
			}
		case kindBulkKeepalive:
			// The server's provider is slow (e.g. bandwidth-throttled) but
			// alive; only real silence should expire the stream.
			if timer != nil {
				timer.reset()
			}
		case kindBulkAck:
			ep.breakerSuccess()
			if m.Err != "" {
				return got, fmt.Errorf("mercury: bulk pull: %s", m.Err)
			}
			return got, nil
		}
	}
}

// BulkPush streams src into the remote handle starting at remote offset
// 0. It returns the number of bytes the remote acknowledged writing.
func (ep *Endpoint) BulkPush(h BulkHandle, src BulkProvider) (int64, error) {
	if err := ep.breakerAllow(); err != nil {
		return 0, fmt.Errorf("mercury: bulk push: %w", err)
	}
	seq, ch, err := ep.register(1)
	if err != nil {
		ep.breakerFailure()
		return 0, err
	}
	defer ep.unregister(seq, ch)
	if err := ep.w.send(&message{Seq: seq, Kind: kindBulkPush, Handle: h.ID}); err != nil {
		ep.fail(err)
		return 0, err
	}
	size := src.Size()
	bufp := bufpool.Get(ep.class.chunk)
	defer bufpool.Put(bufp)
	buf := *bufp
	for off := int64(0); off < size; {
		n := int64(len(buf))
		if size-off < n {
			n = size - off
		}
		read, rerr := src.ReadAt(buf[:n], off)
		if read > 0 {
			if err := ep.w.sendData(seq, off, buf[:read]); err != nil {
				ep.fail(err)
				ep.breakerFailure()
				return 0, err
			}
			off += int64(read)
		}
		if rerr != nil {
			break
		}
	}
	if err := ep.w.send(&message{Seq: seq, Kind: kindBulkAck}); err != nil {
		ep.fail(err)
		ep.breakerFailure()
		return 0, err
	}
	timer := ep.newTimer()
	defer timer.stop()
	m, err := ep.recv(ch, timer)
	if err != nil {
		ep.breakerFailure()
		return 0, fmt.Errorf("mercury: bulk push: %w", err)
	}
	ep.breakerSuccess()
	if m.Err != "" {
		return m.Count, fmt.Errorf("mercury: bulk push: %s", m.Err)
	}
	return m.Count, nil
}

// Close tears down the endpoint.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	ep.mu.Unlock()
	ep.conn.Close()
	ep.fail(errEndpointClosed)
}
