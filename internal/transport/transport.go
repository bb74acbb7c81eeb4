// Package transport carries NORNS protocol frames over AF_UNIX and TCP
// connections. It provides the daemon-side Server (the urd "accept
// thread": one reader goroutine per connection dispatching requests to
// handlers) and the client-side Conn with request pipelining, which the
// figure-4/figure-5 request-rate benchmarks drive with up to 16 RPCs in
// flight per client, as in the paper.
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/wire"
)

// PeerInfo describes the connection a request arrived on.
type PeerInfo struct {
	// Control is true when the request arrived on the control socket
	// (the nornsctl permission domain).
	Control bool
	// Addr is the remote address (empty for unix sockets).
	Addr string
	// Push writes an unsolicited server-push frame to this peer,
	// serialized with in-flight handler responses. Push frames carry
	// Seq 0 — a sequence no Call ever uses — so the client transport
	// demultiplexes them away from pipelined responses. Nil when the
	// request did not arrive over a real connection (in-process
	// dispatch); handlers that need push must reject then.
	Push func(resp *proto.Response) error
	// PushBatch writes several push frames with one gathered write —
	// one syscall for a whole burst of events instead of one each. Same
	// serialization and Seq-0 rules as Push; nil when Push is nil.
	PushBatch func(resps []*proto.Response) error
	// Closed is closed when the connection tears down, so push
	// producers (event subscription pumps) can stop. Nil for
	// in-process dispatch.
	Closed <-chan struct{}
}

// Handler processes one decoded request and returns the response.
// Handlers run on their own goroutine, so they may block (e.g. OpWait).
type Handler func(peer PeerInfo, req *proto.Request) *proto.Response

// Server accepts framed protocol connections and dispatches requests.
type Server struct {
	handler Handler
	control bool
	// fast reports requests safe to handle inline on the connection's
	// read loop (see SetFastPath). Immutable after Listen.
	fast func(*proto.Request) bool

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewServer returns a server dispatching to handler. control marks every
// connection accepted by this server as privileged, which is how the
// paper separates the control and user AF_UNIX sockets (distinct socket
// files with different file-system permissions).
func NewServer(handler Handler, control bool) *Server {
	return &Server{handler: handler, control: control, conns: make(map[net.Conn]struct{})}
}

// SetFastPath installs a predicate marking requests the server may
// handle inline on the connection's read goroutine instead of spawning
// a handler goroutine per request — the hot-path default for ops that
// never block (submit, status, subscribe). Inline requests on one
// connection serialize with each other, exactly like the pipelined
// responses they produce; ops that can block for unbounded time
// (OpWait) must stay off the fast path or they would stall every
// pipelined request behind them. Call before Listen; nil disables.
func (s *Server) SetFastPath(fn func(*proto.Request) bool) { s.fast = fn }

// Listen starts accepting on the given network ("unix" or "tcp") and
// address, returning the bound listener address.
func (s *Server) Listen(network, addr string) (net.Addr, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s %s: %w", network, addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("transport: server closed")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fr := wire.NewFrameReader(conn)
	fw := wire.NewFrameWriter(conn)
	var wmu sync.Mutex // serializes concurrent handler responses and pushes
	closed := make(chan struct{})
	defer close(closed)
	peer := PeerInfo{
		Control: s.control,
		Addr:    conn.RemoteAddr().String(),
		Closed:  closed,
		Push: func(resp *proto.Response) error {
			resp.Seq = 0 // push frames are unsolicited by definition
			wmu.Lock()
			err := fw.WriteMessage(resp)
			wmu.Unlock()
			if err != nil {
				conn.Close()
			}
			return err
		},
		PushBatch: func(resps []*proto.Response) error {
			wmu.Lock()
			var err error
			for _, resp := range resps {
				resp.Seq = 0
				if err = fw.AppendMessage(resp); err != nil {
					fw.Discard()
					break
				}
			}
			if err == nil {
				err = fw.Flush()
			}
			wmu.Unlock()
			if err != nil {
				conn.Close()
			}
			return err
		},
	}
	var hwg sync.WaitGroup
	defer hwg.Wait()
	serve := func(req *proto.Request) {
		resp := s.handler(peer, req)
		if resp == nil {
			resp = &proto.Response{Status: proto.EInternal, Error: "nil handler response"}
		}
		resp.Seq = req.Seq
		wmu.Lock()
		err := fw.WriteMessage(resp)
		wmu.Unlock()
		if err != nil {
			conn.Close()
		}
	}
	for {
		var req proto.Request
		if err := fr.ReadMessage(&req); err != nil {
			return // EOF or broken frame: drop the connection
		}
		if s.fast != nil && s.fast(&req) {
			// Non-blocking op: handle on the read loop — no goroutine
			// spawn, no request copy, responses in request order.
			serve(&req)
			continue
		}
		hwg.Add(1)
		go func(req proto.Request) {
			defer hwg.Done()
			serve(&req)
		}(req)
	}
}

// Close stops all listeners and connections and waits for in-flight
// handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ErrConnClosed is returned for requests on a closed client connection.
var ErrConnClosed = errors.New("transport: connection closed")

// eventBuffer is the capacity of the Events channel. The demultiplexer
// never blocks on it — a full buffer drops the event and counts it in
// DroppedEvents — so a consumer that drains promptly (the API clients
// run a dedicated dispatch goroutine) sees no loss while a stalled one
// cannot disturb in-flight Calls.
const eventBuffer = 1024

// Conn is a client connection supporting pipelined requests: many
// goroutines may Call concurrently and responses are matched by
// sequence number. Unsolicited server-push frames (Seq 0, carrying an
// Event) are demultiplexed onto the Events channel without disturbing
// pipelined responses.
type Conn struct {
	nc net.Conn
	fw *wire.FrameWriter

	wmu sync.Mutex // serializes frame writes

	mu        sync.Mutex
	pending   map[uint64]chan *proto.Response
	nextSeq   uint64
	err       error
	closed    bool
	events    chan proto.Event
	evDropped uint64
}

// Dial connects to a server ("unix" or "tcp").
func Dial(network, addr string) (*Conn, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s %s: %w", network, addr, err)
	}
	c := &Conn{
		nc:      nc,
		fw:      wire.NewFrameWriter(nc),
		pending: make(map[uint64]chan *proto.Response),
	}
	go c.readLoop()
	return c, nil
}

func (c *Conn) readLoop() {
	fr := wire.NewFrameReader(c.nc)
	// One decode scratch for the whole connection: push events are
	// delivered by value and responses are copied out below, so nothing
	// retains the struct itself across iterations — reusing it saves one
	// heap allocation per received frame (events dominate under the v2
	// push API).
	var resp proto.Response
	for {
		resp = proto.Response{}
		if err := fr.ReadMessage(&resp); err != nil {
			if err == io.EOF {
				err = ErrConnClosed
			}
			c.fail(err)
			return
		}
		if resp.Seq == 0 {
			// Unsolicited push frame: no Call ever uses Seq 0, so this
			// can only be a server-initiated event. Deliver it out of
			// band; frames without an event payload are dropped
			// silently, mirroring protobuf's unknown-field tolerance.
			if resp.HasEvent {
				c.deliverEvent(resp.Event)
			}
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.Seq]
		if ok {
			delete(c.pending, resp.Seq)
		}
		c.mu.Unlock()
		if ok {
			r := resp
			ch <- &r
		}
	}
}

// Events returns the channel unsolicited server-push events arrive on.
// The channel is closed when the connection fails or closes. Delivery
// is lossy by design: the demultiplexer never blocks, so if the
// consumer falls more than eventBuffer events behind, the overflow is
// dropped and counted (DroppedEvents) rather than stalling responses.
func (c *Conn) Events() <-chan proto.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.events == nil {
		c.events = make(chan proto.Event, eventBuffer)
		// fail() is the single closer of a live connection's channel.
		// Only when it has already run (err set) and thus could not see
		// this channel does Events close it. A Close in flight (closed
		// set, err not yet) is about to call fail, which will close it.
		if c.err != nil {
			close(c.events)
		}
	}
	return c.events
}

// PendingCalls reports the number of in-flight requests awaiting a
// response (diagnostics; abandoned calls are reaped immediately).
func (c *Conn) PendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// DroppedEvents reports how many push events were discarded because the
// Events channel was full.
func (c *Conn) DroppedEvents() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evDropped
}

func (c *Conn) deliverEvent(ev proto.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || c.closed {
		return // events channel is (being) closed
	}
	if c.events == nil {
		// No consumer registered; dropping unobserved events keeps a
		// v1-style client oblivious to a v2 daemon's pushes.
		c.evDropped++
		return
	}
	select {
	case c.events <- ev:
		return
	default:
	}
	// Full buffer: progress ticks are expendable, state transitions are
	// what handles and watchers hang on — shed the oldest queued event
	// (in practice a progress tick) to admit a state event.
	if proto.EventKind(ev.Kind) != proto.EvState {
		c.evDropped++
		return
	}
	select {
	case <-c.events:
		c.evDropped++
	default:
	}
	select {
	case c.events <- ev:
	default:
		c.evDropped++
	}
}

func (c *Conn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// A local Close: the read loop's "use of closed network
		// connection" is its echo, not the cause.
		err = ErrConnClosed
	}
	if c.err == nil {
		c.err = err
		if c.events != nil {
			close(c.events)
		}
	}
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		close(ch)
	}
}

// Call sends one request and blocks for its response or the context's
// cancellation, whichever comes first. A cancelled Call abandons the
// RPC — the connection stays usable and a late response is discarded —
// so a stuck daemon no longer wedges the caller.
func (c *Conn) Call(ctx context.Context, req *proto.Request) (*proto.Response, error) {
	ch, err := c.Send(ctx, req)
	if err != nil {
		return nil, err
	}
	return c.Receive(ctx, ch)
}

// Send issues a request without waiting; the returned channel yields the
// response. Use for pipelining multiple RPCs on one connection. An
// already-cancelled context fails fast without touching the wire.
func (c *Conn) Send(ctx context.Context, req *proto.Request) (<-chan *proto.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if c.closed {
		c.mu.Unlock()
		return nil, ErrConnClosed
	}
	c.nextSeq++
	req.Seq = c.nextSeq
	ch := make(chan *proto.Response, 1)
	c.pending[req.Seq] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := c.fw.WriteMessage(req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.Seq)
		c.mu.Unlock()
		c.fail(err)
		return nil, err
	}
	return ch, nil
}

// Receive waits on a Send channel, translating closed channels into the
// connection error. Context cancellation abandons the RPC: its pending
// entry is reaped immediately — a daemon that never answers cannot
// leak one map entry per abandoned call — and a response racing the
// cancellation is discarded (the channel is buffered, so the read loop
// never blocks on it).
func (c *Conn) Receive(ctx context.Context, ch <-chan *proto.Response) (*proto.Response, error) {
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrConnClosed
			}
			return nil, err
		}
		return resp, nil
	case <-ctx.Done():
		c.abandon(ch)
		return nil, ctx.Err()
	}
}

// abandon removes an in-flight request's pending entry by its response
// channel. The O(pending) scan only runs on the cancellation path.
func (c *Conn) abandon(ch <-chan *proto.Response) {
	c.mu.Lock()
	for seq, pch := range c.pending {
		if pch == ch {
			delete(c.pending, seq)
			break
		}
	}
	c.mu.Unlock()
}

// Close tears the connection down; in-flight requests fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.nc.Close()
	c.fail(ErrConnClosed)
	return err
}
