package mercury

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/ngioproject/norns-go/internal/bufpool"
	"github.com/ngioproject/norns-go/internal/wire"
)

// DefaultBulkChunk is the frame size bulk transfers are split into.
// 256 KiB keeps frames well under wire.MaxMessageSize while amortizing
// framing cost.
const DefaultBulkChunk = 256 << 10

// DefaultBulkKeepalive is how often a pull stream emits keepalive
// frames while its provider read is blocked (e.g. waiting on a
// bandwidth governor), so the pulling peer's idle deadline measures
// real silence rather than throttling. Must stay comfortably below any
// sane RPC timeout.
const DefaultBulkKeepalive = 500 * time.Millisecond

// RPCHandler serves one named RPC: it receives the request payload and
// returns the response payload.
type RPCHandler func(payload []byte) ([]byte, error)

// BulkProvider is a memory region or file exposed for one-sided bulk
// access.
type BulkProvider interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the exposed region's length in bytes.
	Size() int64
}

// ConcurrentReaderAt is an optional BulkProvider capability: providers
// whose ReadAt serves concurrent random offsets efficiently report
// true, and senders advertise multi-stream pulls only for them. A
// provider without the method (or reporting false) is assumed to be a
// sequential adapter that interleaved segment reads would thrash.
type ConcurrentReaderAt interface {
	ConcurrentReadAt() bool
}

// MemRegion is a BulkProvider over a byte slice.
type MemRegion struct {
	mu  sync.RWMutex
	buf []byte
}

// NewMemRegion returns a provider over buf (not copied).
func NewMemRegion(buf []byte) *MemRegion { return &MemRegion{buf: buf} }

// ReadAt implements io.ReaderAt.
func (m *MemRegion) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off < 0 || off > int64(len(m.buf)) {
		return 0, fmt.Errorf("mercury: read offset %d out of range", off)
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (m *MemRegion) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(m.buf)) {
		return 0, fmt.Errorf("mercury: write [%d,%d) out of range", off, off+int64(len(p)))
	}
	return copy(m.buf[off:], p), nil
}

// Size implements BulkProvider.
func (m *MemRegion) Size() int64 { return int64(len(m.buf)) }

// ConcurrentReadAt implements ConcurrentReaderAt.
func (m *MemRegion) ConcurrentReadAt() bool { return true }

// Bytes returns the underlying buffer.
func (m *MemRegion) Bytes() []byte { return m.buf }

// BulkHandle names an exposed region so that a remote peer can pull from
// or push to it. Handles are serializable and travel inside RPC
// payloads, exactly like Mercury bulk descriptors.
type BulkHandle struct {
	Addr string // the exposing class's listen address
	ID   uint64
	Len  int64
}

// MarshalWire implements wire.Marshaler.
func (h *BulkHandle) MarshalWire(e *wire.Encoder) {
	e.String(1, h.Addr)
	e.Uint64(2, h.ID)
	e.Int64(3, h.Len)
}

// UnmarshalWire implements wire.Unmarshaler.
func (h *BulkHandle) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			h.Addr = d.String()
		case 2:
			h.ID = d.Uint64()
		case 3:
			h.Len = d.Int64()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// Class is a mercury instance: it owns the NA plugin, the RPC registry,
// the exposed bulk handles, and the listen address. One Class per urd
// network manager.
type Class struct {
	plugin Plugin

	mu       sync.RWMutex
	handlers map[string]RPCHandler
	bulk     map[uint64]BulkProvider
	nextBulk uint64
	addr     string
	listener net.Listener
	closed   bool

	chunk      int
	rpcTimeout time.Duration
	keepalive  time.Duration

	connMu sync.Mutex
	conns  map[string]*Endpoint

	// Circuit-breaker state: per-address health trackers shared by all
	// connection slots to that address, plus the lab's deterministic
	// fault injector. See breaker.go.
	brkMu        sync.Mutex
	breakers     map[string]*breaker
	brkThreshold int
	brkCooldown  time.Duration
	fault        func(addr, name string) error

	inMu    sync.Mutex
	inbound map[net.Conn]struct{}

	wg sync.WaitGroup
}

// NewClass returns a Class over the named NA plugin.
func NewClass(pluginName string) (*Class, error) {
	p, err := LookupPlugin(pluginName)
	if err != nil {
		return nil, err
	}
	return &Class{
		plugin:    p,
		handlers:  make(map[string]RPCHandler),
		bulk:      make(map[uint64]BulkProvider),
		conns:     make(map[string]*Endpoint),
		inbound:   make(map[net.Conn]struct{}),
		chunk:     DefaultBulkChunk,
		keepalive: DefaultBulkKeepalive,
	}, nil
}

// SetBulkKeepalive overrides the pull-stream keepalive interval
// (tests; <=0 is ignored). Set before serving traffic.
func (c *Class) SetBulkKeepalive(d time.Duration) {
	if d > 0 {
		c.keepalive = d
	}
}

// SetBulkChunk overrides the bulk chunk size (for the buffer-size
// ablation benchmark).
func (c *Class) SetBulkChunk(n int) {
	if n > 0 && n <= wire.MaxMessageSize/2 {
		c.chunk = n
	}
}

// SetRPCTimeout bounds every outbound RPC wait and bulk-stream idle gap
// on this class's endpoints (0 disables, the default). A hung peer then
// surfaces as ErrRPCTimeout on the blocked call — and fails the endpoint
// so later calls redial — instead of wedging a transfer worker forever.
// Set it before issuing RPCs; it is read without synchronization.
func (c *Class) SetRPCTimeout(d time.Duration) {
	if d >= 0 {
		c.rpcTimeout = d
	}
}

// Register installs an RPC handler under name.
func (c *Class) Register(name string, h RPCHandler) {
	c.mu.Lock()
	c.handlers[name] = h
	c.mu.Unlock()
}

// Listen binds the class to an NA address and starts serving.
// It returns the bound address to advertise to peers.
func (c *Class) Listen(addr string) (string, error) {
	ln, err := c.plugin.Listen(addr)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.listener = ln
	c.addr = ln.Addr().String()
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.inMu.Lock()
			c.inbound[conn] = struct{}{}
			c.inMu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveConn(conn)
				c.inMu.Lock()
				delete(c.inbound, conn)
				c.inMu.Unlock()
			}()
		}
	}()
	return c.addr, nil
}

// Addr returns the bound listen address ("" before Listen).
func (c *Class) Addr() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.addr
}

// ExposeBulk registers provider and returns its handle.
func (c *Class) ExposeBulk(p BulkProvider) BulkHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextBulk++
	id := c.nextBulk
	c.bulk[id] = p
	return BulkHandle{Addr: c.addr, ID: id, Len: p.Size()}
}

// ReleaseBulk withdraws an exposed handle.
func (c *Class) ReleaseBulk(h BulkHandle) {
	c.mu.Lock()
	delete(c.bulk, h.ID)
	c.mu.Unlock()
}

func (c *Class) provider(id uint64) (BulkProvider, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.bulk[id]
	if !ok {
		return nil, fmt.Errorf("mercury: bulk handle %d not exposed", id)
	}
	return p, nil
}

// serveConn handles one inbound connection: RPC requests and bulk
// pulls/pushes, potentially interleaved.
func (c *Class) serveConn(conn net.Conn) {
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	w := newConnWriter(conn)
	// pushes tracks in-progress inbound bulk pushes by seq.
	pushes := make(map[uint64]*pushState)
	// Every frame is handled inline — a pushed chunk is written out
	// before the next read — so the payload aliases the frame, which is
	// recycled at the top of the next iteration. m is reused for the
	// same reason the endpoint read loop reuses its message.
	m := new(message)
	var frame *[]byte
	for {
		if frame != nil {
			bufpool.Put(frame)
		}
		msg, f, err := fr.ReadPooledFrame()
		if err != nil {
			return
		}
		frame = f
		*m = message{}
		if err := wire.Unmarshal(msg, m); err != nil {
			return
		}
		switch m.Kind {
		case kindRPCRequest:
			c.mu.RLock()
			h := c.handlers[m.Name]
			c.mu.RUnlock()
			req := *m
			// The handler runs past this frame's lifetime.
			req.Payload = append([]byte(nil), m.Payload...)
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				resp := message{Seq: req.Seq, Kind: kindRPCResponse}
				if h == nil {
					resp.Err = fmt.Sprintf("mercury: no handler for %q", req.Name)
				} else if out, err := h(req.Payload); err != nil {
					resp.Err = err.Error()
				} else {
					resp.Payload = out
				}
				if err := w.send(&resp); err != nil {
					conn.Close()
				}
			}()
		case kindBulkPull:
			req := *m
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				if err := c.serveBulkPull(&req, w); err != nil {
					conn.Close()
				}
			}()
		case kindBulkPush:
			p, err := c.provider(m.Handle)
			st := &pushState{provider: p}
			if err != nil {
				st.err = err.Error()
			}
			pushes[m.Seq] = st
		case kindBulkData:
			st, ok := pushes[m.Seq]
			if !ok {
				continue
			}
			if st.err == "" {
				if _, err := st.provider.WriteAt(m.Payload, m.Offset); err != nil {
					st.err = err.Error()
				} else {
					st.written += int64(len(m.Payload))
				}
			}
		case kindBulkAck: // client finished a push stream
			st, ok := pushes[m.Seq]
			if !ok {
				continue
			}
			delete(pushes, m.Seq)
			resp := message{Seq: m.Seq, Kind: kindBulkAck, Count: st.written, Err: st.err}
			if err := w.send(&resp); err != nil {
				return
			}
		}
	}
}

type pushState struct {
	provider BulkProvider
	written  int64
	err      string
}

// serveBulkPull streams the requested range in chunks, then an ack.
// While a provider read is slow — typically blocked on a bandwidth
// governor — keepalive frames go out so the pulling peer's idle
// deadline measures silence, not throttling.
func (c *Class) serveBulkPull(req *message, w *connWriter) error {
	p, err := c.provider(req.Handle)
	if err != nil {
		return w.send(&message{Seq: req.Seq, Kind: kindBulkAck, Err: err.Error()})
	}
	off, count := req.Offset, req.Count
	if count <= 0 {
		count = p.Size() - off
	}
	// One ticker, one reader goroutine and its channels serve the whole
	// pull (a spurious keepalive between chunks is harmless): a blocked
	// ReadAt cannot otherwise be waited on alongside the ticker, and a
	// goroutine per chunk would cost an allocation per chunk.
	type readReq struct {
		b  []byte
		at int64
	}
	type readResult struct {
		n   int
		err error
	}
	reqs := make(chan readReq)
	rc := make(chan readResult, 1)
	go func() {
		for r := range reqs {
			n, err := p.ReadAt(r.b, r.at)
			rc <- readResult{n, err}
		}
	}()
	defer close(reqs)
	tick := time.NewTicker(c.keepalive)
	defer tick.Stop()
	// The chunk buffer is pooled — except when a read is abandoned mid-
	// flight (keepalive send failed below): the orphaned goroutine still
	// writes into it, so it must fall to the GC instead of being handed
	// to the next stream.
	abandoned := false
	bufp := bufpool.Get(c.chunk)
	defer func() {
		if !abandoned {
			bufpool.Put(bufp)
		}
	}()
	readKeepalive := func(b []byte, at int64) (int, error) {
		reqs <- readReq{b, at}
		for {
			select {
			case r := <-rc:
				return r.n, r.err
			case <-tick.C:
				if err := w.send(&message{Seq: req.Seq, Kind: kindBulkKeepalive}); err != nil {
					// Connection gone; the in-flight read drains into the
					// buffered channel and the reader then exits on the
					// closed request channel. The caller returns
					// immediately, so the channel is never reused after
					// an abandoned read.
					abandoned = true
					return 0, err
				}
			}
		}
	}
	buf := *bufp
	var sent int64
	for sent < count {
		n := int64(len(buf))
		if count-sent < n {
			n = count - sent
		}
		read, rerr := readKeepalive(buf[:n], off+sent)
		if read > 0 {
			if err := w.sendData(req.Seq, off+sent, buf[:read]); err != nil {
				return err
			}
			sent += int64(read)
		}
		if rerr != nil {
			if rerr == io.EOF {
				break
			}
			return w.send(&message{Seq: req.Seq, Kind: kindBulkAck, Count: sent, Err: rerr.Error()})
		}
	}
	return w.send(&message{Seq: req.Seq, Kind: kindBulkAck, Count: sent})
}

// Lookup returns a (cached) endpoint for the given address.
func (c *Class) Lookup(addr string) (*Endpoint, error) {
	return c.LookupSlot(addr, 0)
}

// LookupSlot returns a (cached) endpoint for addr in the given
// connection slot. Distinct slots are distinct physical connections:
// parallel transfer streams use one slot each so segment pulls do not
// serialize behind a single connection's framing — the multi-stream
// staging model of the paper's bandwidth experiments. Slot 0 is the
// default connection Lookup uses.
func (c *Class) LookupSlot(addr string, slot int) (*Endpoint, error) {
	// An open breaker that has not cooled down fast-fails the lookup
	// before any dial: a known-dead peer should cost nothing. The check
	// never consumes the half-open probe — that belongs to the RPC that
	// will actually test the peer.
	brk := c.breakerFor(addr)
	if brk != nil && brk.fastFail() {
		return nil, ErrBreakerOpen
	}
	key := addr
	if slot != 0 {
		key = fmt.Sprintf("%s#%d", addr, slot)
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if ep, ok := c.conns[key]; ok && !ep.broken() {
		return ep, nil
	}
	conn, err := c.plugin.Dial(addr)
	if err != nil {
		if brk != nil {
			brk.failure()
		}
		return nil, err
	}
	ep := newEndpoint(c, conn, addr)
	c.conns[key] = ep
	return ep, nil
}

// Close shuts the class down: listener, inbound conns, outbound
// endpoints.
func (c *Class) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	ln := c.listener
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	c.inMu.Lock()
	for conn := range c.inbound {
		conn.Close()
	}
	c.inMu.Unlock()
	c.connMu.Lock()
	for _, ep := range c.conns {
		ep.Close()
	}
	c.conns = make(map[string]*Endpoint)
	c.connMu.Unlock()
	c.wg.Wait()
}

// errEndpointClosed reports a torn-down endpoint.
var errEndpointClosed = errors.New("mercury: endpoint closed")
