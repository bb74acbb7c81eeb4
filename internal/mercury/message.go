package mercury

import (
	"io"
	"sync"

	"github.com/ngioproject/norns-go/internal/bufpool"
	"github.com/ngioproject/norns-go/internal/wire"
)

// message kinds on a mercury connection.
const (
	kindRPCRequest  = 1
	kindRPCResponse = 2
	kindBulkPull    = 3 // request a range of an exposed handle
	kindBulkPush    = 4 // announce incoming data for an exposed handle
	kindBulkData    = 5 // one chunk of bulk payload
	kindBulkAck     = 6 // terminates a bulk stream, carries total bytes
	// kindBulkKeepalive marks a pull stream alive while the serving
	// provider is slow (bandwidth-throttled reads): the peer resets its
	// idle deadline and otherwise ignores it. Old peers skip unknown
	// kinds, so the frame is wire-compatible.
	kindBulkKeepalive = 7
)

// payloadTag is the field number of message.Payload. It is the last
// field a data frame carries, which lets a bulk chunk follow its header
// in a gathered write (see connWriter.sendData).
const payloadTag = 7

// message is the single frame type exchanged on mercury connections.
//
// A decoded Payload aliases the frame it was read from. Receivers copy
// the payloads that outlive their frame (RPC requests and responses);
// a bulk data chunk instead travels in the pooled frame buffer it
// landed in, owned by whoever holds the message, and release hands
// that buffer back once the chunk has been written out.
type message struct {
	Seq     uint64
	Kind    uint32
	Name    string // RPC name for kindRPCRequest
	Handle  uint64 // bulk handle ID
	Offset  int64
	Count   int64
	Payload []byte
	Err     string

	frame *[]byte // pooled buffer Payload aliases; nil when not owned
}

// release returns the message's frame buffer to the pool. The caller
// must be its owner and must not touch Payload afterwards.
func (m *message) release() {
	if m.frame != nil {
		bufpool.Put(m.frame)
		m.frame = nil
	}
}

// MarshalWire implements wire.Marshaler.
func (m *message) MarshalWire(e *wire.Encoder) {
	e.Uint64(1, m.Seq)
	e.Uint32(2, m.Kind)
	if m.Name != "" {
		e.String(3, m.Name)
	}
	if m.Handle != 0 {
		e.Uint64(4, m.Handle)
	}
	if m.Offset != 0 {
		e.Int64(5, m.Offset)
	}
	if m.Count != 0 {
		e.Int64(6, m.Count)
	}
	if len(m.Payload) > 0 {
		e.Bytes(payloadTag, m.Payload)
	}
	if m.Err != "" {
		e.String(8, m.Err)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *message) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Seq = d.Uint64()
		case 2:
			m.Kind = d.Uint32()
		case 3:
			m.Name = d.String()
		case 4:
			m.Handle = d.Uint64()
		case 5:
			m.Offset = d.Int64()
		case 6:
			m.Count = d.Int64()
		case payloadTag:
			m.Payload = d.Bytes()
		case 8:
			m.Err = d.String()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// connWriter serializes the frames of every goroutine sharing one
// connection.
type connWriter struct {
	mu sync.Mutex
	fw *wire.FrameWriter
	// hdr is the header of the data frame being written, reused under
	// mu: passing a pointer into this long-lived struct through the
	// Marshaler interface is what keeps a chunk send allocation-free.
	hdr message
}

func newConnWriter(w io.Writer) *connWriter {
	return &connWriter{fw: wire.NewFrameWriter(w)}
}

func (w *connWriter) send(m *message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fw.WriteMessage(m)
}

// sendData writes one non-empty bulk chunk as a gathered frame: the
// header from the writer's buffer, then p itself, so the chunk is never
// copied into the frame. The bytes are those send would write for
// &message{Seq: seq, Kind: kindBulkData, Offset: off, Payload: p}.
func (w *connWriter) sendData(seq uint64, off int64, p []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hdr = message{Seq: seq, Kind: kindBulkData, Offset: off}
	return w.fw.WriteMessagePayload(&w.hdr, payloadTag, p)
}
