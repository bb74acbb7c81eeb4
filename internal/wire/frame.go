package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"github.com/ngioproject/norns-go/internal/bufpool"
)

// Frames carry one encoded message each: a uvarint length prefix followed
// by the message bytes, mirroring protobuf's delimited stream format.

// framePrefixMax is the reserved space for a frame's uvarint length
// prefix. MaxMessageSize is 64 MiB, whose uvarint needs 4 bytes; 5
// covers every legal frame with room to spare.
const framePrefixMax = 5

// AppendFrame appends m to dst as one length-prefixed frame and returns
// the extended slice. The message is encoded directly into dst (via a
// pooled encoder wrapping it) with the prefix space reserved up front,
// so framing a message costs no allocation and no intermediate copy —
// the foundation of both the socket write path (FrameWriter) and the
// journal's group-commit buffer.
func AppendFrame(dst []byte, m Marshaler) ([]byte, error) {
	e := GetEncoder()
	own := e.buf // keep the pooled buffer to hand back
	e.buf = dst
	start := len(dst)
	var prefix [framePrefixMax]byte
	e.buf = append(e.buf, prefix[:]...)
	m.MarshalWire(e)
	out := e.buf
	e.buf = own
	PutEncoder(e)
	n := len(out) - start - framePrefixMax
	if n > MaxMessageSize {
		return dst, ErrTooLarge
	}
	ln := binary.PutUvarint(prefix[:], uint64(n))
	if ln < framePrefixMax {
		// Close the gap left by the shorter-than-reserved prefix; copy is
		// a memmove, so the overlap is safe.
		copy(out[start+ln:], out[start+framePrefixMax:])
		out = out[:start+ln+n]
	}
	copy(out[start:], prefix[:ln])
	return out, nil
}

// maxRetainedFrame bounds the scratch capacity a FrameWriter or
// FrameReader keeps between messages. One oversized message (a 64 MiB
// memory-region payload) must not pin its buffer on every long-lived
// connection afterwards.
const maxRetainedFrame = 1 << 20

// FrameWriter writes length-prefixed messages to an underlying writer.
// It is not safe for concurrent use.
type FrameWriter struct {
	w   io.Writer
	buf []byte // reusable frame assembly: prefix + payload, one Write each
	// iov and vec carry WriteMessagePayload's gathered write: vec is
	// re-sliced from iov every frame (WriteTo consumes it), so the
	// gather list never allocates.
	iov [2][]byte
	vec net.Buffers
}

// NewFrameWriter returns a FrameWriter over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

// flush hands the assembled frame(s) to the underlying writer as a
// single Write (one syscall on a socket — the "gathered write") and
// resets the scratch, dropping oversized capacity.
func (fw *FrameWriter) flush() error {
	_, err := fw.w.Write(fw.buf)
	if cap(fw.buf) > maxRetainedFrame {
		fw.buf = nil
	} else {
		fw.buf = fw.buf[:0]
	}
	return err
}

// AppendMessage encodes m as one frame onto the writer's pending buffer
// without writing it. Flush sends everything appended since the last
// write in one call — the batch variant of WriteMessage the event push
// path uses to deliver a burst of frames with one syscall.
func (fw *FrameWriter) AppendMessage(m Marshaler) error {
	buf, err := AppendFrame(fw.buf, m)
	if err != nil {
		return err
	}
	fw.buf = buf
	return nil
}

// Flush writes the frames accumulated by AppendMessage (no-op when
// nothing is pending).
func (fw *FrameWriter) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	return fw.flush()
}

// Discard drops frames appended since the last write — the error path
// of a batch assembly, so a poisoned batch cannot leak into the next
// message.
func (fw *FrameWriter) Discard() {
	fw.buf = fw.buf[:0]
}

// WriteFrame writes one pre-encoded message as a length-prefixed frame.
// Callers that hold a Marshaler should prefer WriteMessage, which
// encodes straight into the frame buffer instead of copying msg.
func (fw *FrameWriter) WriteFrame(msg []byte) error {
	if len(msg) > MaxMessageSize {
		return ErrTooLarge
	}
	fw.buf = fw.buf[:0]
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(msg)))
	fw.buf = append(fw.buf, prefix[:n]...)
	fw.buf = append(fw.buf, msg...)
	return fw.flush()
}

// WriteMessage marshals m and writes it as a single frame. The message
// is encoded directly into the writer's reusable buffer behind a
// reserved length prefix and written in one call — no per-message
// allocation, no encode-then-copy.
func (fw *FrameWriter) WriteMessage(m Marshaler) error {
	buf, err := AppendFrame(fw.buf[:0], m)
	if err != nil {
		return err
	}
	fw.buf = buf
	return fw.flush()
}

// WriteMessagePayload writes m followed by a bytes field (tag, payload)
// as one frame, without copying payload: the length prefix, m's fields
// and the field's key and length are encoded into the writer's buffer,
// and that header and the caller's payload go out in one gathered
// write (writev on a socket). The bytes on the wire are identical to
// WriteMessage of a message whose MarshalWire ends with
// e.Bytes(tag, payload). The writer keeps no reference to payload once
// the call returns.
func (fw *FrameWriter) WriteMessagePayload(m Marshaler, tag int, payload []byte) error {
	e := GetEncoder()
	own := e.buf
	var prefix [framePrefixMax]byte
	e.buf = append(fw.buf[:0], prefix[:]...)
	m.MarshalWire(e)
	e.key(tag, TypeBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(payload)))
	hdr := e.buf
	e.buf = own
	PutEncoder(e)
	fw.buf = hdr[:0]
	n := len(hdr) - framePrefixMax + len(payload)
	if n > MaxMessageSize {
		return ErrTooLarge
	}
	// Right-align the prefix in its reserved space: the header then
	// starts wherever the prefix does, with no memmove.
	ln := binary.PutUvarint(prefix[:], uint64(n))
	start := framePrefixMax - ln
	copy(hdr[start:], prefix[:ln])
	fw.iov = [2][]byte{hdr[start:], payload}
	fw.vec = fw.iov[:]
	_, err := fw.vec.WriteTo(fw.w)
	fw.iov = [2][]byte{}
	return err
}

// FrameReader reads length-prefixed messages from an underlying reader.
// It is not safe for concurrent use.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// ReadFrame reads one message into the reader's growable scratch
// buffer, which is reused by the next call; callers that retain the
// slice must copy it out (decoding copies exactly the payloads that
// escape — strings, byte fields — which is the only copy a received
// message pays).
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	n, err := fr.readLen()
	if err != nil {
		return nil, err
	}
	return fr.readBody(n)
}

// readLen reads a frame's length prefix and bounds it.
func (fr *FrameReader) readLen() (uint64, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return 0, err
	}
	if n > MaxMessageSize {
		return 0, fmt.Errorf("%w (frame of %d bytes)", ErrTooLarge, n)
	}
	return n, nil
}

// readBody reads the n-byte body of a frame into the scratch buffer.
func (fr *FrameReader) readBody(n uint64) ([]byte, error) {
	if uint64(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	msg := fr.buf
	if cap(fr.buf) > maxRetainedFrame {
		// Hand the oversized buffer to the caller and start fresh, so one
		// huge frame does not pin its footprint on the connection.
		fr.buf = nil
	}
	return msg, nil
}

// pooledFrameMin is the smallest frame ReadPooledFrame hands out in a
// pooled buffer. Smaller frames (RPC requests and responses, acks, the
// short tail of a bulk stream) stay in the reader's scratch buffer, so
// they never seed the pool with buffers too small for a bulk chunk.
const pooledFrameMin = 16 << 10

// ReadPooledFrame reads one message like ReadFrame, except that a frame
// of at least 16 KiB lands in a buffer from bufpool whose ownership
// passes to the caller: pooled is non-nil, msg aliases it, and the
// caller hands it back with bufpool.Put once nothing references msg any
// more — or drops it to the GC. Smaller frames land in the reader's
// scratch buffer exactly as with ReadFrame, valid until the next read,
// and pooled is nil. A consumer can thus keep a large frame (a bulk
// chunk) past the next read without copying it.
func (fr *FrameReader) ReadPooledFrame() (msg []byte, pooled *[]byte, err error) {
	n, err := fr.readLen()
	if err != nil {
		return nil, nil, err
	}
	if n < pooledFrameMin {
		msg, err = fr.readBody(n)
		return msg, nil, err
	}
	pooled = bufpool.Get(int(n))
	if _, err := io.ReadFull(fr.r, *pooled); err != nil {
		bufpool.Put(pooled)
		return nil, nil, unexpectedEOF(err)
	}
	return *pooled, pooled, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ParseFrame splits one length-prefixed frame off the front of buf,
// returning the message bytes and the remaining input. The message
// aliases buf. A frame whose length prefix or payload extends past the
// end of buf returns ErrTruncated — callers replaying an append-only
// log use this to detect (and discard) a partial final record from an
// interrupted write.
func ParseFrame(buf []byte) (msg, rest []byte, err error) {
	n, sz := binary.Uvarint(buf)
	if sz == 0 {
		return nil, buf, ErrTruncated
	}
	if sz < 0 {
		return nil, buf, ErrOverflow
	}
	if n > MaxMessageSize {
		return nil, buf, fmt.Errorf("%w (frame of %d bytes)", ErrTooLarge, n)
	}
	if n > uint64(len(buf)-sz) {
		return nil, buf, ErrTruncated
	}
	return buf[sz : sz+int(n)], buf[sz+int(n):], nil
}

// ReadMessage reads one frame and unmarshals it into m.
func (fr *FrameReader) ReadMessage(m Unmarshaler) error {
	b, err := fr.ReadFrame()
	if err != nil {
		return err
	}
	return Unmarshal(b, m)
}
