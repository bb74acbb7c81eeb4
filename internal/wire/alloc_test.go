package wire_test

// Allocation-regression guards for the protocol hot path. The PR 5
// zero-allocation work pooled the encoder/decoder buffers, made nested
// message encode/decode in-place, and turned frame assembly into a
// single reused buffer; these tests pin those properties with
// testing.AllocsPerRun so a future change that quietly re-introduces a
// per-message allocation fails CI instead of shipping a regression.
//
// Budgets are per operation and deliberately leave zero headroom where
// the steady state is zero: raising one requires justifying the new
// allocation in review.

import (
	"bytes"
	"io"
	"testing"

	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/wire"
)

// benchRequest is a representative OpSubmit request: nested TaskSpec
// with both resources, strings included — the shape every submit RPC
// encodes.
func benchRequest() *proto.Request {
	return &proto.Request{
		Op:  proto.OpSubmit,
		Seq: 42, PID: 4711,
		Task: &proto.TaskSpec{
			Kind:   2,
			Input:  proto.ResourceSpec{Kind: 2, Dataspace: "lustre://", Path: "/scratch/in.dat"},
			Output: proto.ResourceSpec{Kind: 2, Dataspace: "nvme0://", Path: "/staging/out.dat"},
		},
	}
}

func benchResponse() *proto.Response {
	return &proto.Response{
		Status: proto.Success, Seq: 42, TaskID: 99,
		Stats: &proto.TaskStats{Status: 3, TotalBytes: 1 << 20, MovedBytes: 1 << 20},
	}
}

// allocsPerRun reports allocations per call after a warm-up pass that
// fills the wire pools.
func allocsPerRun(t *testing.T, runs int, fn func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets run in the non-race pass")
	}
	for i := 0; i < 16; i++ {
		fn()
	}
	return testing.AllocsPerRun(runs, fn)
}

// TestEncodeAllocs: encoding a request or response into a FrameWriter
// is allocation-free once the writer's frame buffer is warm — the
// encode→frame→write path reuses one buffer end to end.
func TestEncodeAllocs(t *testing.T) {
	req, resp := benchRequest(), benchResponse()
	fw := wire.NewFrameWriter(io.Discard)
	if got := allocsPerRun(t, 200, func() {
		if err := fw.WriteMessage(req); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("request encode+frame: %.1f allocs/op, budget 0", got)
	}
	if got := allocsPerRun(t, 200, func() {
		if err := fw.WriteMessage(resp); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("response encode+frame: %.1f allocs/op, budget 0", got)
	}
}

// TestAppendFrameAllocs: the journal's group-commit buffer builder must
// not allocate beyond growing dst itself (pre-grown here).
func TestAppendFrameAllocs(t *testing.T) {
	resp := benchResponse()
	dst := make([]byte, 0, 4096)
	if got := allocsPerRun(t, 200, func() {
		buf, err := wire.AppendFrame(dst[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		dst = buf[:0]
	}); got > 0 {
		t.Errorf("AppendFrame: %.1f allocs/op, budget 0", got)
	}
}

// TestDecodeAllocs: decoding copies out exactly the payloads that
// escape the frame buffer. For the submit request that is the TaskSpec
// pointer and its four strings; for the stats response, the TaskStats
// pointer. The budgets pin that count — the decoder machinery itself
// (pooled Decoder, in-place nested messages) contributes zero.
func TestDecodeAllocs(t *testing.T) {
	encode := func(m wire.Marshaler) []byte {
		var buf bytes.Buffer
		fw := wire.NewFrameWriter(&buf)
		if err := fw.WriteMessage(m); err != nil {
			t.Fatal(err)
		}
		msg, _, err := wire.ParseFrame(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	reqBytes := encode(benchRequest())
	var req proto.Request
	if got := allocsPerRun(t, 200, func() {
		req = proto.Request{}
		if err := wire.Unmarshal(reqBytes, &req); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		t.Errorf("request decode: %.1f allocs/op, budget 5 (TaskSpec + 4 strings)", got)
	}
	respBytes := encode(benchResponse())
	var resp proto.Response
	if got := allocsPerRun(t, 200, func() {
		resp = proto.Response{}
		if err := wire.Unmarshal(respBytes, &resp); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("response decode: %.1f allocs/op, budget 1 (TaskStats)", got)
	}
}

// TestFrameRoundTripAllocs guards the full transport exchange — encode
// and frame a request, read and decode it, encode the response, read
// and decode that — at the combined budget of the halves plus the
// reader's scratch reuse (zero once warm).
func TestFrameRoundTripAllocs(t *testing.T) {
	req, resp := benchRequest(), benchResponse()
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	fr := wire.NewFrameReader(&buf)
	var gotReq proto.Request
	var gotResp proto.Response
	if got := allocsPerRun(t, 200, func() {
		buf.Reset()
		if err := fw.WriteMessage(req); err != nil {
			t.Fatal(err)
		}
		gotReq = proto.Request{}
		if err := fr.ReadMessage(&gotReq); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteMessage(resp); err != nil {
			t.Fatal(err)
		}
		gotResp = proto.Response{}
		if err := fr.ReadMessage(&gotResp); err != nil {
			t.Fatal(err)
		}
	}); got > 6 {
		t.Errorf("request/response round trip: %.1f allocs/op, budget 6", got)
	}
	if gotReq.Task == nil || gotResp.Stats == nil {
		t.Fatal("round trip dropped nested messages")
	}
}

// TestPushBatchAllocs: the event push path assembles many frames into
// one write; the frame assembly itself must stay allocation-free.
func TestPushBatchAllocs(t *testing.T) {
	fw := wire.NewFrameWriter(io.Discard)
	ev := &proto.Response{Status: proto.Success, Event: proto.Event{TaskID: 7, Kind: 1}, HasEvent: true}
	if got := allocsPerRun(t, 200, func() {
		for i := 0; i < 8; i++ {
			if err := fw.AppendMessage(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("8-frame push batch: %.1f allocs/op, budget 0", got)
	}
}

// chunkHeader is a bulk-data-shaped message: a few varint fields and,
// when Payload is set, the chunk as its last field.
type chunkHeader struct {
	Seq     uint64
	Offset  int64
	Payload []byte
}

func (m *chunkHeader) MarshalWire(e *wire.Encoder) {
	e.Uint64(1, m.Seq)
	e.Int64(5, m.Offset)
	if m.Payload != nil {
		e.Bytes(7, m.Payload)
	}
}

// TestWriteMessagePayloadAllocs: the gathered bulk write frames a chunk
// without copying or allocating — the header is encoded into the
// writer's buffer and the gather list lives in the writer.
func TestWriteMessagePayloadAllocs(t *testing.T) {
	fw := wire.NewFrameWriter(io.Discard)
	hdr := &chunkHeader{Seq: 9, Offset: 1 << 40}
	chunk := make([]byte, 256<<10)
	if got := allocsPerRun(t, 200, func() {
		if err := fw.WriteMessagePayload(hdr, 7, chunk); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("gathered chunk frame: %.1f allocs/op, budget 0", got)
	}
}

// TestWriteMessagePayloadMatchesWriteMessage: the gathered frame is
// byte-identical to WriteMessage with the payload inline, across the
// 127/128-byte boundaries of both the frame's length prefix and the
// payload's length, and for a 16 MiB chunk. Peers on either side of
// the change must read each other's frames.
func TestWriteMessagePayloadMatchesWriteMessage(t *testing.T) {
	sizes := []int{0, 1, 16 << 20}
	for n := 100; n <= 140; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range []int{16383, 16384, 256 << 10} {
		sizes = append(sizes, n)
	}
	big := make([]byte, 16<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var gathered, inline bytes.Buffer
	gw, iw := wire.NewFrameWriter(&gathered), wire.NewFrameWriter(&inline)
	for _, n := range sizes {
		gathered.Reset()
		inline.Reset()
		p := big[:n]
		if err := gw.WriteMessagePayload(&chunkHeader{Seq: 3, Offset: int64(n)}, 7, p); err != nil {
			t.Fatal(err)
		}
		if err := iw.WriteMessage(&chunkHeader{Seq: 3, Offset: int64(n), Payload: p}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gathered.Bytes(), inline.Bytes()) {
			t.Fatalf("payload %d: gathered frame differs from inline frame (%d vs %d bytes)",
				n, gathered.Len(), inline.Len())
		}
	}
}
