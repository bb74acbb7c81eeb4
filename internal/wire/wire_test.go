package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

type sample struct {
	A uint64
	B int64
	C string
	D []byte
	E bool
	F float64
	G []string
}

func (s *sample) MarshalWire(e *Encoder) {
	e.Uint64(1, s.A)
	e.Int64(2, s.B)
	e.String(3, s.C)
	e.Bytes(4, s.D)
	e.Bool(5, s.E)
	e.Float64(6, s.F)
	e.StringSlice(7, s.G)
}

func (s *sample) UnmarshalWire(d *Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			s.A = d.Uint64()
		case 2:
			s.B = d.Int64()
		case 3:
			s.C = d.String()
		case 4:
			s.D = append([]byte(nil), d.Bytes()...)
		case 5:
			s.E = d.Bool()
		case 6:
			s.F = d.Float64()
		case 7:
			s.G = append(s.G, d.String())
		default:
			d.Skip()
		}
	}
	return d.Err()
}

func TestRoundTrip(t *testing.T) {
	in := sample{A: 42, B: -7, C: "lustre://", D: []byte{1, 2, 3}, E: true, F: 3.5, G: []string{"a", "b"}}
	var out sample
	if err := Unmarshal(Marshal(&in), &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out.A != in.A || out.B != in.B || out.C != in.C || !bytes.Equal(out.D, in.D) ||
		out.E != in.E || out.F != in.F || len(out.G) != 2 || out.G[0] != "a" || out.G[1] != "b" {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b int64, c string, d []byte, e bool, g float64) bool {
		if math.IsNaN(g) {
			g = 0
		}
		in := sample{A: a, B: b, C: c, D: d, E: e, F: g}
		var out sample
		if err := Unmarshal(Marshal(&in), &out); err != nil {
			return false
		}
		return out.A == in.A && out.B == in.B && out.C == in.C &&
			bytes.Equal(out.D, in.D) && out.E == in.E && out.F == in.F
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZigZag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		var e Encoder
		e.Int64(1, v)
		d := NewDecoder(e.Buffer())
		if !d.Next() {
			t.Fatalf("Next() = false for %d", v)
		}
		if got := d.Int64(); got != v {
			t.Errorf("zigzag(%d) = %d", v, got)
		}
	}
}

func TestSkipUnknownFields(t *testing.T) {
	var e Encoder
	e.Uint64(1, 7)
	e.String(99, "future field")
	e.Float64(98, 2.5)
	e.Uint64(97, 12)
	e.Int64(2, -3)

	var a, b int64
	d := NewDecoder(e.Buffer())
	for d.Next() {
		switch d.Tag() {
		case 1:
			a = int64(d.Uint64())
		case 2:
			b = d.Int64()
		default:
			d.Skip()
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if a != 7 || b != -3 {
		t.Fatalf("got a=%d b=%d", a, b)
	}
}

func TestTruncated(t *testing.T) {
	var e Encoder
	e.String(1, "hello world")
	full := e.Buffer()
	for i := 1; i < len(full); i++ {
		d := NewDecoder(full[:i])
		for d.Next() {
			d.Bytes()
		}
		if d.Err() == nil {
			t.Errorf("truncation at %d not detected", i)
		}
	}
}

func TestBadWireType(t *testing.T) {
	// Wire type 5 is not supported.
	d := NewDecoder([]byte{1<<3 | 5, 0})
	if d.Next() {
		t.Fatal("Next() accepted bad wire type")
	}
	if d.Err() == nil {
		t.Fatal("expected error for bad wire type")
	}
}

func TestNestedMessage(t *testing.T) {
	inner := sample{A: 1, C: "nested"}
	var e Encoder
	e.Message(1, &inner)
	e.Uint64(2, 9)

	var got sample
	var after uint64
	d := NewDecoder(e.Buffer())
	for d.Next() {
		switch d.Tag() {
		case 1:
			d.Message(&got)
		case 2:
			after = d.Uint64()
		default:
			d.Skip()
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if got.A != 1 || got.C != "nested" || after != 9 {
		t.Fatalf("nested decode mismatch: %+v after=%d", got, after)
	}
}

func TestWrongTypeAccess(t *testing.T) {
	var e Encoder
	e.Uint64(1, 5)
	d := NewDecoder(e.Buffer())
	if !d.Next() {
		t.Fatal("Next() = false")
	}
	d.Bytes() // wrong accessor for a varint field
	if d.Err() == nil {
		t.Fatal("expected wire-type mismatch error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	msgs := [][]byte{[]byte("one"), {}, []byte("three"), bytes.Repeat([]byte("x"), 100000)}
	for _, m := range msgs {
		if err := fw.WriteFrame(m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, want := range msgs {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d mismatch: %d bytes vs %d", i, len(got), len(want))
		}
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFramePartial(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	fr := NewFrameReader(bytes.NewReader(trunc))
	if _, err := fr.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("expected ErrUnexpectedEOF, got %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A frame header larger than MaxMessageSize must be rejected without
	// allocating the payload.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	fr := NewFrameReader(&buf)
	if _, err := fr.ReadFrame(); err == nil {
		t.Fatal("expected error for oversized frame")
	}
}

func TestFrameMessage(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	in := sample{A: 11, C: "framed"}
	if err := fw.WriteMessage(&in); err != nil {
		t.Fatal(err)
	}
	var out sample
	fr := NewFrameReader(&buf)
	if err := fr.ReadMessage(&out); err != nil {
		t.Fatal(err)
	}
	if out.A != 11 || out.C != "framed" {
		t.Fatalf("mismatch: %+v", out)
	}
}

func BenchmarkMarshal(b *testing.B) {
	s := sample{A: 42, B: -7, C: "lustre://scratch/output", D: make([]byte, 128), E: true, F: 3.5}
	var e Encoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		s.MarshalWire(&e)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	s := sample{A: 42, B: -7, C: "lustre://scratch/output", D: make([]byte, 128), E: true, F: 3.5}
	buf := Marshal(&s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out sample
		if err := Unmarshal(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadPooledFrame: frames of 16 KiB and up come back in a pooled
// buffer the caller owns — still intact after later reads — while
// small frames use the reader's scratch like ReadFrame.
func TestReadPooledFrame(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	big := bytes.Repeat([]byte("b"), 64<<10)
	for _, p := range [][]byte{big, []byte("small"), bytes.Repeat([]byte("c"), 64<<10)} {
		if err := fw.WriteFrame(p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	first, pooled, err := fr.ReadPooledFrame()
	if err != nil || pooled == nil {
		t.Fatalf("64 KiB frame: pooled=%v err=%v", pooled, err)
	}
	small, scratch, err := fr.ReadPooledFrame()
	if err != nil || scratch != nil || string(small) != "small" {
		t.Fatalf("small frame: %q pooled=%v err=%v", small, scratch, err)
	}
	if _, _, err := fr.ReadPooledFrame(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, big) {
		t.Fatal("an owned frame changed under a later read")
	}
	if _, _, err := fr.ReadPooledFrame(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}
