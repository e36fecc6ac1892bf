package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// primitives is a layout over one of each primitive, edge values
// included; the tests below run it both ways.
type primitives struct {
	u0, uMax             uint64
	i0, iNeg, iMax, iMin int64
	n                    int
	empty, s             string
	raw                  []byte
	yes, no              bool
	b                    byte
}

func (p *primitives) wire(c *Codec) {
	c.Uvarint(&p.u0)
	c.Uvarint(&p.uMax)
	c.Varint(&p.i0)
	c.Varint(&p.iNeg)
	c.Varint(&p.iMax)
	c.Varint(&p.iMin)
	c.Int(&p.n)
	c.String(&p.empty)
	c.String(&p.s)
	c.Bytes(&p.raw)
	c.Bool(&p.yes)
	c.Bool(&p.no)
	c.Byte(&p.b)
}

func TestPrimitiveRoundTrips(t *testing.T) {
	want := primitives{
		uMax: math.MaxUint64, iNeg: -1, iMax: math.MaxInt64, iMin: math.MinInt64, n: -7,
		s: "hello, wire", raw: []byte{0, 0xff}, yes: true, b: 0xfe,
	}
	enc := NewAppender(nil)
	in := want
	in.wire(&enc)
	if !reflect.DeepEqual(in, want) {
		t.Errorf("appending changed the value: %+v", in)
	}
	if enc.Reading() || enc.Err() != nil || enc.Finish() != nil {
		t.Fatalf("appending codec failed: %v", enc.Err())
	}

	var got primitives
	dec := NewReader(enc.Buf())
	got.wire(&dec)
	if err := dec.Err(); err != nil {
		t.Fatalf("clean decode errored: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if dec.Remaining() != 0 || dec.Finish() != nil {
		t.Fatalf("%d bytes left over", dec.Remaining())
	}
	// The bytes are encoding/binary's varints and counted strings; a
	// reader that stops early must say so.
	if want := []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 1}; !bytes.HasPrefix(enc.Buf(), want) {
		t.Errorf("encoding starts % x, want % x", enc.Buf()[:len(want)], want)
	}
	short := NewReader(enc.Buf())
	var u uint64
	short.Uvarint(&u)
	if short.Finish() == nil {
		t.Error("Finish accepted trailing bytes")
	}
	// Grow reserves room behind what is written.
	grown := NewAppender([]byte{7})
	grown.Grow(100)
	if b := grown.Buf(); len(b) != 1 || b[0] != 7 || cap(b) < 101 {
		t.Errorf("Grow(100): len %d cap %d", len(b), cap(b))
	}
}

func TestDecoderStickyError(t *testing.T) {
	c := NewReader([]byte{0x80}) // truncated uvarint
	u := uint64(7)
	if c.Uvarint(&u); u != 7 || c.Err() == nil {
		t.Fatal("truncated uvarint decoded")
	}
	// Every later read must leave its field alone and keep the error.
	var s string
	var b byte
	var raw []byte
	c.String(&s)
	c.Byte(&b)
	c.Bytes(&raw)
	if s != "" || b != 0 || raw != nil || c.Len(0) != 0 || !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("error not sticky: %v", c.Err())
	}
	c.Fail(ErrBadCount)
	if !errors.Is(c.Finish(), ErrTruncated) {
		t.Fatalf("a later failure replaced the first: %v", c.Err())
	}
}

// count appends n as a uvarint, the way every count travels.
func count(n uint64) []byte {
	c := NewAppender(nil)
	c.Uvarint(&n)
	return c.Buf()
}

func TestStringLengthGuard(t *testing.T) {
	c := NewReader(count(1 << 40)) // claims a terabyte string
	var s string
	if c.String(&s); s != "" || !errors.Is(c.Err(), ErrBadCount) {
		t.Fatalf("absurd string length accepted: %v", c.Err())
	}
	c = NewReader(count(1 << 40))
	var raw []byte
	if c.Bytes(&raw); raw != nil || !errors.Is(c.Err(), ErrBadCount) {
		t.Fatalf("absurd bytes length accepted: %v", c.Err())
	}
}

func TestSliceLenGuard(t *testing.T) {
	c := NewReader(append(count(1000), make([]byte, 10)...))
	if c.Len(0) != 0 || !errors.Is(c.Err(), ErrBadCount) {
		t.Fatalf("slice count beyond input accepted: %v", c.Err())
	}

	c = NewReader(append(count(3), 1, 2, 3))
	if n := c.Len(0); n != 3 || c.Err() != nil {
		t.Fatalf("legal count rejected: n=%d err=%v", n, c.Err())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("tagged payload bytes")
	b := BeginFrame(nil)
	b = append(b, payload...)
	b, err := EndFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	scratch := GetBuf()
	defer PutBuf(scratch)
	got, err := ReadFrame(bytes.NewReader(b), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	// Two frames back to back through one scratch buffer.
	var stream bytes.Buffer
	stream.Write(b)
	stream.Write(b)
	r := bytes.NewReader(stream.Bytes())
	for i := 0; i < 2; i++ {
		if got, err := ReadFrame(r, scratch); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("frame %d: %q, %v", i, got, err)
		}
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := EndFrame(BeginFrame(nil)); !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("empty frame sealed: %v", err)
	}
	scratch := GetBuf()
	defer PutBuf(scratch)
	// Oversized length prefix.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(huge), scratch); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized frame accepted: %v", err)
	}
	// Zero length prefix.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), scratch); !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("empty frame read: %v", err)
	}
	// Truncated header and truncated payload.
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0}), scratch); err == nil {
		t.Error("truncated header read")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, 'x'}), scratch); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload read: %v", err)
	}
}

func TestBufPoolDropsOversized(t *testing.T) {
	big := make([]byte, 0, maxPooledBuf*2)
	PutBuf(&big) // must not panic, must not pin
	p := GetBuf()
	defer PutBuf(p)
	if len(*p) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(*p))
	}
}

// FuzzFrame feeds arbitrary byte streams to the frame reader: it must
// never panic, never hand back more than MaxFrame bytes, and must
// return exactly the bytes a well-formed frame carried.
func FuzzFrame(f *testing.F) {
	good := BeginFrame(nil)
	good = append(good, 0x01, 0x02, 0x03)
	good, _ = EndFrame(good)
	f.Add(good)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		scratch := GetBuf()
		defer PutBuf(scratch)
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r, scratch)
			if err != nil {
				return
			}
			if len(payload) == 0 || len(payload) > MaxFrame {
				t.Fatalf("frame reader returned %d bytes", len(payload))
			}
		}
	})
}
