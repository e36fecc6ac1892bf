// Package wire implements the primitives of the hand-rolled binary
// wire format used by the TCP transport: a two-way Codec over varint
// integers and length-counted strings, length-prefixed frames, and
// sync.Pool-backed encode buffers so steady-state sends allocate nothing.
//
// The split of responsibilities is deliberate: this package knows bytes,
// not messages. internal/msg owns the one-byte type tags, one layout
// method per type and the type registry; internal/transport owns
// sockets, framing loops and flush policy. That keeps the codec testable and
// fuzzable without a network in sight.
//
// Frame layout (see DESIGN.md, "Wire format"):
//
//	+----------------+---------------------------+
//	| length (4B LE) | payload (length bytes)    |
//	+----------------+---------------------------+
//
// The payload's first byte is a message type tag; everything after it is
// the type's own encoding. Integers are unsigned varints
// (encoding/binary's Uvarint) or zigzag varints for signed values;
// strings and slices are a uvarint count followed by the elements.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// FrameHeaderLen is the size of the frame length prefix.
const FrameHeaderLen = 4

// MaxFrame bounds a frame payload. It exists to protect the reader from
// garbage or hostile length prefixes: a frame claiming more is a corrupt
// stream, not a large message (the largest legal message — a full
// pipeline window of batched commands — is orders of magnitude smaller).
const MaxFrame = 16 << 20

// maxPooledBuf caps the capacity of buffers returned to the pool, so one
// pathological message cannot pin megabytes for the rest of the process.
const maxPooledBuf = 1 << 20

// Decode errors. ReadFrame and a reading Codec report these (wrapped
// with context); they mark a corrupt stream, and the transport's
// response is to drop the connection.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrEmptyFrame  = errors.New("wire: empty frame payload")
	ErrTruncated   = errors.New("wire: truncated input")
	ErrBadCount    = errors.New("wire: count exceeds remaining input")
)

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

// Codec is a cursor over a byte slice that runs one way or the other:
// an appending codec writes each field it is shown, a reading codec
// fills each field from its input. A type's layout is therefore written
// once — a function that shows the codec its fields in wire order — and
// the two directions cannot drift apart.
//
// Errors are sticky: the first malformed read poisons the codec, later
// reads leave their fields untouched, and the caller checks Err (or
// Finish) once at the end — which keeps layouts straight-line. An
// appending codec never fails.
//
// A Codec is a value its user keeps on the stack, passing &c down
// direct calls only: an indirect call (a func value, an interface or a
// type-parameter method) would move it to the heap on every send.
type Codec struct {
	buf  []byte // appending: the output so far; reading: the input
	off  int    // reading: the next unread byte
	read bool
	err  error
}

// NewAppender returns a codec that appends to b.
func NewAppender(b []byte) Codec { return Codec{buf: b} }

// NewReader returns a codec that reads data. It aliases data; strings
// and byte slices it fills are copies, so the caller may reuse data once
// decoding finishes.
func NewReader(data []byte) Codec { return Codec{buf: data, read: true} }

// Reading reports the direction. Layouts ask only where the in-memory
// shape differs by direction: growing a slice, building a map.
func (c *Codec) Reading() bool { return c.read }

// Buf returns an appending codec's output.
func (c *Codec) Buf() []byte { return c.buf }

// Grow makes room in an appending codec for n more bytes, so a layout
// that knows its size pays one allocation instead of append's doublings.
func (c *Codec) Grow(n int) { c.buf = slices.Grow(c.buf, n) }

// Err reports the first decode error, or nil.
func (c *Codec) Err() error { return c.err }

// Remaining reports how many bytes a reading codec has left.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// Fail records err unless an earlier error already stands; a layout
// uses it to reject a value it read (an unknown version byte).
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Finish ends a strict decode: the first error, or an error when input
// is left over — a payload longer than its layout is as corrupt as one
// that is shorter.
func (c *Codec) Finish() error {
	if c.err == nil && c.read && c.Remaining() != 0 {
		c.err = fmt.Errorf("wire: %d trailing bytes", c.Remaining())
	}
	return c.err
}

// Byte is one raw byte.
func (c *Codec) Byte(v *byte) {
	switch {
	case !c.read:
		c.buf = append(c.buf, *v)
	case c.err != nil:
	case c.off >= len(c.buf):
		c.err = ErrTruncated
	default:
		*v = c.buf[c.off]
		c.off++
	}
}

// Bool is one byte, 0 or 1; any non-zero byte reads as true.
func (c *Codec) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.Byte(&b)
	*v = b != 0
}

// Uvarint is an unsigned varint.
func (c *Codec) Uvarint(v *uint64) {
	if !c.read {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	if c.err != nil {
		return
	}
	u, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("uvarint at offset %d: %w", c.off, ErrTruncated)
		return
	}
	c.off += n
	*v = u
}

// Varint is a zigzag varint (efficient for small magnitudes of either
// sign — instance numbers, the -1 sentinels).
func (c *Codec) Varint(v *int64) {
	if !c.read {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	if c.err != nil {
		return
	}
	i, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("varint at offset %d: %w", c.off, ErrTruncated)
		return
	}
	c.off += n
	*v = i
}

// Int is a Varint held in an int (node ids, enums).
func (c *Codec) Int(v *int) {
	if !c.read {
		c.buf = binary.AppendVarint(c.buf, int64(*v))
		return
	}
	i := int64(*v)
	c.Varint(&i)
	*v = int(i)
}

// readCount reads a uvarint count of what follows — bytes or elements,
// each element costing at least one byte — and validates it against the
// remaining input before anything is allocated from it, so a fuzzer (or
// a corrupt peer) cannot turn a tiny input into an enormous allocation.
func (c *Codec) readCount(what string) int {
	var n uint64
	c.Uvarint(&n)
	if c.err != nil {
		return 0
	}
	if n > uint64(c.Remaining()) {
		c.err = fmt.Errorf("%d %s with %d bytes left: %w", n, what, c.Remaining(), ErrBadCount)
		return 0
	}
	return int(n)
}

// Len is a slice's element count: an appending codec writes n, a
// reading one ignores it, and both return the count on the wire (0 once
// a read has failed). The caller loops that many times over one element
// layout, growing its slice by append as it reads.
func (c *Codec) Len(n int) int {
	if !c.read {
		c.buf = binary.AppendUvarint(c.buf, uint64(n))
		return n
	}
	return c.readCount("elements")
}

// String is a uvarint byte count followed by the bytes.
func (c *Codec) String(v *string) {
	if !c.read {
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(*v))), *v...)
		return
	}
	if n := c.readCount("string bytes"); c.err == nil {
		*v = string(c.buf[c.off : c.off+n])
		c.off += n
	}
}

// Bytes is the []byte twin of String (snapshot chunks use it). It reads
// a copy, nil when empty — matching the nil/empty folding of gob, the
// codec tests' differential reference.
func (c *Codec) Bytes(v *[]byte) {
	if !c.read {
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(*v))), *v...)
		return
	}
	if n := c.readCount("bytes"); c.err == nil {
		*v = nil
		if n > 0 {
			*v = append([]byte(nil), c.buf[c.off:c.off+n]...)
			c.off += n
		}
	}
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

// BeginFrame appends the 4-byte length placeholder that EndFrame later
// patches. Encode a frame as:
//
//	b = wire.BeginFrame(buf[:0])
//	b = ...append the payload...
//	b, err = wire.EndFrame(b)
func BeginFrame(b []byte) []byte { return append(b, 0, 0, 0, 0) }

// EndFrame patches the length prefix of a buffer started with
// BeginFrame. It fails on an empty or oversized payload.
func EndFrame(b []byte) ([]byte, error) {
	payload := len(b) - FrameHeaderLen
	if payload <= 0 {
		return b, ErrEmptyFrame
	}
	if payload > MaxFrame {
		return b, ErrFrameTooBig
	}
	binary.LittleEndian.PutUint32(b[:FrameHeaderLen], uint32(payload))
	return b, nil
}

// ReadFrame reads one frame from r into *scratch (growing it as needed)
// and returns the payload. The payload aliases *scratch and is only
// valid until the next call with the same scratch buffer.
func ReadFrame(r io.Reader, scratch *[]byte) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	buf := *scratch
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	*scratch = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

// bufPool recycles encode buffers. It stores pointers so returning a
// buffer does not itself allocate a slice header on the heap.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// GetBuf returns a length-zero pooled buffer. Return it with PutBuf.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer to the pool. Oversized buffers (a huge
// one-off message) are dropped instead, so the pool's steady-state
// footprint matches the steady-state message size.
func PutBuf(p *[]byte) {
	if cap(*p) > maxPooledBuf {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}
