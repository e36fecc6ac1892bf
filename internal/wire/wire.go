// Package wire implements the primitives of the hand-rolled binary
// wire format used by the TCP transport: varint integers, length-counted
// strings, length-prefixed frames, and sync.Pool-backed encode buffers
// so steady-state sends allocate nothing.
//
// The split of responsibilities is deliberate: this package knows bytes,
// not messages. internal/msg owns the one-byte type tags, the per-type
// Marshal/Unmarshal code and the type registry; internal/transport owns
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

// Decode errors. ReadFrame and Decoder report these (wrapped with
// context); they mark a corrupt stream, and the transport's response is
// to drop the connection.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrEmptyFrame  = errors.New("wire: empty frame payload")
	ErrTruncated   = errors.New("wire: truncated input")
	ErrBadCount    = errors.New("wire: count exceeds remaining input")
)

// ---------------------------------------------------------------------------
// Append-side primitives
// ---------------------------------------------------------------------------

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint (efficient for small
// magnitudes of either sign — node ids, instance numbers, Nobody = -1).
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends s as a uvarint byte count followed by the bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p as a uvarint byte count followed by the bytes
// (the []byte twin of AppendString; snapshot chunks use it).
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends v as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

// Decoder reads the primitives back out of a payload. Errors are sticky:
// the first malformed read poisons the decoder, later reads return zero
// values, and the caller checks Err once at the end — which keeps the
// per-field decode code straight-line on the hot path.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data. The decoder aliases data;
// decoded strings and slices are copies, so the caller may reuse data
// once decoding finishes.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

// Err reports the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// fail records the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

// Bool reads one AppendBool byte; any non-zero value is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("uvarint at offset %d: %w", d.off, ErrTruncated))
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("varint at offset %d: %w", d.off, ErrTruncated))
		return 0
	}
	d.off += n
	return v
}

// String reads an AppendString value.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Errorf("string of %d bytes with %d left: %w", n, d.Remaining(), ErrBadCount))
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Bytes reads an AppendBytes value as a copy (nil when empty, matching
// the nil/empty folding of gob, the codec tests' differential reference).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Errorf("bytes of %d with %d left: %w", n, d.Remaining(), ErrBadCount))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.data[d.off:d.off+int(n)])
	d.off += int(n)
	return out
}

// SliceLen reads a uvarint element count and validates it against the
// remaining input, assuming every element costs at least one byte. The
// guard means a fuzzer (or a corrupt peer) cannot make the caller
// preallocate an enormous slice from a tiny input.
func (d *Decoder) SliceLen() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Errorf("%d elements with %d bytes left: %w", n, d.Remaining(), ErrBadCount))
		return 0
	}
	return int(n)
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
