package msg

// The hand-rolled wire codec: every message type and every struct they
// share has one layout method, func (m *T) wire(c *wire.Codec), that
// shows the codec its fields in wire order. The codec's direction
// decides whether a field is written or read, so a layout is spelled
// once and its two halves cannot drift apart. The TCP transport frames
// one envelope (tag byte, sender id, message body) per message; see
// DESIGN.md's "Wire format" section for the layout and internal/wire
// for the primitive encodings.
//
// Adding a message type means: first check that no existing kind already
// carries the payload (a phase every engine speaks is one kind — Accept,
// Accepted, Promise, SlotPrepare, SlotNack — whichever engine sends it).
// Then a new tag constant (never a retired one: tags are wire
// compatibility), its layout method, its row in wireTypes (decode) and
// its case in AppendEnvelope (encode), and a sample in the codec tests,
// which demand a round trip for every registered type, compare each
// against encoding/gob's decoding of the same message and fail on two
// types with one field list.
//
// Two rules keep the send path at 0 allocs/op. A layout reaches the
// codec through direct calls only: a func value, an interface or a
// type-parameter method call would make the codec escape to the heap on
// every send — which is why the slice layouts below are written out per
// element type and AppendEnvelope is a type switch, not a table. And
// where the in-memory shape differs by direction (a slice grows as it
// is read), the direction-specific part is the loop around one element
// layout, never a second layout.

import (
	"fmt"
	"slices"

	"consensusinside/internal/wire"
)

// Wire type tags. One byte, starting at 1 (0 marks a corrupt frame); a
// tag is the type's identity on the wire, so it is never reassigned.
// Tag 255 is reserved for the transport's hello handshake frame.
const (
	tagClientRequest    byte = 1
	tagClientReply      byte = 2
	tagClientReplyBatch byte = 3
	tagPrepareRequest   byte = 4
	tagPromise          byte = 5
	tagAbandon          byte = 6
	tagAccept           byte = 7
	tagLearn            byte = 8
	tagSlotPrepare      byte = 9
	tagUtilPromise      byte = 10
	tagUtilAccept       byte = 11
	tagUtilAccepted     byte = 12
	tagSlotNack         byte = 13
	tagMPPrepare        byte = 14
	tagAccepted         byte = 17
	tagMPNack           byte = 18
	tagTPCPrepare       byte = 19
	tagTPCAck           byte = 20
	tagTPCCommit        byte = 21
	tagTPCCommitAck     byte = 22
	tagTPCRollback      byte = 23
	tagMencSkip         byte = 26
	tagBPPromise        byte = 28
	tagCatchupRequest   byte = 32
	tagSnapshotChunk    byte = 33
	tagCatchupEntries   byte = 34
	tagReadRequest      byte = 35
	tagReadReply        byte = 36
	tagReadReplyBatch   byte = 37
	tagReadIndexRequest byte = 38
	tagReadIndexAck     byte = 39
)

// retiredTags named per-engine copies of the shared Paxos phases:
// mp_promise (15), mp_accept (16), menc_accept (24), menc_learn (25),
// bp_prepare (27), bp_accept (29), bp_accepted (30) and bp_nack (31).
// No type may claim one again; a frame carrying one is an unknown tag.
var retiredTags = [...]byte{15, 16, 24, 25, 27, 29, 30, 31}

// HelloTag is the reserved frame tag for the transport's connection
// handshake; no message type may claim it.
const HelloTag byte = 0xFF

// wireTypes is the decode half of the type registry: tag → a decoder
// that runs the type's layout over a reading codec. (Going through a
// func value moves the codec to the heap — once per received message,
// which the reader goroutine can afford; the send path cannot.) A
// pooled kind decodes into a box drawn from its pool, which the
// receiving runtime releases after delivery: each frame draws one box
// and releases one at each end, so the pools neither run dry nor pile
// up.
var wireTypes = []struct {
	tag byte
	dec func(c *wire.Codec) Message
}{
	{tagClientRequest, func(c *wire.Codec) Message { m := requests.get(); m.wire(c); return m }},
	{tagClientReply, func(c *wire.Codec) Message { var m ClientReply; m.wire(c); return m }},
	{tagClientReplyBatch, func(c *wire.Codec) Message { m := replies.get(); m.wire(c); return m }},
	{tagPrepareRequest, func(c *wire.Codec) Message { var m PrepareRequest; m.wire(c); return m }},
	{tagPromise, func(c *wire.Codec) Message { var m Promise; m.wire(c); return m }},
	{tagAbandon, func(c *wire.Codec) Message { var m Abandon; m.wire(c); return m }},
	{tagAccept, func(c *wire.Codec) Message { m := accepts.get(); m.wire(c); return m }},
	{tagLearn, func(c *wire.Codec) Message { m := learns.get(); m.wire(c); return m }},
	{tagSlotPrepare, func(c *wire.Codec) Message { var m SlotPrepare; m.wire(c); return m }},
	{tagUtilPromise, func(c *wire.Codec) Message { var m UtilPromise; m.wire(c); return m }},
	{tagUtilAccept, func(c *wire.Codec) Message { var m UtilAccept; m.wire(c); return m }},
	{tagUtilAccepted, func(c *wire.Codec) Message { var m UtilAccepted; m.wire(c); return m }},
	{tagSlotNack, func(c *wire.Codec) Message { var m SlotNack; m.wire(c); return m }},
	{tagMPPrepare, func(c *wire.Codec) Message { var m MPPrepare; m.wire(c); return m }},
	{tagAccepted, func(c *wire.Codec) Message { var m Accepted; m.wire(c); return m }},
	{tagMPNack, func(c *wire.Codec) Message { var m MPNack; m.wire(c); return m }},
	{tagTPCPrepare, func(c *wire.Codec) Message { var m TPCPrepare; m.wire(c); return m }},
	{tagTPCAck, func(c *wire.Codec) Message { var m TPCAck; m.wire(c); return m }},
	{tagTPCCommit, func(c *wire.Codec) Message { var m TPCCommit; m.wire(c); return m }},
	{tagTPCCommitAck, func(c *wire.Codec) Message { var m TPCCommitAck; m.wire(c); return m }},
	{tagTPCRollback, func(c *wire.Codec) Message { var m TPCRollback; m.wire(c); return m }},
	{tagMencSkip, func(c *wire.Codec) Message { var m MencSkip; m.wire(c); return m }},
	{tagBPPromise, func(c *wire.Codec) Message { var m BPPromise; m.wire(c); return m }},
	{tagCatchupRequest, func(c *wire.Codec) Message { var m CatchupRequest; m.wire(c); return m }},
	{tagSnapshotChunk, func(c *wire.Codec) Message { var m SnapshotChunk; m.wire(c); return m }},
	{tagCatchupEntries, func(c *wire.Codec) Message { var m CatchupEntries; m.wire(c); return m }},
	{tagReadRequest, func(c *wire.Codec) Message { m := reads.get(); m.wire(c); return m }},
	{tagReadReply, func(c *wire.Codec) Message { var m ReadReply; m.wire(c); return m }},
	{tagReadReplyBatch, func(c *wire.Codec) Message { m := readReplies.get(); m.wire(c); return m }},
	{tagReadIndexRequest, func(c *wire.Codec) Message { var m ReadIndexRequest; m.wire(c); return m }},
	{tagReadIndexAck, func(c *wire.Codec) Message { var m ReadIndexAck; m.wire(c); return m }},
}

// wireDec indexes wireTypes by tag for the decode hot path.
var wireDec [256]func(c *wire.Codec) Message

func init() {
	for _, t := range wireTypes {
		if t.tag == 0 || t.tag == HelloTag || slices.Contains(retiredTags[:], t.tag) {
			panic(fmt.Sprintf("msg: wire tag %d is reserved or retired", t.tag))
		}
		if wireDec[t.tag] != nil {
			panic(fmt.Sprintf("msg: duplicate wire tag %d", t.tag))
		}
		wireDec[t.tag] = t.dec
	}
}

// header is the envelope's own layout: the type tag, then the sender.
func header(c *wire.Codec, tag *byte, from *NodeID) {
	c.Byte(tag)
	from.wire(c)
}

// open writes the header and hands the codec back, so an encode row is
// one direct call.
func open(c *wire.Codec, tag byte, from NodeID) *wire.Codec {
	header(c, &tag, &from)
	return c
}

// AppendEnvelope appends the wire encoding of message m from sender
// from: the type tag, the sender id, then the body. The transport wraps
// the result in a length-prefixed frame. It fails on message types
// outside the registry (a programming error caught by the codec tests).
// The switch is the encode half of the registry: each row runs the
// layout on the box a pooled kind travels in (see pool.go), or on a
// stack copy of a plain one. A ClientRequest encodes in both forms: the
// value is what a harness outside the runtimes builds by hand.
func AppendEnvelope(b []byte, from NodeID, m Message) ([]byte, error) {
	c := wire.NewAppender(b)
	switch m := m.(type) {
	case *ClientRequest:
		m.wire(open(&c, tagClientRequest, from))
	case ClientRequest:
		m.wire(open(&c, tagClientRequest, from))
	case ClientReply:
		m.wire(open(&c, tagClientReply, from))
	case *ClientReplyBatch:
		m.wire(open(&c, tagClientReplyBatch, from))
	case PrepareRequest:
		m.wire(open(&c, tagPrepareRequest, from))
	case Promise:
		m.wire(open(&c, tagPromise, from))
	case Abandon:
		m.wire(open(&c, tagAbandon, from))
	case *Accept:
		m.wire(open(&c, tagAccept, from))
	case *Learn:
		m.wire(open(&c, tagLearn, from))
	case SlotPrepare:
		m.wire(open(&c, tagSlotPrepare, from))
	case UtilPromise:
		m.wire(open(&c, tagUtilPromise, from))
	case UtilAccept:
		m.wire(open(&c, tagUtilAccept, from))
	case UtilAccepted:
		m.wire(open(&c, tagUtilAccepted, from))
	case SlotNack:
		m.wire(open(&c, tagSlotNack, from))
	case MPPrepare:
		m.wire(open(&c, tagMPPrepare, from))
	case Accepted:
		m.wire(open(&c, tagAccepted, from))
	case MPNack:
		m.wire(open(&c, tagMPNack, from))
	case TPCPrepare:
		m.wire(open(&c, tagTPCPrepare, from))
	case TPCAck:
		m.wire(open(&c, tagTPCAck, from))
	case TPCCommit:
		m.wire(open(&c, tagTPCCommit, from))
	case TPCCommitAck:
		m.wire(open(&c, tagTPCCommitAck, from))
	case TPCRollback:
		m.wire(open(&c, tagTPCRollback, from))
	case MencSkip:
		m.wire(open(&c, tagMencSkip, from))
	case BPPromise:
		m.wire(open(&c, tagBPPromise, from))
	case CatchupRequest:
		m.wire(open(&c, tagCatchupRequest, from))
	case SnapshotChunk:
		m.wire(open(&c, tagSnapshotChunk, from))
	case CatchupEntries:
		m.wire(open(&c, tagCatchupEntries, from))
	case *ReadRequest:
		m.wire(open(&c, tagReadRequest, from))
	case ReadReply:
		m.wire(open(&c, tagReadReply, from))
	case *ReadReplyBatch:
		m.wire(open(&c, tagReadReplyBatch, from))
	case ReadIndexRequest:
		m.wire(open(&c, tagReadIndexRequest, from))
	case ReadIndexAck:
		m.wire(open(&c, tagReadIndexAck, from))
	default:
		return b, fmt.Errorf("msg: no wire tag for %T", m)
	}
	return c.Buf(), nil
}

// DecodeEnvelope decodes one AppendEnvelope payload. It is strict: an
// unknown tag, a truncated body, or trailing bytes all fail — a corrupt
// frame means a corrupt stream, and the transport drops the connection.
// The returned message copies everything it needs; the caller may reuse
// payload immediately.
func DecodeEnvelope(payload []byte) (NodeID, Message, error) {
	c := wire.NewReader(payload)
	var tag byte
	var from NodeID
	header(&c, &tag, &from)
	if err := c.Err(); err != nil {
		return 0, nil, fmt.Errorf("msg: envelope header: %w", err)
	}
	dec := wireDec[tag]
	if dec == nil {
		return 0, nil, fmt.Errorf("msg: unknown wire tag %d", tag)
	}
	m := dec(&c)
	if err := c.Finish(); err != nil {
		return 0, nil, fmt.Errorf("msg: decode %s: %w", m.Kind(), err)
	}
	return from, m, nil
}

// ---------------------------------------------------------------------------
// Shared layouts
// ---------------------------------------------------------------------------

func (id *NodeID) wire(c *wire.Codec) { c.Int((*int)(id)) }

func (m *Command) wire(c *wire.Codec) {
	c.Int((*int)(&m.Op))
	c.String(&m.Key)
	c.String(&m.Val)
}

func (m *BatchEntry) wire(c *wire.Codec) {
	c.Uvarint(&m.Seq)
	m.Cmd.wire(c)
}

func (m *Value) wire(c *wire.Codec) {
	m.Client.wire(c)
	c.Uvarint(&m.Seq)
	m.Cmd.wire(c)
	c.Uvarint(&m.Ack)
	wireBatch(c, &m.Batch)
}

func (m *Proposal) wire(c *wire.Codec) {
	c.Varint(&m.Instance)
	c.Uvarint(&m.PN)
	m.Value.wire(c)
}

func (m *UtilEntry) wire(c *wire.Codec) {
	c.Int((*int)(&m.Type))
	m.Leader.wire(c)
	m.Acceptor.wire(c)
	wireProposals(c, &m.Uncommitted)
	c.Varint(&m.Frontier)
}

func (m *Decided) wire(c *wire.Codec) {
	c.Varint(&m.Instance)
	m.Value.wire(c)
}

// decodeSliceCap bounds the capacity pre-allocated for a decoded slice.
// The count itself is already validated against the remaining input
// (wire.Codec.Len), but one input byte can claim a much larger in-memory
// element, so a hostile count could still amplify a 16 MB frame into
// gigabytes if trusted for the initial make(). Growing by append beyond
// this cap keeps memory proportional to input actually decoded;
// legitimate slices (batches bounded by the pipeline window, learn
// backlogs) rarely exceed it anyway.
const decodeSliceCap = 4096

// decodeInto returns the slice a decoded count-n slice grows in: nil for
// none, the array s already has when it is large enough — a box drawn
// from its pool keeps the array it owns (pool.go) — else a fresh one.
func decodeInto[T any](s []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case cap(s) >= min(n, decodeSliceCap):
		return s[:0]
	}
	return make([]T, 0, min(n, decodeSliceCap))
}

// A slice is its count, then each element's layout. The five functions
// below differ only in the element type (see the file header for why
// they are not one generic function). Reading starts from the nil slice
// of a fresh message and grows it one decoded element at a time, so an
// empty slice reads back nil — matching gob, the tests' differential
// reference, which does not distinguish nil from empty.

func wireBatch(c *wire.Codec, p *[]BatchEntry) {
	n := c.Len(len(*p))
	if c.Reading() {
		*p = decodeInto(*p, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			*p = append(*p, BatchEntry{})
		}
		(*p)[i].wire(c)
	}
}

func wireProposals(c *wire.Codec, p *[]Proposal) {
	n := c.Len(len(*p))
	if c.Reading() {
		*p = decodeInto(*p, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			*p = append(*p, Proposal{})
		}
		(*p)[i].wire(c)
	}
}

// ---------------------------------------------------------------------------
// Client traffic
// ---------------------------------------------------------------------------

// ClientRequest is field-for-field convertible to Value, so it shares
// Value's layout — one to maintain when either grows a field (the
// conversion stops compiling if they diverge).
func (m *ClientRequest) wire(c *wire.Codec) { (*Value)(m).wire(c) }

func (m *ClientReply) wire(c *wire.Codec) {
	c.Uvarint(&m.Seq)
	c.Varint(&m.Instance)
	c.Bool(&m.OK)
	c.String(&m.Result)
	m.Redirect.wire(c)
}

func (m *ClientReplyBatch) wire(c *wire.Codec) {
	n := c.Len(len(m.Replies))
	if c.Reading() {
		m.Replies = decodeInto(m.Replies, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			m.Replies = append(m.Replies, ClientReply{})
		}
		m.Replies[i].wire(c)
	}
}

// ---------------------------------------------------------------------------
// Paxos phases shared by the engines
// ---------------------------------------------------------------------------

// Accept is field-for-field convertible to Proposal, so it shares
// Proposal's layout, as ClientRequest shares Value's.
func (m *Accept) wire(c *wire.Codec) { (*Proposal)(m).wire(c) }

func (m *Accepted) wire(c *wire.Codec) {
	c.Varint(&m.Instance)
	c.Uvarint(&m.PN)
	m.Value.wire(c)
	m.From.wire(c)
}

func (m *Promise) wire(c *wire.Codec) {
	m.From.wire(c)
	c.Uvarint(&m.PN)
	wireProposals(c, &m.Accepted)
	c.Varint(&m.Floor)
}

func (m *SlotPrepare) wire(c *wire.Codec) {
	c.Varint(&m.Slot)
	c.Uvarint(&m.PN)
}

func (m *SlotNack) wire(c *wire.Codec) {
	c.Varint(&m.Slot)
	c.Uvarint(&m.PN)
}

// ---------------------------------------------------------------------------
// 1Paxos
// ---------------------------------------------------------------------------

func (m *PrepareRequest) wire(c *wire.Codec) {
	c.Uvarint(&m.PN)
	c.Bool(&m.MustBeFresh)
	c.Varint(&m.From)
}

func (m *Abandon) wire(c *wire.Codec) {
	c.Uvarint(&m.HPN)
	c.Bool(&m.FreshMismatch)
	c.Bool(&m.IamFresh)
}

func (m *Learn) wire(c *wire.Codec) { wireProposals(c, &m.Entries) }

// ---------------------------------------------------------------------------
// PaxosUtility
// ---------------------------------------------------------------------------

func (m *UtilPromise) wire(c *wire.Codec) {
	c.Varint(&m.Slot)
	c.Uvarint(&m.PN)
	c.Uvarint(&m.AcceptedPN)
	m.Accepted.wire(c)
}

func (m *UtilAccept) wire(c *wire.Codec) {
	c.Varint(&m.Slot)
	c.Uvarint(&m.PN)
	m.Entry.wire(c)
}

func (m *UtilAccepted) wire(c *wire.Codec) {
	c.Varint(&m.Slot)
	c.Uvarint(&m.PN)
	m.Entry.wire(c)
	m.From.wire(c)
}

// ---------------------------------------------------------------------------
// Multi-Paxos, Mencius and Basic Paxos
// ---------------------------------------------------------------------------

func (m *MPPrepare) wire(c *wire.Codec) {
	c.Uvarint(&m.PN)
	c.Varint(&m.FromInstance)
}

func (m *MPNack) wire(c *wire.Codec) { c.Uvarint(&m.PN) }

func (m *MencSkip) wire(c *wire.Codec) {
	c.Varint(&m.FromInstance)
	c.Varint(&m.ToInstance)
	m.From.wire(c)
}

func (m *BPPromise) wire(c *wire.Codec) {
	c.Varint(&m.Instance)
	c.Uvarint(&m.PN)
	m.From.wire(c)
	c.Uvarint(&m.AcceptedPN)
	m.Accepted.wire(c)
}

// ---------------------------------------------------------------------------
// 2PC
// ---------------------------------------------------------------------------

func (m *TPCPrepare) wire(c *wire.Codec) {
	c.Varint(&m.TxID)
	m.Value.wire(c)
}

func (m *TPCAck) wire(c *wire.Codec) {
	c.Varint(&m.TxID)
	m.From.wire(c)
	c.Bool(&m.OK)
}

func (m *TPCCommit) wire(c *wire.Codec) {
	c.Varint(&m.TxID)
	m.Value.wire(c)
}

func (m *TPCCommitAck) wire(c *wire.Codec) {
	c.Varint(&m.TxID)
	m.From.wire(c)
}

func (m *TPCRollback) wire(c *wire.Codec) { c.Varint(&m.TxID) }

// ---------------------------------------------------------------------------
// Snapshot catch-up
// ---------------------------------------------------------------------------

func (m *CatchupRequest) wire(c *wire.Codec) { c.Varint(&m.From) }

func (m *SnapshotChunk) wire(c *wire.Codec) {
	c.Varint(&m.Seq)
	c.Bool(&m.Last)
	c.Bytes(&m.Data)
}

func (m *CatchupEntries) wire(c *wire.Codec) {
	n := c.Len(len(m.Entries))
	if c.Reading() {
		m.Entries = decodeInto(m.Entries, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			m.Entries = append(m.Entries, Decided{})
		}
		m.Entries[i].wire(c)
	}
	c.Bool(&m.Done)
}

// ---------------------------------------------------------------------------
// Read fast path
// ---------------------------------------------------------------------------

func (m *ReadRequest) wire(c *wire.Codec) {
	m.Client.wire(c)
	c.Int(&m.Mode)
	wireBatch(c, &m.Entries)
}

func (m *ReadReply) wire(c *wire.Codec) {
	c.Uvarint(&m.Seq)
	c.Bool(&m.OK)
	c.String(&m.Result)
	m.Redirect.wire(c)
}

func (m *ReadReplyBatch) wire(c *wire.Codec) {
	n := c.Len(len(m.Replies))
	if c.Reading() {
		m.Replies = decodeInto(m.Replies, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			m.Replies = append(m.Replies, ReadReply{})
		}
		m.Replies[i].wire(c)
	}
}

func (m *ReadIndexRequest) wire(c *wire.Codec) {
	c.Uvarint(&m.Round)
	c.Bool(&m.Lease)
}

func (m *ReadIndexAck) wire(c *wire.Codec) {
	c.Uvarint(&m.Round)
	c.Bool(&m.OK)
	c.Varint(&m.Frontier)
	c.Varint(&m.Hold)
}
