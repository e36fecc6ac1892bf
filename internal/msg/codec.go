package msg

// The hand-rolled wire codec: every message type carries explicit
// MarshalWire/UnmarshalWire methods over internal/wire's primitives,
// and wireTypes below is the type registry. The TCP transport frames
// one envelope (tag byte, sender id, message body) per message; see
// DESIGN.md's "Wire format" section for the layout and internal/wire
// for the primitive encodings.
//
// Adding a message type means: a new tag constant (append only — tags
// are wire compatibility), the two methods, one wireTypes row and a
// sample in the codec tests, which demand a round trip for every
// registered type and compare each against encoding/gob's decoding of
// the same message.

import (
	"fmt"

	"consensusinside/internal/wire"
)

// Wire type tags. One byte, starting at 1 (0 marks a corrupt frame);
// append-only, since a tag is the type's identity on the wire. Tag 255
// is reserved for the transport's hello handshake frame.
const (
	tagClientRequest byte = iota + 1
	tagClientReply
	tagClientReplyBatch
	tagPrepareRequest
	tagPrepareResponse
	tagAbandon
	tagAcceptRequest
	tagLearn
	tagUtilPrepare
	tagUtilPromise
	tagUtilAccept
	tagUtilAccepted
	tagUtilNack
	tagMPPrepare
	tagMPPromise
	tagMPAccept
	tagMPLearn
	tagMPNack
	tagTPCPrepare
	tagTPCAck
	tagTPCCommit
	tagTPCCommitAck
	tagTPCRollback
	tagMencAccept
	tagMencLearn
	tagMencSkip
	tagBPPrepare
	tagBPPromise
	tagBPAccept
	tagBPAccepted
	tagBPNack
	tagCatchupRequest
	tagSnapshotChunk
	tagCatchupEntries
	tagReadRequest
	tagReadReply
	tagReadReplyBatch
	tagReadIndexRequest
	tagReadIndexAck
)

// HelloTag is the reserved frame tag for the transport's connection
// handshake; no message type may claim it.
const HelloTag byte = 0xFF

// wireTypes is the wire codec's type registry: tag → decoder. It is the
// one list to extend for a new message type.
var wireTypes = []struct {
	tag byte
	dec func(d *wire.Decoder) Message
}{
	{tagClientRequest, func(d *wire.Decoder) Message { var m ClientRequest; m.UnmarshalWire(d); return m }},
	{tagClientReply, func(d *wire.Decoder) Message { var m ClientReply; m.UnmarshalWire(d); return m }},
	{tagClientReplyBatch, func(d *wire.Decoder) Message { var m ClientReplyBatch; m.UnmarshalWire(d); return m }},
	{tagPrepareRequest, func(d *wire.Decoder) Message { var m PrepareRequest; m.UnmarshalWire(d); return m }},
	{tagPrepareResponse, func(d *wire.Decoder) Message { var m PrepareResponse; m.UnmarshalWire(d); return m }},
	{tagAbandon, func(d *wire.Decoder) Message { var m Abandon; m.UnmarshalWire(d); return m }},
	{tagAcceptRequest, func(d *wire.Decoder) Message { var m AcceptRequest; m.UnmarshalWire(d); return m }},
	{tagLearn, func(d *wire.Decoder) Message { var m Learn; m.UnmarshalWire(d); return m }},
	{tagUtilPrepare, func(d *wire.Decoder) Message { var m UtilPrepare; m.UnmarshalWire(d); return m }},
	{tagUtilPromise, func(d *wire.Decoder) Message { var m UtilPromise; m.UnmarshalWire(d); return m }},
	{tagUtilAccept, func(d *wire.Decoder) Message { var m UtilAccept; m.UnmarshalWire(d); return m }},
	{tagUtilAccepted, func(d *wire.Decoder) Message { var m UtilAccepted; m.UnmarshalWire(d); return m }},
	{tagUtilNack, func(d *wire.Decoder) Message { var m UtilNack; m.UnmarshalWire(d); return m }},
	{tagMPPrepare, func(d *wire.Decoder) Message { var m MPPrepare; m.UnmarshalWire(d); return m }},
	{tagMPPromise, func(d *wire.Decoder) Message { var m MPPromise; m.UnmarshalWire(d); return m }},
	{tagMPAccept, func(d *wire.Decoder) Message { var m MPAccept; m.UnmarshalWire(d); return m }},
	{tagMPLearn, func(d *wire.Decoder) Message { var m MPLearn; m.UnmarshalWire(d); return m }},
	{tagMPNack, func(d *wire.Decoder) Message { var m MPNack; m.UnmarshalWire(d); return m }},
	{tagTPCPrepare, func(d *wire.Decoder) Message { var m TPCPrepare; m.UnmarshalWire(d); return m }},
	{tagTPCAck, func(d *wire.Decoder) Message { var m TPCAck; m.UnmarshalWire(d); return m }},
	{tagTPCCommit, func(d *wire.Decoder) Message { var m TPCCommit; m.UnmarshalWire(d); return m }},
	{tagTPCCommitAck, func(d *wire.Decoder) Message { var m TPCCommitAck; m.UnmarshalWire(d); return m }},
	{tagTPCRollback, func(d *wire.Decoder) Message { var m TPCRollback; m.UnmarshalWire(d); return m }},
	{tagMencAccept, func(d *wire.Decoder) Message { var m MencAccept; m.UnmarshalWire(d); return m }},
	{tagMencLearn, func(d *wire.Decoder) Message { var m MencLearn; m.UnmarshalWire(d); return m }},
	{tagMencSkip, func(d *wire.Decoder) Message { var m MencSkip; m.UnmarshalWire(d); return m }},
	{tagBPPrepare, func(d *wire.Decoder) Message { var m BPPrepare; m.UnmarshalWire(d); return m }},
	{tagBPPromise, func(d *wire.Decoder) Message { var m BPPromise; m.UnmarshalWire(d); return m }},
	{tagBPAccept, func(d *wire.Decoder) Message { var m BPAccept; m.UnmarshalWire(d); return m }},
	{tagBPAccepted, func(d *wire.Decoder) Message { var m BPAccepted; m.UnmarshalWire(d); return m }},
	{tagBPNack, func(d *wire.Decoder) Message { var m BPNack; m.UnmarshalWire(d); return m }},
	{tagCatchupRequest, func(d *wire.Decoder) Message { var m CatchupRequest; m.UnmarshalWire(d); return m }},
	{tagSnapshotChunk, func(d *wire.Decoder) Message { var m SnapshotChunk; m.UnmarshalWire(d); return m }},
	{tagCatchupEntries, func(d *wire.Decoder) Message { var m CatchupEntries; m.UnmarshalWire(d); return m }},
	{tagReadRequest, func(d *wire.Decoder) Message { var m ReadRequest; m.UnmarshalWire(d); return m }},
	{tagReadReply, func(d *wire.Decoder) Message { var m ReadReply; m.UnmarshalWire(d); return m }},
	{tagReadReplyBatch, func(d *wire.Decoder) Message { var m ReadReplyBatch; m.UnmarshalWire(d); return m }},
	{tagReadIndexRequest, func(d *wire.Decoder) Message { var m ReadIndexRequest; m.UnmarshalWire(d); return m }},
	{tagReadIndexAck, func(d *wire.Decoder) Message { var m ReadIndexAck; m.UnmarshalWire(d); return m }},
}

// wireDec indexes wireTypes by tag for the decode hot path.
var wireDec [256]func(d *wire.Decoder) Message

func init() {
	for _, t := range wireTypes {
		if t.tag == 0 || t.tag == HelloTag {
			panic(fmt.Sprintf("msg: wire tag %d is reserved", t.tag))
		}
		if wireDec[t.tag] != nil {
			panic(fmt.Sprintf("msg: duplicate wire tag %d", t.tag))
		}
		wireDec[t.tag] = t.dec
	}
}

// wireTagOf maps a concrete message to its tag. A type switch keeps
// the mapping explicit and allocation-free on the send path.
func wireTagOf(m Message) (byte, bool) {
	switch m.(type) {
	case ClientRequest:
		return tagClientRequest, true
	case ClientReply:
		return tagClientReply, true
	case ClientReplyBatch:
		return tagClientReplyBatch, true
	case PrepareRequest:
		return tagPrepareRequest, true
	case PrepareResponse:
		return tagPrepareResponse, true
	case Abandon:
		return tagAbandon, true
	case AcceptRequest:
		return tagAcceptRequest, true
	case Learn:
		return tagLearn, true
	case UtilPrepare:
		return tagUtilPrepare, true
	case UtilPromise:
		return tagUtilPromise, true
	case UtilAccept:
		return tagUtilAccept, true
	case UtilAccepted:
		return tagUtilAccepted, true
	case UtilNack:
		return tagUtilNack, true
	case MPPrepare:
		return tagMPPrepare, true
	case MPPromise:
		return tagMPPromise, true
	case MPAccept:
		return tagMPAccept, true
	case MPLearn:
		return tagMPLearn, true
	case MPNack:
		return tagMPNack, true
	case TPCPrepare:
		return tagTPCPrepare, true
	case TPCAck:
		return tagTPCAck, true
	case TPCCommit:
		return tagTPCCommit, true
	case TPCCommitAck:
		return tagTPCCommitAck, true
	case TPCRollback:
		return tagTPCRollback, true
	case MencAccept:
		return tagMencAccept, true
	case MencLearn:
		return tagMencLearn, true
	case MencSkip:
		return tagMencSkip, true
	case BPPrepare:
		return tagBPPrepare, true
	case BPPromise:
		return tagBPPromise, true
	case BPAccept:
		return tagBPAccept, true
	case BPAccepted:
		return tagBPAccepted, true
	case BPNack:
		return tagBPNack, true
	case CatchupRequest:
		return tagCatchupRequest, true
	case SnapshotChunk:
		return tagSnapshotChunk, true
	case CatchupEntries:
		return tagCatchupEntries, true
	case ReadRequest:
		return tagReadRequest, true
	case ReadReply:
		return tagReadReply, true
	case ReadReplyBatch:
		return tagReadReplyBatch, true
	case ReadIndexRequest:
		return tagReadIndexRequest, true
	case ReadIndexAck:
		return tagReadIndexAck, true
	default:
		return 0, false
	}
}

// WireMarshaler is implemented by every message type: MarshalWire
// appends the type's body encoding (no tag, no length) to b.
type WireMarshaler interface {
	MarshalWire(b []byte) []byte
}

// AppendEnvelope appends the wire encoding of message m from sender
// from: the type tag, the sender id, then the body. The transport wraps
// the result in a length-prefixed frame. It fails on message types
// outside the registry (a programming error caught by the codec tests).
func AppendEnvelope(b []byte, from NodeID, m Message) ([]byte, error) {
	tag, ok := wireTagOf(m)
	if !ok {
		return b, fmt.Errorf("msg: no wire tag for %T", m)
	}
	b = append(b, tag)
	b = wire.AppendVarint(b, int64(from))
	return m.(WireMarshaler).MarshalWire(b), nil
}

// DecodeEnvelope decodes one AppendEnvelope payload. It is strict: an
// unknown tag, a truncated body, or trailing bytes all fail — a corrupt
// frame means a corrupt stream, and the transport drops the connection.
// The returned message copies everything it needs; the caller may reuse
// payload immediately.
func DecodeEnvelope(payload []byte) (NodeID, Message, error) {
	d := wire.NewDecoder(payload)
	tag := d.Byte()
	from := NodeID(d.Varint())
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("msg: envelope header: %w", err)
	}
	dec := wireDec[tag]
	if dec == nil {
		return 0, nil, fmt.Errorf("msg: unknown wire tag %d", tag)
	}
	m := dec(&d)
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("msg: decode %s: %w", m.Kind(), err)
	}
	if d.Remaining() != 0 {
		return 0, nil, fmt.Errorf("msg: %d trailing bytes after %s", d.Remaining(), m.Kind())
	}
	return from, m, nil
}

// ---------------------------------------------------------------------------
// Shared field encoders
// ---------------------------------------------------------------------------

func appendCommand(b []byte, c Command) []byte {
	b = wire.AppendVarint(b, int64(c.Op))
	b = wire.AppendString(b, c.Key)
	return wire.AppendString(b, c.Val)
}

func decodeCommand(d *wire.Decoder) Command {
	return Command{
		Op:  Op(d.Varint()),
		Key: d.String(),
		Val: d.String(),
	}
}

func appendBatch(b []byte, batch []BatchEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(batch)))
	for _, e := range batch {
		b = wire.AppendUvarint(b, e.Seq)
		b = appendCommand(b, e.Cmd)
	}
	return b
}

// decodeSliceCap bounds the capacity pre-allocated for a decoded slice.
// The count itself is already validated against the remaining input
// (wire.Decoder.SliceLen), but one input byte can claim a much larger
// in-memory element, so a hostile count could still amplify a 16 MB
// frame into gigabytes if trusted for the initial make(). Growing by
// append beyond this cap keeps memory proportional to input actually
// decoded; legitimate slices (batches bounded by the pipeline window,
// learn backlogs) rarely exceed it anyway.
const decodeSliceCap = 4096

// decodeBatch returns nil for an empty batch — matching gob, the tests'
// differential reference, which does not distinguish nil from empty.
func decodeBatch(d *wire.Decoder) []BatchEntry {
	n := d.SliceLen()
	if n == 0 {
		return nil
	}
	batch := make([]BatchEntry, 0, min(n, decodeSliceCap))
	for i := 0; i < n; i++ {
		batch = append(batch, BatchEntry{Seq: d.Uvarint(), Cmd: decodeCommand(d)})
		if d.Err() != nil {
			return nil
		}
	}
	return batch
}

func appendValue(b []byte, v Value) []byte {
	b = wire.AppendVarint(b, int64(v.Client))
	b = wire.AppendUvarint(b, v.Seq)
	b = appendCommand(b, v.Cmd)
	b = wire.AppendUvarint(b, v.Ack)
	return appendBatch(b, v.Batch)
}

func decodeValue(d *wire.Decoder) Value {
	return Value{
		Client: NodeID(d.Varint()),
		Seq:    d.Uvarint(),
		Cmd:    decodeCommand(d),
		Ack:    d.Uvarint(),
		Batch:  decodeBatch(d),
	}
}

func appendProposal(b []byte, p Proposal) []byte {
	b = wire.AppendVarint(b, p.Instance)
	b = wire.AppendUvarint(b, p.PN)
	return appendValue(b, p.Value)
}

func decodeProposal(d *wire.Decoder) Proposal {
	return Proposal{
		Instance: d.Varint(),
		PN:       d.Uvarint(),
		Value:    decodeValue(d),
	}
}

func appendProposals(b []byte, ps []Proposal) []byte {
	b = wire.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = appendProposal(b, p)
	}
	return b
}

func decodeProposals(d *wire.Decoder) []Proposal {
	n := d.SliceLen()
	if n == 0 {
		return nil
	}
	ps := make([]Proposal, 0, min(n, decodeSliceCap))
	for i := 0; i < n; i++ {
		ps = append(ps, decodeProposal(d))
		if d.Err() != nil {
			return nil
		}
	}
	return ps
}

func appendUtilEntry(b []byte, e UtilEntry) []byte {
	b = wire.AppendVarint(b, int64(e.Type))
	b = wire.AppendVarint(b, int64(e.Leader))
	b = wire.AppendVarint(b, int64(e.Acceptor))
	b = appendProposals(b, e.Uncommitted)
	return wire.AppendVarint(b, e.Frontier)
}

func decodeUtilEntry(d *wire.Decoder) UtilEntry {
	return UtilEntry{
		Type:        UtilEntryType(d.Varint()),
		Leader:      NodeID(d.Varint()),
		Acceptor:    NodeID(d.Varint()),
		Uncommitted: decodeProposals(d),
		Frontier:    d.Varint(),
	}
}

// ---------------------------------------------------------------------------
// Client traffic
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
// ClientRequest is field-for-field convertible to Value, so it shares
// Value's encoder — one layout to maintain when either grows a field
// (the conversion stops compiling if they diverge).
func (m ClientRequest) MarshalWire(b []byte) []byte {
	return appendValue(b, Value(m))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *ClientRequest) UnmarshalWire(d *wire.Decoder) {
	*m = ClientRequest(decodeValue(d))
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m ClientReply) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Seq)
	b = wire.AppendVarint(b, m.Instance)
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendString(b, m.Result)
	return wire.AppendVarint(b, int64(m.Redirect))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *ClientReply) UnmarshalWire(d *wire.Decoder) {
	m.Seq = d.Uvarint()
	m.Instance = d.Varint()
	m.OK = d.Bool()
	m.Result = d.String()
	m.Redirect = NodeID(d.Varint())
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m ClientReplyBatch) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Replies)))
	for _, r := range m.Replies {
		b = r.MarshalWire(b)
	}
	return b
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *ClientReplyBatch) UnmarshalWire(d *wire.Decoder) {
	n := d.SliceLen()
	if n == 0 {
		m.Replies = nil
		return
	}
	m.Replies = make([]ClientReply, 0, min(n, decodeSliceCap))
	for i := 0; i < n; i++ {
		var r ClientReply
		r.UnmarshalWire(d)
		if d.Err() != nil {
			m.Replies = nil
			return
		}
		m.Replies = append(m.Replies, r)
	}
}

// ---------------------------------------------------------------------------
// 1Paxos
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m PrepareRequest) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.PN)
	b = wire.AppendBool(b, m.MustBeFresh)
	return wire.AppendVarint(b, m.From)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *PrepareRequest) UnmarshalWire(d *wire.Decoder) {
	m.PN = d.Uvarint()
	m.MustBeFresh = d.Bool()
	m.From = d.Varint()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m PrepareResponse) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Acceptor))
	b = wire.AppendUvarint(b, m.PN)
	b = appendProposals(b, m.Accepted)
	return wire.AppendVarint(b, m.Floor)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *PrepareResponse) UnmarshalWire(d *wire.Decoder) {
	m.Acceptor = NodeID(d.Varint())
	m.PN = d.Uvarint()
	m.Accepted = decodeProposals(d)
	m.Floor = d.Varint()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m Abandon) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.HPN)
	b = wire.AppendBool(b, m.FreshMismatch)
	return wire.AppendBool(b, m.IamFresh)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *Abandon) UnmarshalWire(d *wire.Decoder) {
	m.HPN = d.Uvarint()
	m.FreshMismatch = d.Bool()
	m.IamFresh = d.Bool()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m AcceptRequest) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	b = wire.AppendUvarint(b, m.PN)
	return appendValue(b, m.Value)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *AcceptRequest) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
	m.Value = decodeValue(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m Learn) MarshalWire(b []byte) []byte {
	return appendProposals(b, m.Entries)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *Learn) UnmarshalWire(d *wire.Decoder) {
	m.Entries = decodeProposals(d)
}

// ---------------------------------------------------------------------------
// PaxosUtility
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m UtilPrepare) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Slot)
	return wire.AppendUvarint(b, m.PN)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *UtilPrepare) UnmarshalWire(d *wire.Decoder) {
	m.Slot = d.Varint()
	m.PN = d.Uvarint()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m UtilPromise) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Slot)
	b = wire.AppendUvarint(b, m.PN)
	b = wire.AppendUvarint(b, m.AcceptedPN)
	return appendUtilEntry(b, m.Accepted)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *UtilPromise) UnmarshalWire(d *wire.Decoder) {
	m.Slot = d.Varint()
	m.PN = d.Uvarint()
	m.AcceptedPN = d.Uvarint()
	m.Accepted = decodeUtilEntry(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m UtilAccept) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Slot)
	b = wire.AppendUvarint(b, m.PN)
	return appendUtilEntry(b, m.Entry)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *UtilAccept) UnmarshalWire(d *wire.Decoder) {
	m.Slot = d.Varint()
	m.PN = d.Uvarint()
	m.Entry = decodeUtilEntry(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m UtilAccepted) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Slot)
	b = wire.AppendUvarint(b, m.PN)
	b = appendUtilEntry(b, m.Entry)
	return wire.AppendVarint(b, int64(m.From))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *UtilAccepted) UnmarshalWire(d *wire.Decoder) {
	m.Slot = d.Varint()
	m.PN = d.Uvarint()
	m.Entry = decodeUtilEntry(d)
	m.From = NodeID(d.Varint())
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m UtilNack) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Slot)
	return wire.AppendUvarint(b, m.PN)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *UtilNack) UnmarshalWire(d *wire.Decoder) {
	m.Slot = d.Varint()
	m.PN = d.Uvarint()
}

// ---------------------------------------------------------------------------
// Collapsed Multi-Paxos
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m MPPrepare) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.PN)
	return wire.AppendVarint(b, m.FromInstance)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *MPPrepare) UnmarshalWire(d *wire.Decoder) {
	m.PN = d.Uvarint()
	m.FromInstance = d.Varint()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m MPPromise) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.PN)
	b = wire.AppendVarint(b, int64(m.From))
	b = appendProposals(b, m.Accepted)
	return wire.AppendVarint(b, m.Floor)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *MPPromise) UnmarshalWire(d *wire.Decoder) {
	m.PN = d.Uvarint()
	m.From = NodeID(d.Varint())
	m.Accepted = decodeProposals(d)
	m.Floor = d.Varint()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m MPAccept) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	b = wire.AppendUvarint(b, m.PN)
	return appendValue(b, m.Value)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *MPAccept) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
	m.Value = decodeValue(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m MPLearn) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	b = wire.AppendUvarint(b, m.PN)
	b = appendValue(b, m.Value)
	return wire.AppendVarint(b, int64(m.From))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *MPLearn) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
	m.Value = decodeValue(d)
	m.From = NodeID(d.Varint())
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m MPNack) MarshalWire(b []byte) []byte {
	return wire.AppendUvarint(b, m.PN)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *MPNack) UnmarshalWire(d *wire.Decoder) {
	m.PN = d.Uvarint()
}

// ---------------------------------------------------------------------------
// 2PC
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m TPCPrepare) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.TxID)
	return appendValue(b, m.Value)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *TPCPrepare) UnmarshalWire(d *wire.Decoder) {
	m.TxID = d.Varint()
	m.Value = decodeValue(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m TPCAck) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.TxID)
	b = wire.AppendVarint(b, int64(m.From))
	return wire.AppendBool(b, m.OK)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *TPCAck) UnmarshalWire(d *wire.Decoder) {
	m.TxID = d.Varint()
	m.From = NodeID(d.Varint())
	m.OK = d.Bool()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m TPCCommit) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.TxID)
	return appendValue(b, m.Value)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *TPCCommit) UnmarshalWire(d *wire.Decoder) {
	m.TxID = d.Varint()
	m.Value = decodeValue(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m TPCCommitAck) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.TxID)
	return wire.AppendVarint(b, int64(m.From))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *TPCCommitAck) UnmarshalWire(d *wire.Decoder) {
	m.TxID = d.Varint()
	m.From = NodeID(d.Varint())
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m TPCRollback) MarshalWire(b []byte) []byte {
	return wire.AppendVarint(b, m.TxID)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *TPCRollback) UnmarshalWire(d *wire.Decoder) {
	m.TxID = d.Varint()
}

// ---------------------------------------------------------------------------
// Mencius
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m MencAccept) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	b = wire.AppendUvarint(b, m.PN)
	return appendValue(b, m.Value)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *MencAccept) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
	m.Value = decodeValue(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m MencLearn) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	b = appendValue(b, m.Value)
	return wire.AppendVarint(b, int64(m.From))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *MencLearn) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.Value = decodeValue(d)
	m.From = NodeID(d.Varint())
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m MencSkip) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.FromInstance)
	b = wire.AppendVarint(b, m.ToInstance)
	return wire.AppendVarint(b, int64(m.From))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *MencSkip) UnmarshalWire(d *wire.Decoder) {
	m.FromInstance = d.Varint()
	m.ToInstance = d.Varint()
	m.From = NodeID(d.Varint())
}

// ---------------------------------------------------------------------------
// Basic Paxos
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m BPPrepare) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	return wire.AppendUvarint(b, m.PN)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *BPPrepare) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m BPPromise) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	b = wire.AppendUvarint(b, m.PN)
	b = wire.AppendVarint(b, int64(m.From))
	b = wire.AppendUvarint(b, m.AcceptedPN)
	return appendValue(b, m.Accepted)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *BPPromise) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
	m.From = NodeID(d.Varint())
	m.AcceptedPN = d.Uvarint()
	m.Accepted = decodeValue(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m BPAccept) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	b = wire.AppendUvarint(b, m.PN)
	return appendValue(b, m.Value)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *BPAccept) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
	m.Value = decodeValue(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m BPAccepted) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	b = wire.AppendUvarint(b, m.PN)
	b = appendValue(b, m.Value)
	return wire.AppendVarint(b, int64(m.From))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *BPAccepted) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
	m.Value = decodeValue(d)
	m.From = NodeID(d.Varint())
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m BPNack) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Instance)
	return wire.AppendUvarint(b, m.PN)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *BPNack) UnmarshalWire(d *wire.Decoder) {
	m.Instance = d.Varint()
	m.PN = d.Uvarint()
}

// ---------------------------------------------------------------------------
// Snapshot catch-up
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m CatchupRequest) MarshalWire(b []byte) []byte {
	return wire.AppendVarint(b, m.From)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *CatchupRequest) UnmarshalWire(d *wire.Decoder) {
	m.From = d.Varint()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m SnapshotChunk) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, m.Seq)
	b = wire.AppendBool(b, m.Last)
	return wire.AppendBytes(b, m.Data)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *SnapshotChunk) UnmarshalWire(d *wire.Decoder) {
	m.Seq = d.Varint()
	m.Last = d.Bool()
	m.Data = d.Bytes()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m CatchupEntries) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = wire.AppendVarint(b, e.Instance)
		b = appendValue(b, e.Value)
	}
	return wire.AppendBool(b, m.Done)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *CatchupEntries) UnmarshalWire(d *wire.Decoder) {
	n := d.SliceLen()
	if n > 0 {
		m.Entries = make([]Decided, 0, min(n, decodeSliceCap))
		for i := 0; i < n; i++ {
			m.Entries = append(m.Entries, Decided{Instance: d.Varint(), Value: decodeValue(d)})
			if d.Err() != nil {
				m.Entries = nil
				break
			}
		}
	}
	m.Done = d.Bool()
}

// ---------------------------------------------------------------------------
// Read fast path
// ---------------------------------------------------------------------------

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m ReadRequest) MarshalWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Client))
	b = wire.AppendVarint(b, int64(m.Mode))
	return appendBatch(b, m.Entries)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *ReadRequest) UnmarshalWire(d *wire.Decoder) {
	m.Client = NodeID(d.Varint())
	m.Mode = int(d.Varint())
	m.Entries = decodeBatch(d)
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m ReadReply) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Seq)
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendString(b, m.Result)
	return wire.AppendVarint(b, int64(m.Redirect))
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *ReadReply) UnmarshalWire(d *wire.Decoder) {
	m.Seq = d.Uvarint()
	m.OK = d.Bool()
	m.Result = d.String()
	m.Redirect = NodeID(d.Varint())
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m ReadReplyBatch) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Replies)))
	for _, r := range m.Replies {
		b = r.MarshalWire(b)
	}
	return b
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *ReadReplyBatch) UnmarshalWire(d *wire.Decoder) {
	n := d.SliceLen()
	if n == 0 {
		m.Replies = nil
		return
	}
	m.Replies = make([]ReadReply, 0, min(n, decodeSliceCap))
	for i := 0; i < n; i++ {
		var r ReadReply
		r.UnmarshalWire(d)
		if d.Err() != nil {
			m.Replies = nil
			return
		}
		m.Replies = append(m.Replies, r)
	}
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m ReadIndexRequest) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Round)
	return wire.AppendBool(b, m.Lease)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *ReadIndexRequest) UnmarshalWire(d *wire.Decoder) {
	m.Round = d.Uvarint()
	m.Lease = d.Bool()
}

// MarshalWire appends the message body (no tag); see AppendEnvelope.
func (m ReadIndexAck) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Round)
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendVarint(b, m.Frontier)
	return wire.AppendVarint(b, m.Hold)
}

// UnmarshalWire decodes the MarshalWire body; errors stick to d.
func (m *ReadIndexAck) UnmarshalWire(d *wire.Decoder) {
	m.Round = d.Uvarint()
	m.OK = d.Bool()
	m.Frontier = d.Varint()
	m.Hold = d.Varint()
}
