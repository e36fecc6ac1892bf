// Package msg defines the complete message vocabulary of the agreement
// protocols in this repository: client traffic, the Paxos phases every
// Paxos-family engine shares, the messages only one engine needs —
// 1Paxos (Appendix A of the paper), PaxosUtility, collapsed
// Multi-Paxos, the Barrelfish-style 2PC agreement protocol, Mencius and
// Basic Paxos — and the recovery and read-path traffic.
//
// Messages are plain data. The simulator passes them by value between
// cores; the TCP transport encodes them with the hand-rolled wire codec
// (codec.go — one layout method per type, run both ways by a
// wire.Codec, plus the tag registry), which lives here, next to the
// types it encodes.
package msg

import "fmt"

// NodeID identifies a node (a core in the paper's vision) within a
// cluster. Node ids are dense, starting at 0.
type NodeID int

// Nobody is the sentinel for "no node" (e.g. no known active acceptor).
const Nobody NodeID = -1

// Op enumerates state-machine operations.
type Op int

// State-machine operations. Enums start at one so the zero value is
// detectably invalid, except OpNoop which is the explicit no-op.
const (
	OpNoop Op = iota + 1
	OpPut
	OpGet
)

// String implements fmt.Stringer for diagnostics.
func (o Op) String() string {
	switch o {
	case OpNoop:
		return "noop"
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Command is one state-machine command.
type Command struct {
	Op  Op
	Key string
	Val string
}

// BatchEntry is one command of a batched value or request: the
// lane-local sequence number that identifies it and the command itself.
// The client is carried once, on the enclosing Value or ClientRequest —
// a batch always comes from a single client lane.
type BatchEntry struct {
	Seq uint64
	Cmd Command
}

// Value is the unit the protocols agree on: one client command — or an
// ordered batch of commands from the same client lane — tagged with its
// origin, so replicas can route the replies and deduplicate retries.
//
// When Batch is non-empty it supersedes Cmd: the value carries
// len(Batch) commands in order, Seq equals Batch[0].Seq (so the batch
// has a stable identity wherever a single sequence number is needed),
// and Cmd is left zero. Engines never look inside: a batched value
// flows through accept/learn messages exactly like a single command,
// and one consensus instance decides the whole batch. The rsm layer's
// commit step runs its entries in place at apply time, back to back,
// recording a per-command session result for every entry.
//
// Ack replicates the client's acknowledgement floor (see
// ClientRequest.Ack) through the log itself, so every learner — not
// just replicas the client contacted directly — can retire stored
// session results the client no longer needs. It rides along with the
// command and never differs between learns of one instance (the value
// is fixed at accept time).
type Value struct {
	Client NodeID
	Seq    uint64
	Cmd    Command
	Ack    uint64
	Batch  []BatchEntry
}

// IsZero reports whether v is the zero (absent) value.
func (v Value) IsZero() bool {
	return v.Client == 0 && v.Seq == 0 && v.Cmd.Op == 0 && len(v.Batch) == 0
}

// Len reports how many commands the value carries: len(Batch) for a
// batched value, 1 otherwise.
func (v Value) Len() int {
	if len(v.Batch) > 0 {
		return len(v.Batch)
	}
	return 1
}

// EntryAt returns command i of the value (see Len) without allocating.
func (v Value) EntryAt(i int) BatchEntry {
	if len(v.Batch) > 0 {
		return v.Batch[i]
	}
	return BatchEntry{Seq: v.Seq, Cmd: v.Cmd}
}

// Equal reports whether two values carry the same decision. Value holds
// a slice, so it is not ==-comparable; every layer that checks log
// agreement (rsm.Log.Learn, cluster.CheckConsistency, proposer
// re-propose logic) compares through this instead.
func (v Value) Equal(o Value) bool {
	if v.Client != o.Client || v.Seq != o.Seq || v.Cmd != o.Cmd || v.Ack != o.Ack ||
		len(v.Batch) != len(o.Batch) {
		return false
	}
	for i := range v.Batch {
		if v.Batch[i] != o.Batch[i] {
			return false
		}
	}
	return true
}

// NewValue builds the agreement value for a client's entries: a plain
// single-command value for one entry, a batched value otherwise. The
// entries slice is not copied; callers hand over ownership. It panics
// on an empty entry list — batches exist only around commands.
func NewValue(client NodeID, ack uint64, entries []BatchEntry) Value {
	switch len(entries) {
	case 0:
		panic("msg: NewValue with no entries")
	case 1:
		return Value{Client: client, Seq: entries[0].Seq, Cmd: entries[0].Cmd, Ack: ack}
	default:
		return Value{Client: client, Seq: entries[0].Seq, Ack: ack, Batch: entries}
	}
}

// Proposal is an (instance, proposal-number, value) triple — the acceptor's
// short-term memory in Paxos-family protocols.
type Proposal struct {
	Instance int64
	PN       uint64
	Value    Value
}

// Equal compares proposals structurally (Value holds a slice, so
// proposals are not ==-comparable).
func (p Proposal) Equal(o Proposal) bool {
	return p.Instance == o.Instance && p.PN == o.PN && p.Value.Equal(o.Value)
}

// Message is implemented by every protocol message.
type Message interface {
	// Kind returns a short stable name, for diagnostics.
	Kind() string
}

// ---------------------------------------------------------------------------
// Client traffic
// ---------------------------------------------------------------------------

// ClientRequest carries one command — or an ordered batch of commands
// from the same client lane — from a client to a replica. The batching
// convention mirrors Value: a non-empty Batch supersedes Cmd, and Seq
// equals Batch[0].Seq so retry/origin bookkeeping that predates
// batching keeps a stable handle on the request.
//
// Ack is the client's lowest still-outstanding sequence number: every
// seq below it has been answered, so replicas may discard those stored
// results. Zero means "no acknowledgement information" and replicas
// fall back to window-based retention.
type ClientRequest struct {
	Client NodeID
	Seq    uint64
	Cmd    Command
	Ack    uint64
	Batch  []BatchEntry
}

// NewRequest builds a client request for a client's entries, single or
// batched, mirroring NewValue. The entries slice is not copied; it
// panics on an empty entry list.
func NewRequest(client NodeID, ack uint64, entries []BatchEntry) ClientRequest {
	switch len(entries) {
	case 0:
		panic("msg: NewRequest with no entries")
	case 1:
		return ClientRequest{Client: client, Seq: entries[0].Seq, Cmd: entries[0].Cmd, Ack: ack}
	default:
		return ClientRequest{Client: client, Seq: entries[0].Seq, Ack: ack, Batch: entries}
	}
}

// ClientReply answers a ClientRequest after the command committed (or
// redirects the client to the current leader).
type ClientReply struct {
	Seq      uint64
	Instance int64
	OK       bool
	Result   string
	Redirect NodeID // valid when !OK: where the client should retry
}

// ClientReplyBatch answers several commands of one client in a single
// message — the reply-path half of command batching. A batched value
// commits all its commands at once; answering them one message at a
// time would wake the client once per command and refill its pipeline
// window one slot at a time, collapsing the proposer-side batcher back
// to single-command batches. Delivering the replies together lets the
// client retire the whole batch in one step and issue a full batch in
// its place.
type ClientReplyBatch struct {
	Replies []ClientReply
}

func (ClientRequest) Kind() string    { return "client_request" }
func (ClientReply) Kind() string      { return "client_reply" }
func (ClientReplyBatch) Kind() string { return "client_reply_batch" }

// WrapReplies packs one client's replies into a single message: the
// bare reply when there is exactly one (the pre-batching wire format,
// byte for byte), a ClientReplyBatch otherwise. It returns nil for an
// empty list — nothing to send.
func WrapReplies(replies []ClientReply) Message {
	switch len(replies) {
	case 0:
		return nil
	case 1:
		return replies[0]
	default:
		return ClientReplyBatch{Replies: replies}
	}
}

// ---------------------------------------------------------------------------
// Paxos phases shared by the engines
// ---------------------------------------------------------------------------

// Accept is phase 2a for one instance: 1Paxos's leader sends it to the
// active acceptor, Multi-Paxos's and Basic Paxos's proposers and every
// Mencius owner (always PN 1: only the owner proposes) to all replicas.
type Accept struct {
	Instance int64
	PN       uint64
	Value    Value
}

// Accepted is phase 2b, an acceptor's acceptance broadcast to every
// learner; a learner decides the instance once a majority accepted it
// under one PN (replica.Shell.Vote). 1Paxos's one acceptor sends Learn.
type Accepted struct {
	Instance int64
	PN       uint64
	Value    Value
	From     NodeID
}

// Promise is phase 1b of a leader change (1Paxos's PrepareRequest,
// Multi-Paxos's MPPrepare): the acceptor's promise, piggybacking every
// proposal it accepted or applied from the prepare's frontier on, so
// the new leader re-proposes them (Lemma 2b).
//
// Floor is the acceptor's log-compaction floor (internal/snapshot):
// every instance below it was decided but its value now lives only in a
// snapshot, so the accepted list cannot cover it. A leader whose
// applied frontier lies below Floor must treat those instances like an
// AcceptorChange frontier — wait for the catch-up transfer the acceptor
// pushes alongside this promise, never fill them with no-ops.
type Promise struct {
	From     NodeID
	PN       uint64
	Accepted []Proposal
	Floor    int64
}

// SlotPrepare is phase 1a for one slot: a PaxosUtility log slot, or a
// Basic Paxos log instance.
type SlotPrepare struct {
	Slot int64
	PN   uint64
}

// SlotNack rejects a one-slot prepare or accept that lost: PN is the
// number to beat.
type SlotNack struct {
	Slot int64
	PN   uint64
}

func (Accept) Kind() string      { return "accept" }
func (Accepted) Kind() string    { return "accepted" }
func (Promise) Kind() string     { return "promise" }
func (SlotPrepare) Kind() string { return "slot_prepare" }
func (SlotNack) Kind() string    { return "slot_nack" }

// ---------------------------------------------------------------------------
// 1Paxos (Appendix A)
// ---------------------------------------------------------------------------

// PrepareRequest asks the active acceptor to adopt the sender as leader.
// MustBeFresh mirrors the pseudo-code's YouMustBeFresh flag: the sender
// expects a fresh backup acceptor that has adopted no leader yet, which
// catches silently-rebooted acceptors. From is the proposer's applied
// frontier: the acceptor answers with every proposal it has accepted or
// already applied from that instance on, so a lagging new leader cannot
// re-propose a fresh value for an instance that was already decided.
type PrepareRequest struct {
	PN          uint64
	MustBeFresh bool
	From        int64
}

// Abandon tells a proposer its proposal number lost to a higher one, or
// that its freshness expectation was wrong. The pseudo-code's acceptor
// stays silent on a freshness mismatch and proposers rely on timeouts;
// sending an explicit nack with the acceptor's actual freshness is a
// latency optimization that changes no protocol state.
type Abandon struct {
	HPN           uint64
	FreshMismatch bool
	IamFresh      bool
}

// Learn carries accepted proposals from the acceptor to the learners.
// The slice form is the acceptor-side batching described in DESIGN.md:
// with no backlog the slice holds a single entry.
type Learn struct {
	Entries []Proposal
}

func (PrepareRequest) Kind() string { return "prepare_request" }
func (Abandon) Kind() string        { return "abandon" }
func (Learn) Kind() string          { return "learn" }

// ---------------------------------------------------------------------------
// PaxosUtility (Section 5.2-5.4)
// ---------------------------------------------------------------------------

// UtilEntryType distinguishes the two entry kinds of the utility log.
type UtilEntryType int

// Utility log entry kinds.
const (
	EntryLeaderChange UtilEntryType = iota + 1
	EntryAcceptorChange
)

// UtilEntry is one PaxosUtility log entry: either "node L is leader,
// working with acceptor A" or "the active acceptor is now A, carrying the
// leader's uncommitted proposals".
//
// Frontier (AcceptorChange only) is the switching leader's applied
// frontier: every instance below it was decided at the *previous*
// acceptor and its learn is already in flight, so a later leader must not
// fill those instances with no-ops — it waits for the learns instead.
// Together with Uncommitted (every proposed-but-unlearned value at or
// above the frontier) this makes the carried state complete.
type UtilEntry struct {
	Type        UtilEntryType
	Leader      NodeID
	Acceptor    NodeID
	Uncommitted []Proposal
	Frontier    int64
}

// IsZero reports whether the entry is absent.
func (e UtilEntry) IsZero() bool { return e.Type == 0 }

// UtilPromise is phase-1b: a promise, carrying any previously accepted
// entry for the slot.
type UtilPromise struct {
	Slot       int64
	PN         uint64
	AcceptedPN uint64
	Accepted   UtilEntry
}

// UtilAccept is phase-2a for one slot.
type UtilAccept struct {
	Slot  int64
	PN    uint64
	Entry UtilEntry
}

// UtilAccepted is phase-2b, broadcast to all nodes as learners.
type UtilAccepted struct {
	Slot  int64
	PN    uint64
	Entry UtilEntry
	From  NodeID
}

func (UtilPromise) Kind() string  { return "util_promise" }
func (UtilAccept) Kind() string   { return "util_accept" }
func (UtilAccepted) Kind() string { return "util_accepted" }

// ---------------------------------------------------------------------------
// The other engines' own phases: collapsed Multi-Paxos (Section 2.3),
// Mencius (related-work extension, Section 8) and the Basic Paxos
// baseline (Section 2.3's Synod, one full round per instance)
// ---------------------------------------------------------------------------

// MPPrepare is Multi-Paxos phase 1 for all instances >= FromInstance.
type MPPrepare struct {
	PN           uint64
	FromInstance int64
}

// MPNack rejects a proposal number that lost.
type MPNack struct {
	PN uint64
}

// MencSkip lets an idle Mencius leader give up its share of the
// instance space so the log keeps advancing.
type MencSkip struct {
	FromInstance int64
	ToInstance   int64
	From         NodeID
}

// BPPromise is Basic Paxos phase-1b: a promise for the instance,
// carrying the acceptor's previously accepted proposal if any
// (AcceptedPN zero means none).
type BPPromise struct {
	Instance   int64
	PN         uint64
	From       NodeID
	AcceptedPN uint64
	Accepted   Value
}

func (MPPrepare) Kind() string { return "mp_prepare" }
func (MPNack) Kind() string    { return "mp_nack" }
func (MencSkip) Kind() string  { return "menc_skip" }
func (BPPromise) Kind() string { return "bp_promise" }

// ---------------------------------------------------------------------------
// 2PC in its Barrelfish agreement form (Section 2.2)
// ---------------------------------------------------------------------------

// TPCPrepare is the coordinator's phase-1 lock request.
type TPCPrepare struct {
	TxID  int64
	Value Value
}

// TPCAck acknowledges (or refuses) a prepare.
type TPCAck struct {
	TxID int64
	From NodeID
	OK   bool
}

// TPCCommit is the coordinator's phase-2 commit order.
type TPCCommit struct {
	TxID  int64
	Value Value
}

// TPCCommitAck acknowledges a commit after local execution.
type TPCCommitAck struct {
	TxID int64
	From NodeID
}

// TPCRollback aborts a transaction whose prepare failed.
type TPCRollback struct {
	TxID int64
}

func (TPCPrepare) Kind() string   { return "2pc_prepare" }
func (TPCAck) Kind() string       { return "2pc_ack" }
func (TPCCommit) Kind() string    { return "2pc_commit" }
func (TPCCommitAck) Kind() string { return "2pc_commit_ack" }
func (TPCRollback) Kind() string  { return "2pc_rollback" }

// ---------------------------------------------------------------------------
// Snapshot catch-up & replica recovery (internal/snapshot)
// ---------------------------------------------------------------------------

// Decided is one decided (instance, value) pair streamed during
// catch-up. Unlike Proposal it carries no proposal number: a decided
// value's number is history, and the receiver learns it directly.
type Decided struct {
	Instance int64
	Value    Value
}

// CatchupRequest asks a peer to stream everything this replica is
// missing: decided log entries from From on when the peer still retains
// them, or a snapshot (in SnapshotChunk frames) plus the retained
// suffix when From has been compacted away. A restarted replica sends
// it at boot; a lagging one sends it whenever its applied frontier
// stalls behind its learned entries.
type CatchupRequest struct {
	From int64 // requester's next-to-apply instance (0 for a fresh log)
}

// SnapshotChunk carries one slice of a wire-encoded snapshot
// (internal/snapshot's versioned image: state machine, session
// frontiers, last applied instance). Chunks of one transfer arrive in
// order on one connection; Seq restarts at 0 for a new transfer and
// Last marks the final chunk, after which the receiver decodes and
// installs the assembled snapshot.
type SnapshotChunk struct {
	Seq  int64 // chunk index within the transfer, from 0
	Last bool
	Data []byte
}

// CatchupEntries carries decided log entries above the requester's
// frontier (or above the snapshot just shipped), oldest first, capped
// per message so a long suffix never forms one giant frame. Done marks
// the end of the serving peer's retained history — the transfer is
// complete and anything newer will arrive through normal agreement
// traffic.
type CatchupEntries struct {
	Entries []Decided
	Done    bool
}

func (CatchupRequest) Kind() string { return "catchup_request" }
func (SnapshotChunk) Kind() string  { return "snapshot_chunk" }
func (CatchupEntries) Kind() string { return "catchup_entries" }

// ---------------------------------------------------------------------------
// Read fast path (internal/readpath)
// ---------------------------------------------------------------------------

// ReadRequest carries a coalesced batch of read-only commands from a
// client to a replica's read path (internal/readpath), bypassing
// agreement entirely. Read sequence numbers live in their own per-client
// space, disjoint from the write path's: a read never occupies a log
// instance or a session slot, so it must not consume the dense sequence
// numbers the replicas' session tables screen. Mode echoes the client's
// configured read mode (readpath.Mode) for diagnostics; replicas serve
// according to their own configuration.
type ReadRequest struct {
	Client  NodeID
	Mode    int
	Entries []BatchEntry
}

// ReadReply answers one entry of a ReadRequest. Result carries the
// read value exactly as a committed OpGet would have produced it.
// Redirect (valid when !OK) names the replica the client should retry
// at — the current leader, or any recovered peer when the serving
// replica is still catching up.
type ReadReply struct {
	Seq      uint64
	OK       bool
	Result   string
	Redirect NodeID
}

// ReadReplyBatch answers several reads of one client in a single
// message — the reply half of read coalescing, mirroring
// ClientReplyBatch for writes.
type ReadReplyBatch struct {
	Replies []ReadReply
}

// ReadIndexRequest is the read path's one-round quorum confirmation:
// the serving replica captures its commit frontier, then asks its
// confirmers (the active acceptor for 1Paxos, a peer quorum otherwise)
// to vouch that it may serve — that they still recognize it as leader,
// or simply to report their own frontiers on leaderless engines. With
// Lease set the granted confirmation doubles as a time-bound lease:
// the granter promises not to help depose the holder until the lease
// expires, so the holder may serve reads locally without further
// rounds.
type ReadIndexRequest struct {
	Round uint64
	Lease bool
}

// ReadIndexAck answers a ReadIndexRequest. Frontier is the granter's
// commit frontier (valid when OK); the serving replica waits until its
// applied state covers the highest frontier of the round before
// serving. Hold (valid when !OK on a lease request) is how long a
// conflicting unexpired lease still runs, so the refused holder knows
// when to retry.
type ReadIndexAck struct {
	Round    uint64
	OK       bool
	Frontier int64
	Hold     int64
}

func (ReadRequest) Kind() string      { return "read_request" }
func (ReadReply) Kind() string        { return "read_reply" }
func (ReadReplyBatch) Kind() string   { return "read_reply_batch" }
func (ReadIndexRequest) Kind() string { return "read_index_request" }
func (ReadIndexAck) Kind() string     { return "read_index_ack" }

// WrapReadReplies packs one client's read replies into a single
// message, mirroring WrapReplies: the bare reply for exactly one, a
// ReadReplyBatch otherwise, nil for none.
func WrapReadReplies(replies []ReadReply) Message {
	switch len(replies) {
	case 0:
		return nil
	case 1:
		return replies[0]
	default:
		return ReadReplyBatch{Replies: replies}
	}
}
