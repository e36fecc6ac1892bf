// Package snapshot is the recovery subsystem: it bounds a replica's
// memory and lets crashed or lagging replicas rejoin their agreement
// group.
//
// The paper's agreement service runs inside a machine for the lifetime
// of the OS, so "the actual long-term memory of the system" (Section
// 4.1, the learners) cannot be allowed to grow without bound — and a
// replaced core must be able to learn what the group decided while it
// was gone (the paper's acceptor/leader replacement assumes exactly
// that). This package supplies both halves:
//
//   - A versioned, wire-encoded snapshot (Encode/Decode) capturing a
//     replica's durable state: the applied state-machine image
//     (State.SnapshotState), the client-session frontiers
//     (rsm.Sessions.Export — so exactly-once dedupe survives recovery),
//     and the last applied instance.
//
//   - A Manager every engine embeds. Every SnapshotInterval applied
//     instances it raises the log's compaction floor to the previous
//     tick's frontier (rsm.Log.CompactTo) — encoding nothing: the live
//     state machine is the snapshot of what was dropped. It answers
//     peers' msg.CatchupRequest with the retained log suffix, or, for a
//     peer below the floor, with a snapshot captured then and there at
//     its own applied frontier, chunked, plus the suffix above it; and
//     — on a replica started in Recover mode — it streams that state
//     from a live peer until the replica has converged.
//
// The floor always lags at least one interval behind the frontier: the
// most recent interval's entries stay retained, so prepare answers and
// catch-ups for mildly lagging peers are served from the log, and only
// a peer below the floor pays for a full state transfer — and only
// then does its server pay for a capture.
package snapshot

import (
	"fmt"

	"consensusinside/internal/rsm"
	"consensusinside/internal/wire"
)

// Version is the snapshot encoding version, the first byte of every
// encoded snapshot. Decode rejects anything else: a snapshot is
// long-term state, so unlike a protocol message it must carry its
// format's identity.
const Version = 1

// State is the face a state machine shows the recovery subsystem: an
// opaque, deterministic image of everything Apply has built, and the
// way to become that image. rsm.KV implements it; appliers that do not
// cannot be snapshotted (their replicas serve catch-up from the log
// only).
type State interface {
	// SnapshotState encodes the current state deterministically.
	SnapshotState() []byte
	// RestoreState replaces the state with a SnapshotState image.
	RestoreState(data []byte) error
}

// Snapshot is a replica's durable state at one applied frontier.
type Snapshot struct {
	// LastApplied is the highest applied instance the snapshot covers;
	// -1 for engines without an instance-indexed log (2PC), whose
	// snapshot is pure state.
	LastApplied int64
	// State is the applier's SnapshotState image.
	State []byte
	// Lanes is the session table's exported per-lane dedupe state.
	Lanes []rsm.LaneState
}

// maxDecodeCap bounds pre-allocation while decoding counts, mirroring
// the message codec's guard: a hostile count never turns a small input
// into a huge allocation.
const maxDecodeCap = 4096

// wire is the snapshot's layout: the version byte, then the frontier,
// the state image and the session lanes, each lane with its retained
// entries. Reading grows the two slices one decoded element at a time.
func (s *Snapshot) wire(c *wire.Codec) {
	version := byte(Version)
	c.Byte(&version)
	if version != Version {
		c.Fail(fmt.Errorf("unknown version %d", version))
	}
	c.Varint(&s.LastApplied)
	c.Bytes(&s.State)
	lanes := c.Len(len(s.Lanes))
	if c.Reading() && lanes > 0 {
		s.Lanes = make([]rsm.LaneState, 0, min(lanes, maxDecodeCap))
	}
	for i := 0; i < lanes && c.Err() == nil; i++ {
		if c.Reading() {
			s.Lanes = append(s.Lanes, rsm.LaneState{})
		}
		lane := &s.Lanes[i]
		c.Int((*int)(&lane.Client))
		c.Uvarint(&lane.Base)
		c.Uvarint(&lane.Floor)
		c.Uvarint(&lane.Pruned)
		c.Uvarint(&lane.Ack)
		c.Uvarint(&lane.MaxSeq)
		entries := c.Len(len(lane.Entries))
		if c.Reading() && entries > 0 {
			lane.Entries = make([]rsm.LaneEntry, 0, min(entries, maxDecodeCap))
		}
		for j := 0; j < entries && c.Err() == nil; j++ {
			if c.Reading() {
				lane.Entries = append(lane.Entries, rsm.LaneEntry{})
			}
			e := &lane.Entries[j]
			c.Uvarint(&e.Seq)
			c.Varint(&e.Instance)
			c.String(&e.Result)
		}
	}
}

// sizeHint estimates Encode's output so that a capture, which runs on
// the serving replica's own goroutine, allocates its image once instead of by append's
// doublings. A short estimate is harmless: appending still grows.
func sizeHint(s *Snapshot) int {
	n := 16 + len(s.State)
	for _, lane := range s.Lanes {
		n += 32 + 12*len(lane.Entries) // typical varint widths, not bounds
		for _, e := range lane.Entries {
			n += len(e.Result)
		}
	}
	return n
}

// Encode renders s in the wire format. Equal snapshots encode to equal
// bytes (State images are deterministic and rsm.Sessions.Export orders
// lanes).
func Encode(s Snapshot) []byte {
	c := wire.NewAppender(make([]byte, 0, sizeHint(&s)))
	s.wire(&c)
	return c.Buf()
}

// Decode parses an Encode image. It is strict, like the envelope
// decoder: a version mismatch, truncation, a hostile count or trailing
// bytes all fail — an undecodable snapshot must never be installed
// half-read.
func Decode(data []byte) (Snapshot, error) {
	var s Snapshot
	c := wire.NewReader(data)
	s.wire(&c)
	if err := c.Finish(); err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: decode: %w", err)
	}
	return s, nil
}
