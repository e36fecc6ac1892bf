package msg

// Codec round-trip property tests: for every message type — including
// empty/nil batches and max-size values — the wire codec must decode a
// message to the struct encoding/gob decodes it to. gob is the
// differential reference and exists nowhere else in the repository: it
// derives its encoding from the type by reflection, so it cannot share
// a hand-written encoder's mistake. Plus strictness tests (a corrupt
// frame must fail, never panic or misdecode) and a fuzz target for
// envelope decoding.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"consensusinside/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/wire_frames.golden from this run (only for an intended format change)")

// bigString is a max-size-ish value payload (1 MiB) to exercise length
// handling far beyond the varint fast path.
var bigString = strings.Repeat("x", 1<<20)

// wireSamples returns at least one instance of every wire-registered
// message type, plus edge-case variants: zero values, nil vs empty
// batches, Nobody ids, negative instances, max uint64 sequence numbers
// and megabyte values.
func wireSamples() []Message {
	bigBatch := make([]BatchEntry, 40)
	for i := range bigBatch {
		bigBatch[i] = BatchEntry{Seq: uint64(i), Cmd: Command{Op: OpPut, Key: fmt.Sprintf("k%d", i), Val: "v"}}
	}
	val := Value{Client: 7, Seq: 9, Cmd: Command{Op: OpPut, Key: "k", Val: "v"}, Ack: 3}
	batched := NewValue(7, 3, bigBatch)
	props := []Proposal{
		{Instance: 0, PN: 0, Value: Value{}},
		{Instance: -5, PN: math.MaxUint64, Value: batched},
		{Instance: 1 << 40, PN: 2, Value: val},
	}
	entry := UtilEntry{Type: EntryAcceptorChange, Leader: 2, Acceptor: Nobody, Uncommitted: props, Frontier: -1}
	return []Message{
		// Client traffic.
		&ClientRequest{},
		&ClientRequest{Client: 1, Seq: 2, Cmd: Command{Op: OpGet, Key: "k"}, Ack: 1},
		&ClientRequest{Client: Nobody, Seq: math.MaxUint64, Cmd: Command{Op: OpPut, Key: "k", Val: bigString}},
		&ClientRequest{Client: 3, Seq: 10, Ack: 9, Batch: bigBatch},
		&ClientRequest{Client: 3, Seq: 10, Batch: []BatchEntry{}}, // empty, not nil
		ClientReply{},
		ClientReply{Seq: 5, Instance: -1, OK: true, Result: bigString, Redirect: Nobody},
		&ClientReplyBatch{},
		&ClientReplyBatch{Replies: []ClientReply{}},
		&ClientReplyBatch{Replies: []ClientReply{{Seq: 1, OK: true}, {Seq: 2, Redirect: 2}}},
		// 1Paxos.
		PrepareRequest{},
		PrepareRequest{PN: 9, MustBeFresh: true, From: 77},
		Promise{},
		Promise{From: 1, PN: 3, Accepted: props, Floor: 1 << 30},
		Abandon{HPN: 8, FreshMismatch: true, IamFresh: true},
		&Accept{},
		&Accept{Instance: 12, PN: 4, Value: batched},
		&Learn{},
		&Learn{Entries: []Proposal{}},
		&Learn{Entries: props},
		// PaxosUtility.
		SlotPrepare{Slot: -3, PN: 1},
		UtilPromise{},
		UtilPromise{Slot: 2, PN: 3, AcceptedPN: 1, Accepted: entry},
		UtilAccept{Slot: 2, PN: 3, Entry: entry},
		UtilAccepted{Slot: 2, PN: 3, Entry: entry, From: 1},
		SlotNack{Slot: 4, PN: 9},
		// Multi-Paxos.
		MPPrepare{PN: 2, FromInstance: -1},
		Promise{From: 1, PN: 2, Accepted: props, Floor: -1},
		&Accept{Instance: 3, PN: 2, Value: val},
		Accepted{Instance: 3, PN: 2, Value: batched, From: 2},
		MPNack{PN: math.MaxUint64},
		// 2PC.
		TPCPrepare{TxID: -9, Value: batched},
		TPCAck{TxID: 1, From: 2, OK: true},
		TPCCommit{TxID: 1, Value: val},
		TPCCommitAck{TxID: 1, From: Nobody},
		TPCRollback{TxID: 1 << 50},
		// Mencius.
		&Accept{Instance: 5, PN: 1, Value: val},
		Accepted{Instance: 5, PN: 1, Value: batched, From: 0},
		MencSkip{FromInstance: 10, ToInstance: 20, From: 1},
		// Basic Paxos.
		SlotPrepare{Slot: 1, PN: 2},
		BPPromise{Instance: 1, PN: 2, From: 0, AcceptedPN: 1, Accepted: batched},
		&Accept{Instance: 1, PN: 2, Value: val},
		Accepted{Instance: 1, PN: 2, Value: val, From: 2},
		SlotNack{Slot: -1, PN: 3},
		// Snapshot catch-up.
		CatchupRequest{},
		CatchupRequest{From: 1 << 33},
		SnapshotChunk{},
		SnapshotChunk{Seq: 3, Last: true, Data: []byte(bigString[:4096])},
		SnapshotChunk{Data: []byte{}}, // empty, not nil
		CatchupEntries{},
		CatchupEntries{Done: true},
		CatchupEntries{Entries: []Decided{{Instance: -1, Value: Value{}}, {Instance: 7, Value: batched}}, Done: true},
		// Read fast path.
		&ReadRequest{},
		&ReadRequest{Client: Nobody, Mode: 3, Entries: []BatchEntry{}},
		&ReadRequest{Client: 2, Mode: 1, Entries: bigBatch},
		ReadReply{},
		ReadReply{Seq: math.MaxUint64, OK: true, Result: bigString, Redirect: Nobody},
		&ReadReplyBatch{},
		&ReadReplyBatch{Replies: []ReadReply{}},
		&ReadReplyBatch{Replies: []ReadReply{{Seq: 1, OK: true, Result: "v"}, {Seq: 2, Redirect: 2}}},
		ReadIndexRequest{},
		ReadIndexRequest{Round: math.MaxUint64, Lease: true},
		ReadIndexAck{},
		ReadIndexAck{Round: 9, OK: true, Frontier: -1, Hold: 1 << 40},
		// Fault-era traffic: the shapes scenario fuzzing puts on the wire
		// mid-storm. A snapshot transfer cut by a partition leaves
		// mid-stream chunks (nonzero Seq, not Last) and restarts at Seq 0;
		// catch-up pushes arrive partial (entries without Done); lease
		// rounds come back as refusals carrying the conflicting hold;
		// reads bounce off catching-up replicas as redirects; and the
		// utility backfills regime-log gaps with zero no-op entries.
		SnapshotChunk{Seq: 17, Data: []byte(bigString[:512])},
		SnapshotChunk{Seq: 0, Data: []byte{0xff}},
		CatchupEntries{Entries: []Decided{{Instance: 40, Value: val}}},
		ReadIndexAck{Round: 12, OK: false, Frontier: 88, Hold: int64(6 * 1000 * 1000)},
		ReadReply{Seq: 31, OK: false, Redirect: 2},
		UtilAccept{Slot: 8, PN: 3, Entry: UtilEntry{}},
		UtilAccepted{Slot: 8, PN: 3, Entry: UtilEntry{}, From: 2},
	}
}

// registerGob tells encoding/gob about every concrete message type, so
// it can encode Message interface values. wireSamples holds at least
// one value of each (TestWireTagCoverage), and registering a type twice
// is harmless.
var registerGob = sync.OnceFunc(func() {
	for _, m := range wireSamples() {
		gob.Register(m)
	}
})

func gobRoundTrip(t *testing.T, from NodeID, m Message) (NodeID, Message) {
	t.Helper()
	registerGob()
	type envelope struct {
		From NodeID
		M    Message
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{From: from, M: m}); err != nil {
		t.Fatalf("gob encode %T: %v", m, err)
	}
	var out envelope
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", m, err)
	}
	return out.From, out.M
}

// sampleFrom is the sender id sample i travels under: the small ids
// replicas have, and Nobody every seventh sample.
func sampleFrom(i int) NodeID {
	if i%7 == 0 {
		return Nobody
	}
	return NodeID(i % 5)
}

// goldenFrames is testdata/wire_frames.golden: one "Kind<TAB>bytes"
// line per wireSamples() entry, the bytes being AppendEnvelope's output
// in hex. The file was written from the code before the layouts were
// folded into one function per type and pins the format since: a frame
// written then must be the frame written now. A megabyte sample is held
// as "sha256:<digest>:<length>" instead — it pins the bytes as exactly
// without committing megabytes of 'x'.
const goldenFrames = "testdata/wire_frames.golden"

func goldenLine(m Message, payload []byte) string {
	if len(payload) >= 8<<10 {
		return fmt.Sprintf("%s\tsha256:%x:%d", m.Kind(), sha256.Sum256(payload), len(payload))
	}
	return fmt.Sprintf("%s\t%x", m.Kind(), payload)
}

// TestWireGobEquivalence is the codec property test: both codecs must
// round-trip every sample to the same struct (gob folds empty slices to
// nil; the wire codec matches that deliberately), the bytes must be the
// golden file's, and the golden file's bytes must decode to that struct
// too.
func TestWireGobEquivalence(t *testing.T) {
	samples := wireSamples()
	var payloads [][]byte
	var lines []string
	for i, m := range samples {
		payload, err := AppendEnvelope(nil, sampleFrom(i), m)
		if err != nil {
			t.Fatalf("AppendEnvelope(%T): %v", m, err)
		}
		payloads = append(payloads, payload)
		lines = append(lines, goldenLine(m, payload))
	}
	if *update {
		if err := os.WriteFile(goldenFrames, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenFrames)
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(golden) != len(samples) {
		t.Fatalf("%s has %d lines, wireSamples has %d entries", goldenFrames, len(golden), len(samples))
	}
	for i, m := range samples {
		from := sampleFrom(i)
		wFrom, wMsg, err := DecodeEnvelope(payloads[i])
		if err != nil {
			t.Fatalf("DecodeEnvelope(%T): %v", m, err)
		}
		gFrom, gMsg := gobRoundTrip(t, from, m)
		if wFrom != gFrom || wFrom != from {
			t.Errorf("sample %d (%T): from mismatch: wire %d, gob %d, want %d", i, m, wFrom, gFrom, from)
		}
		if !reflect.DeepEqual(wMsg, gMsg) {
			t.Errorf("sample %d (%T): wire and gob decode diverge:\nwire: %+v\ngob:  %+v", i, m, wMsg, gMsg)
		}
		if golden[i] != lines[i] {
			t.Errorf("sample %d (%T): the wire format changed:\n got %.120s\nwant %.120s", i, m, lines[i], golden[i])
		}
		kind, hexBytes, _ := strings.Cut(golden[i], "\t")
		if strings.HasPrefix(hexBytes, "sha256:") {
			continue
		}
		frame, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatalf("%s line %d: %v", goldenFrames, i+1, err)
		}
		oFrom, oMsg, err := DecodeEnvelope(frame)
		if err != nil || oFrom != from || oMsg.Kind() != kind || !reflect.DeepEqual(oMsg, gMsg) {
			t.Errorf("sample %d (%T): golden frame decodes to (%d, %+v, %v)", i, m, oFrom, oMsg, err)
		}
	}
}

// TestWireTagCoverage demands a sample (and therefore a round-trip
// test against the gob reference) for every registered wire type.
func TestWireTagCoverage(t *testing.T) {
	covered := map[byte]bool{}
	for _, m := range wireSamples() {
		payload, err := AppendEnvelope(nil, 0, m)
		if err != nil {
			t.Fatalf("sample %T has no wire tag: %v", m, err)
		}
		covered[payload[0]] = true
	}
	for _, wt := range wireTypes {
		if !covered[wt.tag] {
			t.Errorf("wire tag %d has no round-trip sample", wt.tag)
		}
	}
	if got, want := len(wireTypes), len(covered); got != want {
		t.Errorf("wireTypes has %d entries, samples cover %d types", got, want)
	}
}

// TestDecodeEnvelopeStrict pins the decoder's corruption behavior:
// truncations, unknown and retired tags and trailing bytes all error,
// never panic — for every sample, at every offset.
func TestDecodeEnvelopeStrict(t *testing.T) {
	if _, _, err := DecodeEnvelope(nil); err == nil {
		t.Error("empty payload decoded")
	}
	for i, m := range wireSamples() {
		payload, err := AppendEnvelope(nil, sampleFrom(i), m)
		if err != nil {
			t.Fatal(err)
		}
		// Every cut of a small sample; the megabyte ones are one long run
		// of string bytes, so a stride covers them.
		stride := 1 + len(payload)/4096
		for cut := 1; cut < len(payload); cut += stride {
			if _, _, err := DecodeEnvelope(payload[:cut]); err == nil {
				t.Fatalf("sample %d (%T): truncation at %d/%d decoded", i, m, cut, len(payload))
			}
		}
		if _, _, err := DecodeEnvelope(append(payload[:len(payload):len(payload)], 0)); err == nil {
			t.Errorf("sample %d (%T): trailing byte accepted", i, m)
		}
		// The corrupt-frame marker, an unregistered tag, and every retired
		// tag (init refuses a wireTypes row that claims one) under a body
		// its old kind may have carried.
		bad := append([]byte{}, payload...)
		for _, tag := range append([]byte{0, 200}, retiredTags[:]...) {
			bad[0] = tag
			if _, got, err := DecodeEnvelope(bad); err == nil {
				t.Errorf("sample %d (%T): tag %d decoded as %T", i, m, tag, got)
			}
		}
	}
	if _, _, err := DecodeEnvelope([]byte{HelloTag, 2}); err == nil {
		t.Error("reserved hello tag decoded as a message")
	}
	// A huge claimed slice length must fail the count guard, not attempt
	// the allocation.
	huge := []byte{tagLearn, 2 /* from */, 0xff, 0xff, 0xff, 0xff, 0x0f /* ~4G proposals */}
	if _, _, err := DecodeEnvelope(huge); err == nil {
		t.Error("absurd slice count decoded")
	}
	// A count the input can back byte for byte passes that guard, but
	// must not be trusted for the first make(): a megabyte of input
	// claiming a million proposals (~100 MB of them) fails at its first
	// element having allocated no more than decodeSliceCap of them.
	const claimed = 1 << 20
	hostile := append([]byte{tagLearn, 2, 0x80, 0x80, 0x40}, bytes.Repeat([]byte{0x80}, claimed)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeEnvelope(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a million truncated proposals decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("a hostile count allocated %d bytes up front; the pre-allocation cap is gone", grew)
	}
}

// TestEncodeAllocatesNothing demands zero allocations from every
// sample's encode: the codec and the message copy stay on the encoder's
// stack, and the buffer — grown once, on the warm-up run — is the only
// memory. The count runs on a buffer the test owns, as large as a fresh
// pooled one, so no pool draw falls inside it. Outside the race
// detector, which drops a quarter of a sync.Pool's Puts, the transport
// writer's pooled GetBuf/PutBuf round trip is held at zero too; a
// buffer as large as the megabyte samples need is never pooled, so
// they skip it.
func TestEncodeAllocatesNothing(t *testing.T) {
	for i, m := range wireSamples() {
		from := sampleFrom(i)
		encode := func(buf *[]byte) {
			b, err := AppendEnvelope(wire.BeginFrame(*buf), from, m)
			if err == nil {
				b, err = wire.EndFrame(b)
			}
			if err != nil {
				t.Fatal(err)
			}
			*buf = b[:0]
		}
		own := make([]byte, 0, 1024) // what the pool's New hands out
		if allocs := testing.AllocsPerRun(100, func() { encode(&own) }); allocs != 0 {
			t.Errorf("sample %d (%T): encode allocates %.0f times per message", i, m, allocs)
		}
		if payload, _ := AppendEnvelope(nil, from, m); raceEnabled || len(payload) >= 8<<10 {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf := wire.GetBuf()
			encode(buf)
			wire.PutBuf(buf)
		}); allocs != 0 {
			t.Errorf("sample %d (%T): a pooled encode allocates %.0f times per message", i, m, allocs)
		}
	}
}

// FuzzDecodeEnvelope throws arbitrary bytes at the envelope decoder: it
// must never panic, and anything it accepts must re-encode and decode
// to the same message (the codec is canonical on its own output).
func FuzzDecodeEnvelope(f *testing.F) {
	for _, m := range wireSamples() {
		// Seed every type but skip the megabyte variants: huge seeds
		// make each fuzz exec IO-bound without covering new code.
		if payload, err := AppendEnvelope(nil, 1, m); err == nil && len(payload) < 8<<10 {
			f.Add(payload)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{retiredTags[1], 2, 6, 2, 0x0e, 9, 4, 1, 'k', 1, 'v', 3, 0}) // a mp_accept frame
	f.Add([]byte{tagLearn, 2, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		from, m, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		re, err := AppendEnvelope(nil, from, m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		from2, m2, err := DecodeEnvelope(re)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		if from2 != from || !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip diverged: (%d, %+v) vs (%d, %+v)", from, m, from2, m2)
		}
	})
}
