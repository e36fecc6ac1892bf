package msg

import (
	"testing"
)

// TestReleaseEmptiesTheBox: Release zeroes a box's scalars and drops the
// slices it does not own, and a draw hands back the array a box owns
// cut to length 0 — released kinds never pin a payload, and never show
// a later sender what an earlier one carried. (Under msgpoison the box
// carries poison instead; TestPoisonOverwritesReleasedBoxes.)
func TestReleaseEmptiesTheBox(t *testing.T) {
	if poisoned {
		t.Skip("msgpoison: released boxes carry poison, not zeros")
	}
	batch := []BatchEntry{{Seq: 1}, {Seq: 2}}
	req := BoxRequest(NewRequest(3, 1, batch))
	Release(req)
	if req.Client != 0 || req.Seq != 0 || req.Batch != nil {
		t.Errorf("a released request still reads %+v", *req)
	}
	if batch[0].Seq != 1 || batch[1].Seq != 2 {
		t.Errorf("releasing a request cleared the batch it does not own: %+v", batch)
	}

	l := DrawLearn()
	l.Entries = append(l.Entries, Proposal{Instance: 4, Value: Value{Cmd: Command{Key: "k"}}})
	entries := l.Entries
	Release(l)
	if len(l.Entries) != 0 || entries[0].Instance != 0 || entries[0].Value.Cmd.Key != "" {
		t.Errorf("a released learn still holds %+v", entries[0])
	}
	if again := DrawLearn(); len(again.Entries) != 0 {
		t.Errorf("a drawn learn has %d entries, want 0", len(again.Entries))
	}

	r := DrawReadRequest(7, 2)
	r.Entries = append(r.Entries, BatchEntry{Seq: 9})
	Release(r)
	if r.Client != 0 || r.Mode != 0 || len(r.Entries) != 0 {
		t.Errorf("a released read request still reads %+v", *r)
	}

	// A message outside the pools is left alone.
	Release(ClientReply{Seq: 1})
	Release(ClientRequest{Seq: 1})
}

// TestReleasedArraysComeBack: the arrays a learn, a read request and the
// reply batches own survive their release, so a steady stream of draws
// allocates nothing once the pools are warm.
func TestReleasedArraysComeBack(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled boxes at random")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		l := DrawLearn()
		l.Entries = append(l.Entries, Proposal{Instance: 1})
		Release(l)
		r := DrawReadRequest(1, 0)
		r.Entries = append(r.Entries, BatchEntry{Seq: 1}, BatchEntry{Seq: 2})
		Release(r)
		b := DrawReadReplies()
		b.Replies = append(b.Replies, ReadReply{Seq: 1})
		Release(b)
		w := DrawReplies()
		w.Replies = append(w.Replies, ClientReply{Seq: 1}, ClientReply{Seq: 2})
		Release(w)
		Release(DrawAccept(1, 1, Value{}))
		Release(BoxRequest(ClientRequest{Seq: 1}))
	}); allocs != 0 {
		t.Errorf("a warm draw/release cycle allocates %.1f times, want 0", allocs)
	}
}

// TestRequestEncodesInBothForms: a ClientRequest value — what a harness
// builds by hand — encodes to the bytes its box does, and decodes to a
// box.
func TestRequestEncodesInBothForms(t *testing.T) {
	r := ClientRequest{Client: 3, Seq: 7, Cmd: Command{Op: OpPut, Key: "k", Val: "v"}, Ack: 6}
	byValue, err := AppendEnvelope(nil, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	byBox, err := AppendEnvelope(nil, 1, &r)
	if err != nil {
		t.Fatal(err)
	}
	if string(byValue) != string(byBox) {
		t.Fatalf("value and box encode differently:\n%x\n%x", byValue, byBox)
	}
	if _, m, err := DecodeEnvelope(byValue); err != nil || !Value(*m.(*ClientRequest)).Equal(Value(r)) {
		t.Fatalf("decoded %+v (%v), want a box holding %+v", m, err, r)
	}
	if b, ok := Boxed(r).(*ClientRequest); !ok || !Value(*b).Equal(Value(r)) {
		t.Fatalf("Boxed(%+v) = %+v", r, Boxed(r))
	}
}

// TestDecodeDrawsReleasedBoxes: a pooled kind decodes into a box drawn
// from its pool, reusing the array the box owns, so a receiver that
// releases what it decodes keeps the pool level — a fresh box per frame
// piled released boxes up on every TCP node. What decode still allocates
// is its codec (wireTypes) and the strings a frame carries; this frame
// has none.
func TestDecodeDrawsReleasedBoxes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled boxes at random")
	}
	for _, m := range []Message{
		&Learn{Entries: []Proposal{{Instance: 3, PN: 1}}},
		&ReadRequest{Client: 2, Entries: []BatchEntry{{Seq: 1}, {Seq: 2}}},
		&ReadReplyBatch{Replies: []ReadReply{{Seq: 1, OK: true}}},
		&ClientReplyBatch{Replies: []ClientReply{{Seq: 1}, {Seq: 2}}},
		&Accept{Instance: 4, PN: 2},
		&ClientRequest{Client: 1, Seq: 1},
	} {
		payload, err := AppendEnvelope(nil, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			_, got, err := DecodeEnvelope(payload)
			if err != nil {
				t.Fatal(err)
			}
			Release(got)
		}); allocs > 1 {
			t.Errorf("%T: decode and release allocate %.0f times, want 1 (the codec)", m, allocs)
		}
	}
}
