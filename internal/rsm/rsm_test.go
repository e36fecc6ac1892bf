package rsm

import (
	"reflect"
	"testing"
	"testing/quick"

	"consensusinside/internal/msg"
	"consensusinside/internal/shard"
)

func val(client msg.NodeID, seq uint64, op msg.Op, key, v string) msg.Value {
	return msg.Value{Client: client, Seq: seq, Cmd: msg.Command{Op: op, Key: key, Val: v}}
}

// newLog builds a log committing into kv through a fresh session table,
// the way every replica builds its own.
func newLog(kv *KV) *Log { return NewLog(Dedup{Sessions: NewSessions(), Inner: kv}) }

// commitOne commits a single-command value at instance through d and
// returns its result and how many commands ran.
func commitOne(d Dedup, instance int64, v msg.Value) (string, int) {
	results := make([]string, 1)
	ran := d.Commit(instance, v, results)
	return results[0], ran
}

// lookup reports the stored result for (client, seq) when that exact
// command committed and its result is still retained.
func lookup(s *Sessions, client msg.NodeID, seq uint64) (instance int64, result string, ok bool) {
	cs, seq := s.lane(client, seq, false)
	if cs == nil {
		return 0, "", false
	}
	if e := cs.committed(seq); e != nil {
		return e.instance, e.result, true
	}
	return 0, "", false
}

func TestKVApply(t *testing.T) {
	kv := NewKV()
	if got := kv.Apply(val(1, 1, msg.OpPut, "a", "1")); got != "1" {
		t.Errorf("put result = %q, want 1", got)
	}
	if got := kv.Apply(val(1, 2, msg.OpGet, "a", "")); got != "1" {
		t.Errorf("get result = %q, want 1", got)
	}
	if got := kv.Apply(val(1, 3, msg.OpGet, "missing", "")); got != "" {
		t.Errorf("missing get = %q, want empty", got)
	}
	if got := kv.Apply(val(1, 4, msg.OpNoop, "", "")); got != "" {
		t.Errorf("noop = %q, want empty", got)
	}
	if v, ok := kv.Get("a"); !ok || v != "1" {
		t.Errorf("Get(a) = %q,%v", v, ok)
	}
	if kv.Len() != 1 {
		t.Errorf("Len = %d, want 1", kv.Len())
	}
}

func TestLogAppliesInOrder(t *testing.T) {
	kv := NewKV()
	log := newLog(kv)
	var applied []int64
	log.OnApply(func(e Entry, results []string) { applied = append(applied, e.Instance) })

	log.Learn(2, val(1, 3, msg.OpPut, "c", "3"))
	log.Learn(0, val(1, 1, msg.OpPut, "a", "1"))
	if len(applied) != 1 || applied[0] != 0 {
		t.Fatalf("applied %v, want [0] (instance 1 missing)", applied)
	}
	if got := log.NextToApply(); got != 1 {
		t.Fatalf("NextToApply = %d, want 1", got)
	}
	if pend := log.PendingInstances(); len(pend) != 1 || pend[0] != 2 {
		t.Fatalf("PendingInstances = %v, want [2]", pend)
	}
	log.Learn(1, val(1, 2, msg.OpPut, "b", "2"))
	if len(applied) != 3 {
		t.Fatalf("applied %v, want all three after the gap fills", applied)
	}
	if got := log.Applied(); got != 3 {
		t.Fatalf("Applied = %d, want 3", got)
	}
	if v, _ := kv.Get("c"); v != "3" {
		t.Fatalf("kv[c] = %q", v)
	}
}

func TestLogIdempotentLearn(t *testing.T) {
	log := newLog(NewKV())
	v := val(1, 1, msg.OpPut, "a", "1")
	log.Learn(0, v)
	log.Learn(0, v) // same value again: fine
	if log.Applied() != 1 {
		t.Fatalf("Applied = %d, want 1", log.Applied())
	}
	if !log.Learned(0) || log.Learned(1) {
		t.Fatal("Learned bookkeeping wrong")
	}
}

func TestLogPanicsOnConflictingLearn(t *testing.T) {
	mustPanic := func(what string, learn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: conflicting learn must panic (safety violation)", what)
			}
		}()
		learn()
	}
	log := newLog(NewKV())
	log.Learn(0, val(1, 1, msg.OpPut, "a", "1"))
	mustPanic("uncompacted", func() { log.Learn(0, val(2, 9, msg.OpPut, "b", "2")) })

	// A compacted log (floor > 0) checks an applied instance against its
	// retained entry, at instance - floor.
	l := newLog(NewKV())
	fillLog(l, 10) // instance i carries seq i+1
	l.CompactTo(4)
	l.Learn(6, val(1, 7, msg.OpPut, "k", "v")) // the same value again: a no-op
	if l.Applied() != 10 || l.Retained() != 6 || l.Floor() != 4 {
		t.Fatalf("re-learning an applied value changed the log: applied=%d retained=%d floor=%d",
			l.Applied(), l.Retained(), l.Floor())
	}
	mustPanic("compacted", func() { l.Learn(6, val(1, 6, msg.OpPut, "k", "v")) })
}

func TestLogPanicsOnConflictingPendingLearn(t *testing.T) {
	log := newLog(NewKV())
	log.Learn(5, val(1, 1, msg.OpPut, "a", "1")) // pending (gap below)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting pending learn must panic")
		}
	}()
	log.Learn(5, val(2, 9, msg.OpPut, "b", "2"))
}

func TestLogSince(t *testing.T) {
	log := newLog(NewKV())
	for i := int64(0); i < 5; i++ {
		log.Learn(i, val(1, uint64(i+1), msg.OpPut, "k", "v"))
	}
	if got := log.Since(3); len(got) != 2 || got[0].Instance != 3 || got[1].Instance != 4 {
		t.Fatalf("Since(3) = %+v", got)
	}
	if got := log.Since(0); len(got) != 5 {
		t.Fatalf("Since(0) = %d entries, want 5", len(got))
	}
	if got := log.Since(10); len(got) != 0 {
		t.Fatalf("Since(10) = %+v, want empty", got)
	}
}

func TestHistoryIsCopy(t *testing.T) {
	log := newLog(NewKV())
	log.Learn(0, val(1, 1, msg.OpPut, "a", "1"))
	h := log.History()
	h[0].Value.Cmd.Key = "mutated"
	if log.History()[0].Value.Cmd.Key != "a" {
		t.Fatal("History must return a copy")
	}
}

func TestSessions(t *testing.T) {
	s := NewSessions()
	if s.Seen(1, 1) {
		t.Fatal("fresh sessions must not have seen anything")
	}
	s.Done(1, 1, 10, "r1")
	if !s.Seen(1, 1) {
		t.Fatal("Seen(1,1) after Done")
	}
	inst, res, ok := lookup(s, 1, 1)
	if !ok || inst != 10 || res != "r1" {
		t.Fatalf("Lookup = (%d,%q,%v)", inst, res, ok)
	}
	// Lower or different seq doesn't match exactly.
	if _, _, ok := lookup(s, 1, 2); ok {
		t.Fatal("Lookup(1,2) must miss")
	}
	// Out-of-order commits (a pipelined window) are all retained exactly.
	s.Done(1, 5, 20, "r5")
	s.Done(1, 3, 15, "r3")
	if _, res, ok := lookup(s, 1, 5); !ok || res != "r5" {
		t.Fatal("Lookup(1,5) lost")
	}
	if _, res, ok := lookup(s, 1, 3); !ok || res != "r3" {
		t.Fatal("out-of-order Done must be retained, not dropped as stale")
	}
	// An uncommitted seq between committed ones is NOT seen: with a
	// pipelined client it may still commit later.
	if s.Seen(1, 4) {
		t.Fatal("Seen(1,4) must be false: seq 4 never committed")
	}
	// First commit wins over a duplicate re-commit.
	s.Done(1, 3, 99, "other")
	if inst, res, _ := lookup(s, 1, 3); inst != 15 || res != "r3" {
		t.Fatalf("duplicate Done overwrote original: (%d, %q)", inst, res)
	}
}

func TestSessionsWindowPruning(t *testing.T) {
	s := NewSessionsWindow(4)
	for seq := uint64(1); seq <= 10; seq++ {
		s.Done(1, seq, int64(seq), "r")
	}
	// Only the newest window survives exact lookup...
	if _, _, ok := lookup(s, 1, 10); !ok {
		t.Fatal("newest entry lost")
	}
	if _, _, ok := lookup(s, 1, 7); !ok {
		t.Fatal("in-window entry lost")
	}
	if _, _, ok := lookup(s, 1, 2); ok {
		t.Fatal("pruned entry still resolvable")
	}
	// ...but pruned seqs remain Seen (committed-and-forgotten).
	for seq := uint64(1); seq <= 10; seq++ {
		if !s.Seen(1, seq) {
			t.Fatalf("Seen(1,%d) = false after commit", seq)
		}
	}
	if s.Seen(1, 11) {
		t.Fatal("future seq must not be seen")
	}
}

func TestSessionsStuckSeqNotFalselySeen(t *testing.T) {
	// The window bounds retained results, not the seq span: one old
	// command still outstanding must never be reported committed no
	// matter how many newer seqs commit past it.
	s := NewSessionsWindow(4)
	for seq := uint64(2); seq <= 50; seq++ {
		s.Done(1, seq, int64(seq), "r")
	}
	if s.Seen(1, 1) {
		t.Fatal("outstanding seq 1 falsely reported committed")
	}
	// Its eventual commit stores the result and unblocks the frontier.
	s.Done(1, 1, 100, "late")
	if !s.Seen(1, 1) {
		t.Fatal("seq 1 must be seen after committing")
	}
	if !s.Seen(1, 30) {
		t.Fatal("frontier must cover the contiguous prefix")
	}
	if s.Seen(1, 51) {
		t.Fatal("uncommitted future seq reported committed")
	}
}

func TestSessionsAckRetention(t *testing.T) {
	// A committed command whose reply never reached the client keeps its
	// stored result for as long as the client reports it outstanding —
	// regardless of how many newer seqs commit past the window.
	s := NewSessionsWindow(4)
	s.Done(1, 1, 10, "keep")
	for seq := uint64(2); seq <= 100; seq++ {
		s.ClientAck(1, 1) // client still waiting on seq 1
		s.Done(1, seq, int64(seq), "r")
	}
	if _, res, ok := lookup(s, 1, 1); !ok || res != "keep" {
		t.Fatalf("unacked result lost: (%q, %v)", res, ok)
	}
	// Once the client acknowledges past it, it may be discarded...
	s.ClientAck(1, 90)
	if _, _, ok := lookup(s, 1, 1); ok {
		t.Fatal("acked result not discarded")
	}
	// ...but it remains known-committed.
	if !s.Seen(1, 1) {
		t.Fatal("acked seq must stay seen")
	}
	// Results at or above the ack stay resolvable.
	if _, res, ok := lookup(s, 1, 95); !ok || res != "r" {
		t.Fatalf("in-ack-range result lost: (%q, %v)", res, ok)
	}
}

func TestSessionsQuickExactness(t *testing.T) {
	// Property: with no pruning in range (window 1024 >> uint8 seqs),
	// Seen(c, s) is true iff s was actually recorded with Done.
	f := func(seqs []uint8) bool {
		s := NewSessions()
		done := make(map[uint64]bool)
		for _, raw := range seqs {
			seq := uint64(raw)
			s.Done(1, seq, int64(seq), "x")
			done[seq] = true
		}
		for probe := uint64(0); probe <= 260; probe++ {
			if s.Seen(1, probe) != done[probe] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDedupApplier(t *testing.T) {
	sessions := NewSessions()
	kv := NewKV()
	d := Dedup{Sessions: sessions, Inner: kv}

	v := val(1, 1, msg.OpPut, "a", "1")
	if got, ran := commitOne(d, 0, v); got != "1" || ran != 1 {
		t.Fatalf("first commit = %q (ran %d)", got, ran)
	}
	if _, res, ok := lookup(sessions, 1, 1); !ok || res != "1" {
		t.Fatalf("first commit not recorded: (%q, %v)", res, ok)
	}
	// Same command again: returns the stored result, no re-execution.
	kv.Apply(val(9, 9, msg.OpPut, "a", "other")) // mutate underneath
	if got, ran := commitOne(d, 1, v); got != "1" || ran != 0 {
		t.Fatalf("duplicate commit = %q (ran %d), want stored result", got, ran)
	}
	// An older seq that never committed is NOT a duplicate under a
	// pipelined window: it executes normally.
	sessions.Done(1, 5, 1, "r5")
	if got, ran := commitOne(d, 2, val(1, 2, msg.OpPut, "a", "late")); got != "late" || ran != 1 {
		t.Fatalf("late pipelined commit = %q (ran %d), want executed", got, ran)
	}
	// But a seq below the contiguous frontier whose result was pruned is
	// known-committed: suppressed.
	small := Dedup{Sessions: NewSessionsWindow(2), Inner: kv}
	for seq := uint64(1); seq <= 10; seq++ {
		small.Sessions.Done(1, seq, int64(seq), "r")
	}
	if got, ran := commitOne(small, 11, val(1, 7, msg.OpPut, "a", "forgotten")); got != "" || ran != 0 {
		t.Fatalf("pruned-seq commit = %q (ran %d), want suppressed", got, ran)
	}
	// Noops pass through harmlessly.
	if got, ran := commitOne(d, 3, msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}}); got != "" || ran != 0 {
		t.Fatalf("noop = %q (ran %d)", got, ran)
	}
}

func TestLogQuickRandomOrderApplication(t *testing.T) {
	// Property: learning instances 0..n-1 in any order applies them all,
	// in instance order, exactly once.
	f := func(perm []uint8) bool {
		n := len(perm)
		if n == 0 {
			return true
		}
		// Build a permutation of 0..n-1 from the random bytes.
		order := make([]int64, n)
		for i := range order {
			order[i] = int64(i)
		}
		for i := n - 1; i > 0; i-- {
			j := int(perm[i]) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		log := newLog(NewKV())
		var applied []int64
		log.OnApply(func(e Entry, _ []string) { applied = append(applied, e.Instance) })
		for _, in := range order {
			log.Learn(in, val(1, uint64(in+1), msg.OpPut, "k", "v"))
		}
		if len(applied) != n {
			return false
		}
		for i, in := range applied {
			if in != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSessionsShardLanes(t *testing.T) {
	// A sharded client tags each lane's seqs with the shard index in the
	// high bits; every lane must get its own contiguous frontier and
	// retention window, with no aliasing between lanes.
	s := NewSessionsWindow(4)
	lane0 := func(seq uint64) uint64 { return shard.TagSeq(0, seq) }
	lane1 := func(seq uint64) uint64 { return shard.TagSeq(1, seq) }

	s.Done(1, lane0(1), 10, "l0-1")
	s.Done(1, lane1(1), 10, "l1-1")
	if _, res, ok := lookup(s, 1, lane0(1)); !ok || res != "l0-1" {
		t.Fatalf("lane 0 result = (%q, %v)", res, ok)
	}
	if _, res, ok := lookup(s, 1, lane1(1)); !ok || res != "l1-1" {
		t.Fatalf("lane 1 result = (%q, %v)", res, ok)
	}

	// Lane 1 commits far ahead; lane 0's frontier must not move, and
	// lane 0's stored results must not be pruned by lane 1 traffic.
	for seq := uint64(2); seq <= 40; seq++ {
		s.Done(1, lane1(seq), int64(seq), "r")
	}
	if _, res, ok := lookup(s, 1, lane0(1)); !ok || res != "l0-1" {
		t.Fatal("lane 1 traffic pruned lane 0's result")
	}
	if s.Seen(1, lane0(2)) {
		t.Fatal("lane 0 seq 2 never committed but reported seen")
	}
	if !s.Seen(1, lane1(20)) {
		t.Fatal("lane 1 frontier must cover its contiguous prefix")
	}

	// Each lane prunes on its own window: lane 1's early results are
	// forgotten (but stay seen), lane 0's single result survives.
	if _, _, ok := lookup(s, 1, lane1(2)); ok {
		t.Fatal("lane 1 seq 2 should have been pruned by its window")
	}
	if !s.Seen(1, lane1(2)) {
		t.Fatal("pruned lane 1 seq must remain seen")
	}

	// Acks are lane-scoped: acknowledging lane 1 must not discard lane
	// 0's retained result.
	s.ClientAck(1, lane1(40))
	if _, _, ok := lookup(s, 1, lane0(1)); !ok {
		t.Fatal("lane 1 ack discarded lane 0's result")
	}
}

func TestLogAppliesBatchAtomically(t *testing.T) {
	// One instance carrying a batch applies every command back to back,
	// in batch order, with one result per command — and a command that
	// already committed under an earlier instance is suppressed
	// per-command, not per-batch.
	sessions := NewSessions()
	kv := NewKV()
	log := NewLog(Dedup{Sessions: sessions, Inner: kv})
	var got [][]string
	log.OnApply(func(e Entry, results []string) {
		got = append(got, append([]string(nil), results...))
	})

	// Seq 2 commits alone first (a retried single racing its batch).
	log.Learn(0, val(1, 2, msg.OpPut, "a", "first"))
	batch := msg.NewValue(1, 0, []msg.BatchEntry{
		{Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "b", Val: "1"}},
		{Seq: 2, Cmd: msg.Command{Op: msg.OpPut, Key: "a", Val: "dup"}},
		{Seq: 3, Cmd: msg.Command{Op: msg.OpGet, Key: "b"}},
	})
	log.Learn(1, batch)

	if len(got) != 2 {
		t.Fatalf("applied %d instances, want 2", len(got))
	}
	if len(got[0]) != 1 || got[0][0] != "first" {
		t.Fatalf("single results = %v", got[0])
	}
	// Batch results: fresh put, replayed stored result, get of the fresh put.
	if want := []string{"1", "first", "1"}; len(got[1]) != 3 ||
		got[1][0] != want[0] || got[1][1] != want[1] || got[1][2] != want[2] {
		t.Fatalf("batch results = %v, want %v", got[1], want)
	}
	if v, _ := kv.Get("a"); v != "first" {
		t.Fatalf("duplicate batch entry re-executed: a = %q", v)
	}
	if v, _ := kv.Get("b"); v != "1" {
		t.Fatalf("batch entry not applied: b = %q", v)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if !sessions.Seen(1, seq) {
			t.Fatalf("Seen(1,%d) = false after batch commit", seq)
		}
	}
}

func TestSessionsScreen(t *testing.T) {
	s := NewSessions()
	s.Done(1, 2, 10, "r2")
	var replies []msg.ClientReply
	req := msg.NewRequest(1, 1, []msg.BatchEntry{
		{Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a"}},
		{Seq: 2, Cmd: msg.Command{Op: msg.OpPut, Key: "b"}},
		{Seq: 3, Cmd: msg.Command{Op: msg.OpPut, Key: "c"}},
	})
	fresh := s.Screen(req, func(rep msg.ClientReply) { replies = append(replies, rep) })
	if len(replies) != 1 || replies[0].Seq != 2 || replies[0].Result != "r2" || replies[0].Instance != 10 {
		t.Fatalf("replies = %+v", replies)
	}
	if len(fresh) != 2 || fresh[0].Seq != 1 || fresh[1].Seq != 3 {
		t.Fatalf("fresh = %+v", fresh)
	}
	// A fully-served request screens to nothing.
	s.Done(1, 1, 11, "r1")
	s.Done(1, 3, 12, "r3")
	replies = nil
	if fresh := s.Screen(req, func(rep msg.ClientReply) { replies = append(replies, rep) }); fresh != nil {
		t.Fatalf("fully-committed request returned fresh entries %+v", fresh)
	}
	if len(replies) != 3 {
		t.Fatalf("fully-committed request answered %d entries, want 3", len(replies))
	}
}

// TestSessionsScreenSingleAllocatesNothing: a single-command request's
// entry comes back in the table's scratch, so screening it allocates
// nothing — the batch-1 commit path's admission.
func TestSessionsScreenSingleAllocatesNothing(t *testing.T) {
	s := NewSessions()
	req := msg.ClientRequest{Client: 1, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a", Val: "v"}}
	reply := func(msg.ClientReply) {}
	allocs := testing.AllocsPerRun(100, func() {
		fresh := s.Screen(req, reply)
		if len(fresh) != 1 || fresh[0].Seq != 1 || fresh[0].Cmd != req.Cmd {
			t.Fatalf("fresh = %+v", fresh)
		}
	})
	if allocs != 0 {
		t.Fatalf("Screen of a single command allocates %v times, want 0", allocs)
	}
}

func TestSessionsUnseen(t *testing.T) {
	s := NewSessions()
	s.Done(1, 1, 1, "r")
	s.Done(1, 3, 2, "r")
	entries := []msg.BatchEntry{{Seq: 1}, {Seq: 2}, {Seq: 3}, {Seq: 4}}
	keep := s.Unseen(msg.NewValue(1, 0, entries))
	if len(keep) != 2 || keep[0].Seq != 2 || keep[1].Seq != 4 {
		t.Fatalf("Unseen = %+v", keep)
	}
	// The input slice is never mutated (callers may still own it).
	if entries[0].Seq != 1 || entries[1].Seq != 2 {
		t.Fatal("Unseen mutated its input")
	}
}

func TestSessionsBatchOutOfOrderAcrossLanesKeepsFloorsContiguous(t *testing.T) {
	// A sharded pipelined client sends one batch per lane; batches from
	// different lanes (and a retried batch within one lane) can commit
	// in any relative order. Each lane's contiguous commit frontier must
	// stay exact: it advances only over its own committed prefix, and
	// after the late batch lands, pruned entries are still reported
	// committed through the floor. This is run end to end through
	// Log + Dedup, the way every engine drives the session table.
	sessions := NewSessionsWindow(2) // tiny window: force floor-based answers
	log := NewLog(Dedup{Sessions: sessions, Inner: NewKV()})
	lane := func(l int, seq uint64) uint64 { return shard.TagSeq(l, seq) }
	batch := func(l int, seqs ...uint64) msg.Value {
		entries := make([]msg.BatchEntry, len(seqs))
		for i, q := range seqs {
			entries[i] = msg.BatchEntry{Seq: lane(l, q), Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
		}
		return msg.NewValue(1, 0, entries)
	}

	// Lane 0's second batch (seqs 5-8) commits before its first (1-4);
	// lane 1's batch (1-4) lands in between.
	log.Learn(0, batch(0, 5, 6, 7, 8))
	log.Learn(1, batch(1, 1, 2, 3, 4))

	// Lane 0's floor is pinned at 0: nothing below 5 has committed.
	for seq := uint64(1); seq <= 4; seq++ {
		if sessions.Seen(1, lane(0, seq)) {
			t.Fatalf("lane 0 seq %d reported committed before its batch landed", seq)
		}
	}
	for seq := uint64(5); seq <= 8; seq++ {
		if !sessions.Seen(1, lane(0, seq)) {
			t.Fatalf("lane 0 seq %d lost", seq)
		}
	}
	// Lane 1's floor covers its own prefix, unaffected by lane 0's gap.
	for seq := uint64(1); seq <= 4; seq++ {
		if !sessions.Seen(1, lane(1, seq)) {
			t.Fatalf("lane 1 seq %d not covered by its own floor", seq)
		}
	}

	// The late lane-0 batch fills the gap: the floor must now run
	// contiguously to 8 even though the window (2) retains almost
	// nothing — every seq answers as committed via the floor alone.
	log.Learn(2, batch(0, 1, 2, 3, 4))
	for seq := uint64(1); seq <= 8; seq++ {
		if !sessions.Seen(1, lane(0, seq)) {
			t.Fatalf("lane 0 seq %d not covered after the gap filled", seq)
		}
	}
	if sessions.Seen(1, lane(0, 9)) || sessions.Seen(1, lane(1, 5)) {
		t.Fatal("floor overshot a lane's committed prefix")
	}
}

// TestCommitStepRecordsAndTakesTheMark: one Commit is the whole
// per-command commit on a replica. It runs the fresh commands, answers
// one that committed before from its slot, records every result and
// takes the origin marks, which Owed lists by index.
func TestCommitStepRecordsAndTakesTheMark(t *testing.T) {
	sessions := NewSessions()
	kv := NewKV()
	d := Dedup{Sessions: sessions, Inner: kv}
	sessions.Done(1, 2, 0, "stored") // seq 2 committed alone, at instance 0
	sessions.MarkOrigin(1, 1)        // this replica admitted seqs 1 and 3
	sessions.MarkOrigin(1, 3)
	v := msg.NewValue(1, 0, []msg.BatchEntry{
		{Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a", Val: "a1"}},
		{Seq: 2, Cmd: msg.Command{Op: msg.OpPut, Key: "a", Val: "dup"}},
		{Seq: 3, Cmd: msg.Command{Op: msg.OpGet, Key: "a"}},
	})
	results := make([]string, 3)
	if ran := d.Commit(1, v, results); ran != 2 {
		t.Errorf("ran %d commands, want the 2 fresh ones", ran)
	}
	if want := []string{"a1", "stored", "a1"}; !reflect.DeepEqual(results, want) {
		t.Errorf("results = %q, want %q", results, want)
	}
	if owed := sessions.Owed(); !reflect.DeepEqual(owed, []int{0, 2}) {
		t.Errorf("Owed = %v, want [0 2]", owed)
	}
	for seq, want := range map[uint64]int64{1: 1, 2: 0, 3: 1} {
		if in, _, ok := lookup(sessions, 1, seq); !ok || in != want {
			t.Errorf("seq %d recorded at (%d, %v), want instance %d", seq, in, ok, want)
		}
		if sessions.TakeOrigin(1, seq) {
			t.Errorf("seq %d still carries its origin mark", seq)
		}
	}
	// The same value again (a re-learn on another path): nothing runs and
	// nothing is owed.
	if ran := d.Commit(2, v, results); ran != 0 || len(sessions.Owed()) != 0 {
		t.Errorf("second commit ran %d and owes %v, want nothing", ran, sessions.Owed())
	}
}

func TestSessionsShardLanesDedup(t *testing.T) {
	// Dedup must suppress a tagged retry exactly like an untagged one.
	kv := NewKV()
	sessions := NewSessions()
	d := Dedup{Sessions: sessions, Inner: kv}
	v := msg.Value{Client: 7, Seq: shard.TagSeq(3, 1),
		Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v1"}}
	if got, _ := commitOne(d, 1, v); got != "v1" {
		t.Fatalf("first commit = %q", got)
	}
	retry := v
	retry.Cmd.Val = "v2" // a conflicting re-execution would write v2
	if got, _ := commitOne(d, 2, retry); got != "v1" {
		t.Fatalf("retry result = %q, want replayed %q", got, "v1")
	}
	if val, _ := kv.Get("k"); val != "v1" {
		t.Fatalf("retry re-executed: k = %q", val)
	}
}

// --- Compaction, snapshot install and the Scan iterator ---

// fillLog learns and applies n single-command instances 0..n-1.
func fillLog(l *Log, n int64) {
	for in := int64(0); in < n; in++ {
		l.Learn(in, val(1, uint64(in+1), msg.OpPut, "k", "v"))
	}
}

func TestLogCompactTo(t *testing.T) {
	l := newLog(NewKV())
	fillLog(l, 10)
	if got := l.CompactTo(4); got != 4 {
		t.Fatalf("CompactTo(4) dropped %d entries, want 4", got)
	}
	if l.Floor() != 4 || l.Retained() != 6 || l.Applied() != 10 {
		t.Fatalf("after compaction: floor=%d retained=%d applied=%d, want 4/6/10",
			l.Floor(), l.Retained(), l.Applied())
	}
	// The floor never regresses and re-compaction is a no-op.
	if got := l.CompactTo(2); got != 0 {
		t.Errorf("CompactTo below the floor dropped %d entries", got)
	}
	// Since clamps to the floor; the retained suffix is intact.
	if got := l.Since(0); len(got) != 6 || got[0].Instance != 4 {
		t.Errorf("Since(0) = %d entries from %d, want 6 from 4", len(got), got[0].Instance)
	}
	// The floor clamps to the applied frontier.
	if got := l.CompactTo(99); got != 6 {
		t.Errorf("CompactTo(99) dropped %d, want the remaining 6", got)
	}
	if l.Retained() != 0 || l.Applied() != 10 {
		t.Errorf("after full compaction: retained=%d applied=%d, want 0/10", l.Retained(), l.Applied())
	}
	// Learning a compacted instance is a tolerated no-op (the value is
	// unrecoverable, so no agreement check is possible).
	l.Learn(3, val(9, 99, msg.OpPut, "x", "y"))
	if l.Retained() != 0 {
		t.Errorf("learning below the floor resurrected %d entries", l.Retained())
	}
}

func TestLogInstallSnapshot(t *testing.T) {
	kv := NewKV()
	l := newLog(kv)
	// Entries learned out of order around the snapshot frontier: 7 is
	// above it and must apply after the install, 3 below it must not.
	l.Learn(3, val(1, 4, msg.OpPut, "stale", "x"))
	l.Learn(7, val(1, 8, msg.OpPut, "fresh", "y"))
	l.InstallSnapshot(6) // covers instances 0..6
	if l.NextToApply() != 8 {
		t.Fatalf("NextToApply = %d, want 8 (snapshot to 6, then 7 applied)", l.NextToApply())
	}
	if l.Floor() != 7 || l.Retained() != 1 {
		t.Errorf("floor=%d retained=%d, want 7/1", l.Floor(), l.Retained())
	}
	if v, _ := kv.Get("fresh"); v != "y" {
		t.Errorf("instance above the snapshot did not apply: fresh=%q", v)
	}
	if _, ok := kv.Get("stale"); ok {
		t.Errorf("instance below the snapshot applied after install")
	}
	// Installing an older snapshot is a no-op.
	l.InstallSnapshot(2)
	if l.NextToApply() != 8 {
		t.Errorf("older snapshot regressed the log to %d", l.NextToApply())
	}
}

func TestLogScanMatchesSince(t *testing.T) {
	l := NewLog(nil)
	fillLog(l, 20)
	l.CompactTo(5)
	for _, from := range []int64{-3, 0, 5, 11, 19, 20, 50} {
		want := l.Since(from)
		var got []Entry
		l.Scan(from, func(e Entry) bool { got = append(got, e); return true })
		if len(got) != len(want) {
			t.Fatalf("Scan(%d) yielded %d entries, Since %d", from, len(got), len(want))
		}
		for i := range want {
			if got[i].Instance != want[i].Instance {
				t.Fatalf("Scan(%d)[%d] = instance %d, Since %d", from, i, got[i].Instance, want[i].Instance)
			}
		}
	}
	// Early stop.
	n := 0
	l.Scan(0, func(Entry) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Scan did not stop early: visited %d", n)
	}
}

func TestKVSnapshotStateRoundTrip(t *testing.T) {
	kv := NewKV()
	kv.Apply(val(1, 1, msg.OpPut, "a", "1"))
	kv.Apply(val(1, 2, msg.OpPut, "b", "2"))
	img := kv.SnapshotState()
	if !bytesEqual(img, kv.SnapshotState()) {
		t.Fatalf("SnapshotState is not deterministic")
	}
	restored := NewKV()
	restored.Apply(val(1, 9, msg.OpPut, "junk", "z"))
	if err := restored.RestoreState(img); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if v, _ := restored.Get("a"); v != "1" {
		t.Errorf("restored a=%q, want 1", v)
	}
	if restored.Len() != 2 {
		t.Errorf("restored %d keys, want 2 (junk must be gone)", restored.Len())
	}
	if err := restored.RestoreState(img[:len(img)-1]); err == nil {
		t.Errorf("truncated state image restored without error")
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSessionsExportRestore(t *testing.T) {
	s := NewSessionsWindow(8)
	// Two lanes: untagged and shard-tagged, with a gap pinning one floor.
	s.Done(1, 1, 10, "r1")
	s.Done(1, 2, 11, "r2")
	s.Done(1, 4, 12, "r4") // gap at 3 pins the floor at 2
	tag := shard.TagSeq(3, 1)
	s.Done(1, tag, 20, "t1")
	s.ClientAck(1, 2)

	lanes := s.Export()
	if len(lanes) != 2 {
		t.Fatalf("exported %d lanes, want 2", len(lanes))
	}
	restored := NewSessions()
	restored.Restore(lanes)
	for _, seq := range []uint64{1, 2, 4, tag} {
		if !restored.Seen(1, seq) {
			t.Errorf("restored table lost committed seq %d", seq)
		}
		if s.Seen(1, seq) != restored.Seen(1, seq) {
			t.Errorf("Seen(%d) diverges after restore", seq)
		}
	}
	if restored.Seen(1, 3) {
		t.Errorf("restored table invented a commit for the gap seq 3")
	}
	if _, res, ok := lookup(restored, 1, 4); !ok || res != "r4" {
		t.Errorf("restored Lookup(4) = %q/%v, want r4/true", res, ok)
	}
	// The restored frontier still advances exactly: filling the gap moves
	// the floor over the already-committed 4.
	restored.Done(1, 3, 13, "r3")
	if !restored.Seen(1, 4) {
		t.Errorf("frontier arithmetic broken after restore")
	}
}

// BenchmarkLogSince and BenchmarkLogScan quantify the satellite fix:
// Since copies the full retained suffix per call, Scan iterates in
// place. Run with -benchmem.
func BenchmarkLogSince(b *testing.B) {
	l := NewLog(nil)
	fillLog(l, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := l.Since(0); len(got) != 4096 {
			b.Fatal("bad suffix")
		}
	}
}

func BenchmarkLogScan(b *testing.B) {
	l := NewLog(nil)
	fillLog(l, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		l.Scan(0, func(Entry) bool { n++; return true })
		if n != 4096 {
			b.Fatal("bad suffix")
		}
	}
}

// TestSessionsOriginMarks pins the origin flag's life in a lane's slot:
// set once per command, taken once, independent of commit order, and
// gone with the slot when the lane prunes past it.
func TestSessionsOriginMarks(t *testing.T) {
	s := NewSessionsWindow(4)
	if s.TakeOrigin(1, 1) {
		t.Fatal("unknown lane reported an origin mark")
	}
	if !s.MarkOrigin(1, 1) {
		t.Fatal("first mark must be new")
	}
	if s.MarkOrigin(1, 1) {
		t.Fatal("second mark of the same command must report a duplicate")
	}
	if s.Seen(1, 1) {
		t.Fatal("a marked but uncommitted command must not be Seen")
	}
	// Committing keeps the mark; taking it clears it exactly once.
	s.Done(1, 1, 10, "r1")
	if !s.TakeOrigin(1, 1) || s.TakeOrigin(1, 1) {
		t.Fatal("TakeOrigin must report the mark once")
	}
	if _, res, ok := lookup(s, 1, 1); !ok || res != "r1" {
		t.Fatalf("taking the mark disturbed the result: (%q, %v)", res, ok)
	}
	// A mark set after the commit (a duplicate proposal of a command
	// another replica already committed) works the same way.
	s.Done(1, 2, 11, "r2")
	if !s.MarkOrigin(1, 2) || !s.TakeOrigin(1, 2) {
		t.Fatal("mark on a committed command lost")
	}
	// Lanes do not share marks.
	tag := shard.TagSeq(2, 3)
	if !s.MarkOrigin(1, 3) || !s.MarkOrigin(1, tag) || !s.MarkOrigin(2, 3) {
		t.Fatal("marks must be per (client, lane, seq)")
	}
	// Pruning past a marked slot drops the mark with it.
	for seq := uint64(3); seq <= 20; seq++ {
		s.Done(1, seq, int64(seq), "r")
	}
	if s.TakeOrigin(1, 3) {
		t.Fatal("mark survived its slot being pruned")
	}
	if s.MarkOrigin(1, 3) {
		t.Fatal("a seq below the prune frontier has no slot to mark")
	}
}

// TestSessionsScreenAnswersPrunedRetry pins the one edge the origin flag
// cannot cover: a retry of a command at or below the prune frontier has
// no slot, so Screen itself answers it — committed, empty result —
// instead of handing it back for a proposal nobody could reply to.
func TestSessionsScreenAnswersPrunedRetry(t *testing.T) {
	s := NewSessions()
	for seq := uint64(1); seq <= 6; seq++ {
		s.Done(1, seq, int64(seq), "r")
	}
	s.ClientAck(1, 5) // seqs 1..4 delivered: pruned
	var replies []msg.ClientReply
	reply := func(rep msg.ClientReply) { replies = append(replies, rep) }
	if fresh := s.Screen(msg.ClientRequest{Client: 1, Seq: 3, Ack: 5}, reply); fresh != nil {
		t.Fatalf("pruned retry handed back for agreement: %+v", fresh)
	}
	if len(replies) != 1 || replies[0].Seq != 3 || !replies[0].OK || replies[0].Result != "" {
		t.Fatalf("pruned retry answered %+v, want one OK reply with an empty result", replies)
	}
	// Inside a batch: the pruned and the retained entries are answered,
	// the uncommitted one comes back.
	replies = nil
	req := msg.NewRequest(1, 5, []msg.BatchEntry{{Seq: 2}, {Seq: 6}, {Seq: 7}})
	fresh := s.Screen(req, reply)
	if len(fresh) != 1 || fresh[0].Seq != 7 {
		t.Fatalf("fresh = %+v, want only seq 7", fresh)
	}
	if len(replies) != 2 || replies[0].Seq != 2 || replies[0].Result != "" || replies[1].Seq != 6 || replies[1].Result != "r" {
		t.Fatalf("replies = %+v", replies)
	}
}

// TestSessionsRestoreKeepsOriginMarks: the marks are this replica's own
// state, not the snapshot's, so installing a peer's snapshot must not
// forget which replies this replica still owes.
func TestSessionsRestoreKeepsOriginMarks(t *testing.T) {
	peer := NewSessions()
	for seq := uint64(1); seq <= 5; seq++ {
		peer.Done(1, seq, int64(seq), "r")
	}
	peer.ClientAck(1, 3) // the peer pruned 1..2

	local := NewSessions()
	local.MarkOrigin(1, 2) // below the restored prune frontier: nothing to carry
	local.MarkOrigin(1, 4) // committed in the snapshot
	local.MarkOrigin(1, 9) // not committed anywhere yet
	local.MarkOrigin(7, 1) // a lane the snapshot has never heard of
	local.Restore(peer.Export())

	if local.TakeOrigin(1, 2) {
		t.Error("mark below the restored prune frontier must be dropped")
	}
	for _, c := range []struct {
		client msg.NodeID
		seq    uint64
	}{{1, 4}, {1, 9}, {7, 1}} {
		if !local.TakeOrigin(c.client, c.seq) {
			t.Errorf("origin mark (%d,%d) lost across Restore", c.client, c.seq)
		}
	}
	if !local.Seen(1, 5) || local.Seen(1, 9) || local.Seen(7, 1) {
		t.Error("carrying marks over disturbed the restored commit state")
	}
	if !reflect.DeepEqual(local.Export(), peer.Export()) {
		t.Error("origin marks leaked into the exported state")
	}
}
