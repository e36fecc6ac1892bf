package snapshot

// Tests for the snapshot codec and the Manager: encode/decode round
// trips (incl. the strictness contract), the session-frontier property
// (a restored replica screens replayed pre-snapshot requests exactly
// like the original), and a full serve→chunk→install transfer between
// two Managers driven over FakeContexts.

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/shard"
)

func sampleSnapshot() Snapshot {
	kv := rsm.NewKV()
	for i := 0; i < 10; i++ {
		kv.Apply(msg.Value{Client: 1, Seq: uint64(i + 1), Cmd: msg.Command{Op: msg.OpPut, Key: fmt.Sprintf("k%d", i), Val: fmt.Sprintf("v%d", i)}})
	}
	s := rsm.NewSessions()
	for i := uint64(1); i <= 10; i++ {
		s.Done(1, i, int64(i-1), fmt.Sprintf("v%d", i-1))
	}
	s.Done(2, 2, 11, "other") // second lane with a floor-pinning gap at 1
	return Snapshot{LastApplied: 9, State: kv.SnapshotState(), Lanes: s.Export()}
}

var update = flag.Bool("update", false, "rewrite testdata/snapshot.golden from this run (only for an intended format change)")

// goldenSnapshot is testdata/snapshot.golden: sampleSnapshot()'s Encode
// bytes and the rsm.KV state image inside them, one "name<TAB>hex" line
// each. The file was written from the code before the layouts were
// folded into one function per type and pins both formats since.
const goldenSnapshot = "testdata/snapshot.golden"

// checkGolden compares the sample's two images with the golden file and
// decodes the file's own bytes back to the sample.
func checkGolden(t *testing.T) {
	t.Helper()
	sample := sampleSnapshot()
	if *update {
		out := fmt.Sprintf("snapshot\t%x\nkv_state\t%x\n", Encode(sample), sample.State)
		if err := os.WriteFile(goldenSnapshot, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		name, hexBytes, _ := strings.Cut(line, "\t")
		if images[name], err = hex.DecodeString(hexBytes); err != nil {
			t.Fatalf("%s: %s: %v", goldenSnapshot, name, err)
		}
	}
	if !bytes.Equal(Encode(sample), images["snapshot"]) || !bytes.Equal(sample.State, images["kv_state"]) {
		t.Errorf("the snapshot format changed:\n got %x\nwant %x", Encode(sample), images["snapshot"])
	}
	if got, err := Decode(images["snapshot"]); err != nil || !reflect.DeepEqual(got, sample) {
		t.Errorf("golden snapshot decodes to (%+v, %v)", got, err)
	}
	kv := rsm.NewKV()
	if err := kv.RestoreState(images["kv_state"]); err != nil || !bytes.Equal(kv.SnapshotState(), sample.State) {
		t.Errorf("golden kv state does not restore to the sample: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	checkGolden(t)
	for _, snap := range []Snapshot{
		{LastApplied: -1},
		{LastApplied: 0, State: []byte{1, 2, 3}},
		sampleSnapshot(),
	} {
		enc := Encode(snap)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", snap, err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, snap)
		}
		if !reflect.DeepEqual(Encode(got), enc) {
			t.Errorf("encoding is not canonical on its own output")
		}
	}
}

// TestCaptureAllocatesOnce pins the pre-sizing of the two images a
// capture builds on the replica's own goroutine: at the benchmark's
// 1 024 keys the state image is its key slice and its buffer, and Encode
// is one buffer — not a dozen of append's doublings, each a fresh large
// allocation whose cost is the tail of every Put that waits behind it.
func TestCaptureAllocatesOnce(t *testing.T) {
	kv := rsm.NewKV()
	s := rsm.NewSessions()
	for i := 0; i < 1024; i++ {
		kv.Apply(msg.Value{Client: 1, Seq: uint64(i + 1), Cmd: msg.Command{Op: msg.OpPut, Key: fmt.Sprintf("key-%08d", i), Val: fmt.Sprintf("value-%016d", i)}})
		s.Done(1, uint64(i+1), int64(i), fmt.Sprintf("value-%016d", i))
	}
	if got := testing.AllocsPerRun(20, func() { kv.SnapshotState() }); got > 3 {
		t.Errorf("SnapshotState: %v allocs, want the sorted keys and the image (-race adds one in sort)", got)
	}
	snap := Snapshot{LastApplied: 1023, State: kv.SnapshotState(), Lanes: s.Export()}
	if got := testing.AllocsPerRun(20, func() { Encode(snap) }); got > 1 {
		t.Errorf("Encode: %v allocs, want 1", got)
	}
}

func TestDecodeStrict(t *testing.T) {
	enc := Encode(sampleSnapshot())
	if _, err := Decode(nil); err == nil {
		t.Error("empty input decoded")
	}
	if _, err := Decode(append([]byte{Version + 1}, enc[1:]...)); err == nil {
		t.Error("unknown version decoded")
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("truncation at %d/%d decoded", cut, len(enc))
		}
	}
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes decoded")
	}
	// A lane count the input can back byte for byte passes the count
	// guard, but must not be trusted for the first make(): a megabyte of
	// input claiming a million lanes (~70 MB of them) fails at its first
	// lane having allocated no more than maxDecodeCap of them.
	const claimed = 1 << 20
	hostile := append([]byte{Version, 0, 0, 0x80, 0x80, 0x40}, bytes.Repeat([]byte{0x80}, claimed)...)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, err := Decode(hostile)
	goruntime.ReadMemStats(&after)
	if err == nil {
		t.Error("a million truncated lanes decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("a hostile count allocated %d bytes up front; the pre-allocation cap is gone", grew)
	}
}

// TestSessionFrontiersSurviveSnapshot is the dedupe-regression property
// test: after an arbitrary commit/ack pattern, a snapshot→restore round
// trip must preserve every lane frontier exactly, and a replayed
// pre-snapshot ClientRequest must still be screened (answered from the
// table or suppressed), never re-admitted for agreement.
func TestSessionFrontiersSurviveSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		orig := rsm.NewSessionsWindow(16)
		clients := []msg.NodeID{1, 2, 3}
		// Commit a random subset of seqs 1..40 per client, in random
		// order, with occasional acks — gaps pin floors arbitrarily.
		committed := map[msg.NodeID]map[uint64]bool{}
		for _, c := range clients {
			committed[c] = map[uint64]bool{}
			seqs := rng.Perm(40)
			for _, i := range seqs[:10+rng.Intn(25)] {
				seq := uint64(i + 1)
				orig.Done(c, seq, int64(seq), fmt.Sprintf("r%d", seq))
				committed[c][seq] = true
			}
			if rng.Intn(2) == 0 {
				orig.ClientAck(c, uint64(1+rng.Intn(10)))
			}
		}

		snap, err := Decode(Encode(Snapshot{LastApplied: 40, Lanes: orig.Export()}))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		restored := rsm.NewSessionsWindow(16)
		restored.Restore(snap.Lanes)

		for _, c := range clients {
			for seq := uint64(1); seq <= 41; seq++ {
				if o, r := orig.Seen(c, seq), restored.Seen(c, seq); o != r {
					t.Fatalf("trial %d: Seen(%d,%d) orig=%v restored=%v", trial, c, seq, o, r)
				}
			}
			// Replay every command as a fresh request: the restored
			// table must screen it exactly as the original would —
			// answered from the stored result and its instance when
			// retained — and a committed one must in every case still
			// be Seen, so the apply-time dedupe can never re-execute it
			// (no dedupe regression).
			for seq := uint64(1); seq <= 41; seq++ {
				req := msg.ClientRequest{Client: c, Seq: seq, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
				var oReplies, rReplies []msg.ClientReply
				oFresh := orig.Screen(req, func(rep msg.ClientReply) { oReplies = append(oReplies, rep) })
				rFresh := restored.Screen(req, func(rep msg.ClientReply) { rReplies = append(rReplies, rep) })
				if len(oFresh) != len(rFresh) || !reflect.DeepEqual(oReplies, rReplies) {
					t.Fatalf("trial %d: Screen(%d,%d) diverged after restore: fresh %d vs %d, replies %+v vs %+v",
						trial, c, seq, len(oFresh), len(rFresh), oReplies, rReplies)
				}
				if committed[c][seq] && !restored.Seen(c, seq) {
					t.Fatalf("trial %d: committed seq (%d,%d) not Seen after restore — dedupe regression", trial, c, seq)
				}
			}
		}
	}
}

// TestSessionExportStableAcrossGrownRing: a lane whose oldest command
// stays outstanding while hundreds of newer ones commit outgrows its
// initial ring several times over. The image of that table must not
// depend on the ring it came from: encode, restore into a fresh table
// (whose ring regrows on its own) and encode again — same bytes.
func TestSessionExportStableAcrossGrownRing(t *testing.T) {
	orig := rsm.NewSessions()
	orig.Done(1, 1, 0, "first")
	for seq := uint64(3); seq <= 600; seq++ { // seq 2 never commits: the floor is pinned at 1
		orig.Done(1, seq, int64(seq), fmt.Sprintf("r%d", seq))
	}
	orig.Done(1, shard.TagSeq(5, 1), 700, "other lane")
	orig.ClientAck(1, 1) // the client still waits on seq 1's reply
	if orig.Growths() < 3 {
		t.Fatalf("ring grew %d times; the test needs a span well past the initial ring", orig.Growths())
	}
	first := Encode(Snapshot{LastApplied: 700, Lanes: orig.Export()})
	snap, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	restored := rsm.NewSessions()
	restored.Restore(snap.Lanes)
	second := Encode(Snapshot{LastApplied: 700, Lanes: restored.Export()})
	if !bytes.Equal(first, second) {
		t.Fatalf("snapshot bytes changed across Export -> Restore -> Export (%d vs %d bytes)", len(first), len(second))
	}
	if restored.Seen(1, 2) || !restored.Seen(1, 600) {
		t.Fatal("restored table lost the pinned gap or the newest commit")
	}
	var got []msg.ClientReply
	restored.Screen(msg.ClientRequest{Client: 1, Seq: 1}, func(rep msg.ClientReply) { got = append(got, rep) })
	if len(got) != 1 || got[0].Result != "first" {
		t.Fatalf("unacknowledged oldest result lost: %+v", got)
	}
}

// buildServer assembles a "replica" (log + kv + sessions + manager)
// with n applied single-command instances.
func buildServer(t *testing.T, cfg Config, n int) (*Manager, *rsm.Log, *rsm.KV, *rsm.Sessions) {
	t.Helper()
	kv := rsm.NewKV()
	sessions := rsm.NewSessions()
	log := rsm.NewLog(rsm.Dedup{Sessions: sessions, Inner: kv})
	var mgr *Manager
	log.OnApply(func(rsm.Entry, []string) {
		if mgr != nil {
			mgr.AfterApply()
		}
	})
	mgr = New(cfg, log, sessions, kv)
	for i := 0; i < n; i++ {
		log.Learn(int64(i), msg.Value{Client: 1, Seq: uint64(i + 1),
			Cmd: msg.Command{Op: msg.OpPut, Key: fmt.Sprintf("k%d", i%7), Val: fmt.Sprintf("v%d", i)}})
	}
	return mgr, log, kv, sessions
}

// deliver routes every captured send between the two managers until the
// traffic drains (single-threaded message pump).
func deliver(t *testing.T, ctxA, ctxB *runtime.FakeContext, a, b *Manager) {
	t.Helper()
	for {
		sends := append(ctxA.TakeSent(), ctxB.TakeSent()...)
		if len(sends) == 0 {
			return
		}
		for _, s := range sends {
			switch s.To {
			case ctxA.NodeID:
				if !a.Handle(ctxA, ctxB.NodeID, s.M) {
					t.Fatalf("manager A ignored %T", s.M)
				}
			case ctxB.NodeID:
				if !b.Handle(ctxB, ctxA.NodeID, s.M) {
					t.Fatalf("manager B ignored %T", s.M)
				}
			default:
				t.Fatalf("send to unexpected node %d", s.To)
			}
		}
	}
}

func TestManagerTransferRestoresReplica(t *testing.T) {
	const ops = 900
	defer func(size int) { chunkSize = size }(chunkSize)
	chunkSize = 512
	server, slog, skv, _ := buildServer(t, Config{ID: 0, Replicas: []msg.NodeID{0, 1}, Interval: 100}, ops)
	if slog.Floor() != ops-100 || server.Stats.EntriesTruncated.Load() != ops-100 || server.Stats.Snapshots.Load() != 0 {
		t.Fatalf("server floor %d after %d applies at interval 100, want %d truncated and nothing captured: stats=%v",
			slog.Floor(), ops, ops-100, snapCounts(server))
	}

	fresh, flog, fkv, fsessions := buildServer(t, Config{ID: 1, Replicas: []msg.NodeID{0, 1}, Recover: true}, 0)
	ctxS, ctxF := runtime.NewFakeContext(0, 2), runtime.NewFakeContext(1, 2)

	fresh.Start(ctxF)
	if !fresh.CatchingUp() {
		t.Fatal("recovering manager not catching up after Start")
	}
	deliver(t, ctxS, ctxF, server, fresh)

	if fresh.CatchingUp() {
		t.Fatal("transfer never completed")
	}
	if fresh.Stats.Restores.Load() != 1 || server.Stats.Snapshots.Load() != 1 {
		t.Fatalf("restores = %d, captures served = %d, want 1 and 1", fresh.Stats.Restores.Load(), server.Stats.Snapshots.Load())
	}
	if flog.NextToApply() != slog.NextToApply() {
		t.Fatalf("frontiers diverge after catch-up: fresh %d, server %d", flog.NextToApply(), slog.NextToApply())
	}
	if fkv.Len() != skv.Len() {
		t.Fatalf("state diverges: fresh %d keys, server %d", fkv.Len(), skv.Len())
	}
	for i := 0; i < 7; i++ {
		key := fmt.Sprintf("k%d", i)
		fv, _ := fkv.Get(key)
		sv, _ := skv.Get(key)
		if fv != sv {
			t.Errorf("key %s: fresh %q, server %q", key, fv, sv)
		}
	}
	// A replayed pre-crash command must be screened by the restored
	// sessions, not re-admitted.
	req := msg.ClientRequest{Client: 1, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k0", Val: "v0"}}
	if fresh := fsessions.Screen(req, func(msg.ClientReply) {}); len(fresh) != 0 {
		t.Errorf("replayed pre-snapshot request re-admitted after transfer")
	}
	// The server chunked the snapshot (512B chunks over a multi-KB image).
	if server.Stats.ChunksSent.Load() < 2 {
		t.Errorf("chunks sent = %d, want several at chunk size 512", server.Stats.ChunksSent.Load())
	}
}

// TestLogLessTransferIsCurrent: an engine with no instance log (2PC)
// has no suffix to stream, so the image a restarted replica installs
// must be the server's state as of the request — whatever the interval,
// and also when the applied count is not a multiple of it.
func TestLogLessTransferIsCurrent(t *testing.T) {
	const ops = 43
	skv, ssessions := rsm.NewKV(), rsm.NewSessions()
	server := New(Config{ID: 0, Replicas: []msg.NodeID{0, 1}, Interval: 8}, nil, ssessions, skv)
	for i := 0; i < ops; i++ {
		v := msg.Value{Client: 1, Seq: uint64(i + 1), Cmd: msg.Command{Op: msg.OpPut, Key: fmt.Sprintf("k%d", i), Val: "v"}}
		ssessions.Done(1, v.Seq, -1, skv.Apply(v))
		server.AfterApply()
	}
	fkv, fsessions := rsm.NewKV(), rsm.NewSessions()
	fresh := New(Config{ID: 1, Replicas: []msg.NodeID{0, 1}, Interval: 8, Recover: true}, nil, fsessions, fkv)
	ctxS, ctxF := runtime.NewFakeContext(0, 2), runtime.NewFakeContext(1, 2)
	fresh.Start(ctxF)
	deliver(t, ctxS, ctxF, server, fresh)
	if !fresh.Recovered() || fresh.Stats.Restores.Load() != 1 || server.Stats.Snapshots.Load() != 1 {
		t.Fatalf("transfer did not complete with one capture: fresh %v, server %v", snapCounts(fresh), snapCounts(server))
	}
	if fkv.Len() != ops || !fsessions.Seen(1, ops) {
		t.Fatalf("restored %d of %d keys (newest command seen: %v) — the image was older than the server", fkv.Len(), ops, fsessions.Seen(1, ops))
	}
}

// TestManagerEntriesOnlyPath: a requester whose frontier is above the
// server's compaction floor gets the log suffix with no snapshot.
func TestManagerEntriesOnlyPath(t *testing.T) {
	server, slog, _, _ := buildServer(t, Config{ID: 0, Replicas: []msg.NodeID{0, 1}, Interval: 100}, 300)
	lag, laglog, _, _ := buildServer(t, Config{ID: 1, Replicas: []msg.NodeID{0, 1}, Recover: true}, 250)
	if laglog.NextToApply() <= slog.Floor() {
		t.Fatalf("test setup: lagging replica below the floor (%d <= %d)", laglog.NextToApply(), slog.Floor())
	}
	ctxS, ctxL := runtime.NewFakeContext(0, 2), runtime.NewFakeContext(1, 2)
	lag.Start(ctxL)
	deliver(t, ctxS, ctxL, server, lag)
	if lag.Stats.Restores.Load() != 0 {
		t.Errorf("entries-only catch-up installed a snapshot (restores=%d)", lag.Stats.Restores.Load())
	}
	if laglog.NextToApply() != slog.NextToApply() {
		t.Errorf("frontier %d after entries-only catch-up, want %d", laglog.NextToApply(), slog.NextToApply())
	}
}

// TestManagerOutOfOrderChunkResets: a torn transfer must not install.
func TestManagerOutOfOrderChunkResets(t *testing.T) {
	fresh, flog, _, _ := buildServer(t, Config{ID: 1, Replicas: []msg.NodeID{0, 1}, Recover: true}, 0)
	ctx := runtime.NewFakeContext(1, 2)
	fresh.Start(ctx)
	enc := Encode(sampleSnapshot())
	fresh.Handle(ctx, 0, msg.SnapshotChunk{Seq: 1, Data: enc[10:], Last: true}) // starts mid-transfer
	if fresh.Stats.Restores.Load() != 0 || flog.NextToApply() != 0 {
		t.Fatalf("torn transfer installed: %v", snapCounts(fresh))
	}
	// A clean retry still works.
	fresh.Handle(ctx, 0, msg.SnapshotChunk{Seq: 0, Data: enc[:10]})
	fresh.Handle(ctx, 0, msg.SnapshotChunk{Seq: 1, Data: enc[10:], Last: true})
	fresh.Handle(ctx, 0, msg.CatchupEntries{Done: true})
	if fresh.Stats.Restores.Load() != 1 {
		t.Fatalf("clean transfer after a torn one did not install: %v", snapCounts(fresh))
	}
}

// FuzzDecodeSnapshot mirrors FuzzDecodeEnvelope for the snapshot image:
// arbitrary bytes must never panic the decoder, and anything it accepts
// must re-encode and decode to the same snapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(Encode(Snapshot{LastApplied: -1}))
	f.Add(Encode(sampleSnapshot()))
	f.Add([]byte{})
	f.Add([]byte{Version, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(snap)
		snap2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(snap, snap2) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", snap2, snap)
		}
	})
}

// snapCounts renders a Manager's counters under their snap.* names, the
// way every reader outside this package sees them.
func snapCounts(m *Manager) map[string]int64 {
	s := obs.NewSnapshot()
	m.Collect(&s)
	return s.Counters
}
