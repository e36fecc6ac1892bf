package consensusinside

// Replica crash/restart tests: the recovery subsystem end to end. A
// replica killed mid-load must rejoin via snapshot + log-suffix
// catch-up on every engine over both transports (the paper handles
// acceptor/leader replacement but assumes the replacement can learn the
// log — this is that assumption, implemented), and with SnapshotInterval
// set the retained log must stay bounded under a sustained run.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"consensusinside/internal/rsm"
	"consensusinside/internal/shard"
)

// TestCrashRestartEdgeCases pins CrashReplica's (and RestartReplica's)
// edge-case semantics on both transports: out-of-range ids and
// double-crash/double-restart are documented errors, and a full
// crash→restart→crash cycle works.
func TestCrashRestartEdgeCases(t *testing.T) {
	for _, tr := range []TransportKind{InProc, TCP} {
		t.Run(tr.String(), func(t *testing.T) {
			kv, err := StartKV(KVConfig{Transport: tr, RequestTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			if err := kv.Put("k", "v"); err != nil {
				t.Fatal(err)
			}

			steps := []struct {
				name string
				do   func() error
				ok   bool
			}{
				{"crash out of range (negative)", func() error { return kv.CrashReplica(-1) }, false},
				{"crash out of range (past end)", func() error { return kv.CrashReplica(3) }, false},
				{"restart a running replica", func() error { return kv.RestartReplica(1) }, false},
				{"restart out of range", func() error { return kv.RestartReplica(7) }, false},
				{"crash replica 1", func() error { return kv.CrashReplica(1) }, true},
				{"crash replica 1 again", func() error { return kv.CrashReplica(1) }, false},
				{"crash out of range while one is down", func() error { return kv.CrashReplica(99) }, false},
				{"restart replica 1", func() error { return kv.RestartReplica(1) }, true},
				{"restart replica 1 again", func() error { return kv.RestartReplica(1) }, false},
				{"re-crash the restarted replica", func() error { return kv.CrashReplica(1) }, true},
				{"restart it again", func() error { return kv.RestartReplica(1) }, true},
			}
			for _, step := range steps {
				err := step.do()
				if step.ok && err != nil {
					t.Fatalf("%s: unexpected error %v", step.name, err)
				}
				if !step.ok && err == nil {
					t.Fatalf("%s: expected a documented error, got nil", step.name)
				}
			}
			if err := kv.Put("k2", "v2"); err != nil {
				t.Fatalf("put after the crash/restart cycle: %v", err)
			}
		})
	}
}

// TestKVRecoveryMatrix is the acceptance matrix: every engine × both
// transports × two shards. A replica of shard 0 is crashed mid-load and
// restarted; every operation issued through the crash window must still
// commit, the restarted replica must install a peer snapshot
// (Restores >= 1 — the snapshot+suffix path, not blind replay) captured
// for it and for nobody before it, the shard's pipeline must be fully
// live again afterwards, and the restarted replica's own state machine
// must end up holding every acknowledged write.
func TestKVRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery matrix is wall-clock heavy")
	}
	for _, p := range Protocols() {
		for _, tr := range []TransportKind{InProc, TCP} {
			p, tr := p, tr
			t.Run(fmt.Sprintf("%v/%v", p, tr), func(t *testing.T) {
				t.Parallel()
				runRecoveryCell(t, p, tr)
			})
		}
	}
}

func runRecoveryCell(t *testing.T, p Protocol, tr TransportKind) {
	const shards = 2
	kv, err := StartKV(KVConfig{
		Protocol:         p,
		Transport:        tr,
		Shards:           shards,
		SnapshotInterval: 8,
		Pipeline:         8,
		AcceptTimeout:    50 * time.Millisecond,
		RequestTimeout:   90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	// Keys pinned per shard so shard 0 takes the fault and shard 1
	// proves isolation.
	keyOn := func(sh, i int) string { return shard.KeyFor(fmt.Sprintf("rec%d-%d", sh, i), sh, shards) }

	// acked is what shard 0's clients were told committed; the restarted
	// replica must hold all of it in the end.
	var ackedMu sync.Mutex
	acked := map[string]string{}
	put := func(sh, i int, val string) error {
		key := keyOn(sh, i)
		err := kv.Put(key, val)
		if err == nil && sh == 0 {
			ackedMu.Lock()
			acked[key] = val
			ackedMu.Unlock()
		}
		return err
	}

	// Seed enough commits on both shards that shard 0's replicas have
	// compacted (interval 8) before the fault — and not a whole number of
	// intervals, so the newest seeds lie past the last cadence tick.
	const seeds = 43
	for i := 0; i < seeds; i++ {
		for sh := 0; sh < shards; sh++ {
			if err := put(sh, i, fmt.Sprintf("seed%d", i)); err != nil {
				t.Fatalf("seed put: %v", err)
			}
		}
	}
	s := kv.Obs().Counters
	if kv.shards[0].engines[0].Log() != nil && s["snap.entries_truncated"] == 0 {
		t.Fatalf("no compaction after seeding: %v", s)
	}
	if s["snap.snapshots"] != 0 {
		t.Fatalf("a snapshot was captured with no peer asking for one: %v", s)
	}

	// Crash replica 1 of shard 0 (a non-coordinator follower: blocking
	// engines stall shard 0 until it returns; quorum engines keep going).
	const victim = 1
	if err := kv.CrashReplica(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}

	// Load through the crash window. Blocking engines (2PC; Mencius
	// applies stall behind the dead owner's instances) park these until
	// the restart, so they run in the background with a long timeout.
	const crashOps = 12
	var wg sync.WaitGroup
	errs := make(chan error, 2*crashOps)
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for i := 0; i < crashOps; i++ {
				if err := put(sh, 100+i, fmt.Sprintf("crash%d", i)); err != nil {
					errs <- fmt.Errorf("shard %d op %d during crash window: %w", sh, i, err)
					return
				}
			}
		}(sh)
	}

	time.Sleep(300 * time.Millisecond)
	if err := kv.RestartReplica(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The restarted replica must have installed a peer snapshot, which
	// some peer captured to serve it.
	deadline := time.Now().Add(20 * time.Second)
	for kv.Obs().Counters["snap.restores"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never restored a snapshot: %v", kv.Obs().Counters)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s := kv.Obs().Counters; s["snap.snapshots"] == 0 {
		t.Fatalf("a snapshot was restored but none was captured: %v", s)
	}

	// Commit flow is fully live again: concurrent bursts on the faulted
	// shard commit, widen its pipeline window past the closed loop
	// (fast engines may finish ops before the goroutines overlap, so
	// burst until the cumulative MaxInFlight shows real pipelining),
	// and reads see the latest writes.
	for attempt := 0; kv.MaxInFlight() < 2; attempt++ {
		if attempt == 50 {
			t.Fatalf("pipeline never widened (max in-flight %d) — commit flow did not recover", kv.MaxInFlight())
		}
		var burst sync.WaitGroup
		burstErrs := make(chan error, 16)
		for i := 0; i < 16; i++ {
			burst.Add(1)
			go func(i int) {
				defer burst.Done()
				if err := kv.Put(keyOn(0, 200+i), fmt.Sprintf("post%d", i)); err != nil {
					burstErrs <- fmt.Errorf("post-restart put %d: %w", i, err)
				}
			}(i)
		}
		burst.Wait()
		close(burstErrs)
		for err := range burstErrs {
			t.Fatal(err)
		}
	}
	for sh := 0; sh < shards; sh++ {
		got, err := kv.Get(keyOn(sh, 100+crashOps-1))
		if err != nil {
			t.Fatalf("post-restart get on shard %d: %v", sh, err)
		}
		if want := fmt.Sprintf("crash%d", crashOps-1); got != want {
			t.Fatalf("shard %d: crash-window write lost: got %q, want %q", sh, got, want)
		}
	}
	if got, err := kv.Get(keyOn(0, 215)); err != nil || got != "post15" {
		t.Fatalf("post-restart read = %q, %v; want post15", got, err)
	}

	// The restarted replica itself — not just the group — holds every
	// acknowledged write: once it reports recovered and its last learns
	// have drained, stop the service and read its state machine.
	restarted := kv.shards[0].engines[victim]
	for !restarted.Recovered() {
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never reported Recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	kv.Close()
	store := reflect.ValueOf(restarted).Elem().FieldByName("Store").Interface().(*rsm.KV)
	missing := 0
	for key, want := range acked {
		if got, _ := store.Get(key); got != want {
			missing++
			t.Errorf("restarted replica: %s = %q, want %q", key, got, want)
		}
	}
	if missing > 0 {
		t.Fatalf("restarted replica misses %d of %d acknowledged writes", missing, len(acked))
	}
}

// TestLogBoundedUnderSustainedLoad is the memory-bound acceptance: with
// SnapshotInterval set, a 100k-op sustained run must keep every
// replica's retained log entries bounded near the interval, not the op
// count, compaction must have truncated the difference, and — nobody
// having restarted or fallen below a floor — no snapshot was captured.
func TestLogBoundedUnderSustainedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-op sustained run")
	}
	const (
		interval = 64
		ops      = 100_000
	)
	kv, err := StartKV(KVConfig{
		Transport:        InProc,
		SnapshotInterval: interval,
		BatchAdaptive:    true,
		RequestTimeout:   90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	if err := runPutLoad(kv, ops, 64); err != nil {
		t.Fatal(err)
	}
	s := kv.Obs().Counters
	// Quiesce the replicas (Close is idempotent) so the log inspection
	// below cannot race trailing learner applies.
	kv.Close()

	// The floor trails the last cadence tick by one interval, and the
	// entries applied since that tick are retained too: 2x interval, with
	// headroom for in-flight application.
	const bound = 3 * interval
	for i, eng := range kv.shards[0].engines {
		log := eng.Log()
		// Sanity floor: ~ops/batch instances, minus the trailing applies
		// Close may have cut off.
		if log.Applied() < ops/10 {
			t.Fatalf("replica %d applied only %d instances", i, log.Applied())
		}
		if got := log.Retained(); got > bound {
			t.Errorf("replica %d retains %d entries after %d applied (floor %d) — want <= %d",
				i, got, log.Applied(), log.Floor(), bound)
		}
	}
	if s["snap.entries_truncated"] == 0 {
		t.Fatalf("no compaction under sustained load: %v", s)
	}
	if s["snap.snapshots"] != 0 || s["snap.snapshot_bytes"] != 0 {
		t.Fatalf("snapshots captured with no restart and no peer below the floor: %v", s)
	}
	t.Logf("sustained run: %d ops, stats %v", ops, s)
}

// runPutLoad commits ops Puts through kv from workers concurrent
// callers (rounded down to a whole number per worker).
func runPutLoad(kv *KV, ops, workers int) error {
	perWorker := max(ops/workers, 1)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := kv.Put(fmt.Sprintf("w%d-%d", w, i), "v"); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
