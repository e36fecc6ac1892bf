package consensusinside

// The stats-concurrency audit, pinned. Every counters struct KV.Obs
// collects (transport.Counters, snapshot.Counters, readpath.Counters,
// the bridge lane's counters and batch occupancy, the tracer, the event
// log) is written by engine or transport goroutines and collected from
// arbitrary caller goroutines, possibly while RestartReplica is
// swapping the very slots the collector walks. The synchronization
// contract:
//
//   - transport.Counters and snapshot.Counters are per-field atomics —
//     a collection tears across *fields* (it is not a consistent cut)
//     but never within one, and no update is lost;
//   - readpath.Counters is plain integers guarded by the read-path
//     server's mutex, which Collect takes;
//   - the bridge lane's counters (occupancy, deepest window, retries,
//     redirects, timeouts, ring growths) are single-writer atomics: the
//     bridge node writes them on whatever path issued the value — a
//     wake-up or a reply — and Collect, KV.BatchStats and KV.MaxInFlight
//     load them with no lock, so a value is visible as soon as it is
//     written, with no further wake-up;
//   - the per-replica slots (engines, TCP nodes) are guarded by the
//     shard mutex against RestartReplica's swap;
//   - tracer and event log are internally synchronized.
//
// This test drives all of it at once under load — snapshot readers,
// writers, a crash/restart cycle, the tracer sampling, and the debug
// HTTP surface — and exists to run under -race: any torn read or lost
// lock on these paths is a test failure even when the values happen to
// look sane. It also asserts the cheap monotonic coherence the
// families guarantee individually.

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestObsSnapshotRace(t *testing.T) {
	// Both transports: each wires the tracer into its send path
	// differently (the InProc cluster reads it from node goroutines
	// started at construction — exactly the publication this test
	// once caught unsynchronized).
	for _, tr := range []TransportKind{InProc, TCP} {
		t.Run(tr.String(), func(t *testing.T) { obsSnapshotRace(t, tr) })
	}
}

func obsSnapshotRace(t *testing.T, transport TransportKind) {
	kv, err := StartKV(KVConfig{
		Transport:        transport,
		BatchAdaptive:    true,
		TraceInterval:    16,
		SnapshotInterval: 64,
		RequestTimeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put("warm", "v"); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var readers sync.WaitGroup

	// Writers: keep every producer hot (wire frames, batches, trace
	// spans, snapshot captures). Op-count-bound, not time-bound: the
	// race detector slows the wire enough that a wall-clock window can
	// finish before any seq hits the sampling interval.
	const opsPerWriter = 400
	writeErr := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []string{"a", "b", "c", "d"}[w]
			for i := 0; i < opsPerWriter; i++ {
				if err := kv.Put(key, "v"); err != nil {
					writeErr <- err
					return
				}
			}
		}(w)
	}

	// Snapshot readers: every aggregation surface, concurrently.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				snap := kv.Obs()
				if c := snap.Counters["trace.started"]; c < snap.Counters["trace.finished"] {
					t.Errorf("trace.started %d < trace.finished %d", c, snap.Counters["trace.finished"])
					return
				}
				if in, out := snap.Counters["wire.frames_in"], snap.Counters["wire.frames_out"]; transport == InProc && in+out != 0 {
					t.Errorf("InProc service counted wire frames: %d in, %d out", in, out)
					return
				}
				if snap.Counters["read.index_reads"] < snap.Counters["read.index_rounds"] {
					t.Errorf("read path: %d index reads < %d rounds", snap.Counters["read.index_reads"], snap.Counters["read.index_rounds"])
					return
				}
				// The live structs, read the way the per-package tests do,
				// from under the shard mutex that guards the slots.
				sh := kv.shards[0]
				sh.mu.Lock()
				for _, n := range sh.tcp {
					_ = n.Stats.FramesOut.Load()
				}
				sh.mu.Unlock()
				occ := kv.BatchStats()
				if occ.Commands() < occ.Batches() {
					t.Errorf("batch occupancy: %d commands < %d batches", occ.Commands(), occ.Batches())
					return
				}
				_ = kv.Trace()
				_ = kv.Events().Tail(8)
				// Yield between sweeps: three busy readers can starve
				// the writers on a single-CPU runner.
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// The lock-free accessors in a tight loop: they take no lock a writer
	// could be starved on, and the window never reports deeper than the
	// pipeline.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			occ := kv.BatchStats()
			if occ.Commands() < occ.Batches() {
				t.Errorf("batch occupancy: %d commands < %d batches", occ.Commands(), occ.Batches())
				return
			}
			if deepest := kv.MaxInFlight(); deepest > 8 {
				t.Errorf("max in flight %d exceeds the pipeline of 8", deepest)
				return
			}
			stdruntime.Gosched()
		}
	}()

	// One replica slot churns underneath the readers while the
	// writers are still going.
	for i := 0; i < 2; i++ {
		if err := kv.CrashReplica(2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		if err := kv.RestartReplica(2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	wg.Wait() // writers drain their op budget
	stop.Store(true)
	readers.Wait()
	select {
	case err := <-writeErr:
		t.Fatal(err)
	default:
	}

	// Coherence across the final quiescent snapshot: all spans begun
	// were finished or are still pending in the active map, and the
	// batch counters moved.
	snap := kv.Trace()
	if snap.Started < snap.Finished {
		t.Fatalf("tracer accounting: started %d < finished %d", snap.Started, snap.Finished)
	}
	if snap.Finished == 0 {
		t.Fatal("tracer sampled nothing under load")
	}
	// Quiescent: every Put was acknowledged, so every command was issued
	// exactly once (resends are not issues) — including those the reply
	// path issued, with no wake-up after them to publish the count.
	finalOcc := kv.BatchStats()
	if want := int64(1 + 4*opsPerWriter); finalOcc.Commands() != want {
		t.Fatalf("batch occupancy counts %d commands in %d batches after %d acknowledged writes", finalOcc.Commands(), finalOcc.Batches(), want)
	}
	if kv.Obs().Counters["batch.commands"] != finalOcc.Commands() {
		t.Fatalf("Obs reports %d batch.commands, BatchStats %d", kv.Obs().Counters["batch.commands"], finalOcc.Commands())
	}
}
