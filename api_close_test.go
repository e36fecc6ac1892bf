package consensusinside

import (
	"bytes"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"consensusinside/internal/shard"
)

// TestKVCloseUnderLoad lands Close in the middle of 16 callers looping
// Put and Get: on either transport, and under every read mode (the three
// that use the bridge's read lane, and the default that does not), every
// call must return a result or the closed error — the bridge node is
// gone, and callers hold no timer of their own, so an op stranded in the
// hand-off, the write queue or either window would block its caller
// forever — and every goroutine the service started must be released.
func TestKVCloseUnderLoad(t *testing.T) {
	for _, tr := range []TransportKind{InProc, TCP} {
		for _, mode := range []ReadMode{ReadConsensus, ReadLease, ReadIndex, ReadFollower} {
			t.Run(fmt.Sprintf("%v/%v", tr, mode), func(t *testing.T) { closeUnderLoad(t, tr, mode) })
		}
	}
}

// TestKVGoroutineBudget: an InProc KV runs its replicas on cores, not a
// goroutine per (shard, replica). Four shards of three replicas and a
// bridge — 16 nodes — add exactly min(16, GOMAXPROCS) goroutines, a
// crash and a restart add none, and Close releases them all.
func TestKVGoroutineBudget(t *testing.T) {
	const shards, replicas = 4, 3
	before, coresBefore := stdruntime.NumGoroutine(), coreGoroutines()
	kv, err := StartKV(KVConfig{Shards: shards, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	added := min(shards*(replicas+1), stdruntime.GOMAXPROCS(0))
	// The service's goroutines are its cores, exactly; the total may read
	// lower while an earlier test's goroutines wind down, and higher only
	// for the moment a timer fire runs on a goroutine of its own.
	settles := func(step string, cores, limit int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for coreGoroutines()-coresBefore != cores || stdruntime.NumGoroutine() > before+limit {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d core goroutines and %d in all, want %d and at most %d more than the %d before StartKV",
					step, coreGoroutines()-coresBefore, stdruntime.NumGoroutine(), cores, limit, before)
			}
			time.Sleep(time.Millisecond)
		}
	}
	settles("started", added, added)
	for s := 0; s < kv.Shards(); s++ {
		if err := kv.Put(shard.KeyFor("budget", s, kv.Shards()), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.CrashReplica(replicas + 1); err != nil { // shard 1's replica 1
		t.Fatal(err)
	}
	settles("crashed", added, added)
	if err := kv.RestartReplica(replicas + 1); err != nil {
		t.Fatal(err)
	}
	settles("restarted", added, added)
	kv.Close()
	settles("closed", 0, 0)
}

// coreGoroutines counts the goroutines running an internal/runtime core.
func coreGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:stdruntime.Stack(buf, true)]
	return bytes.Count(buf, []byte("internal/runtime.(*core).run("))
}

func closeUnderLoad(t *testing.T, tr TransportKind, mode ReadMode) {
	const callers = 16
	before := stdruntime.NumGoroutine()
	kv, err := StartKV(KVConfig{Transport: tr, ReadMode: mode, LeaseDuration: 100 * time.Millisecond, Pipeline: 4, BatchAdaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put("warm", "v"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	served := make(chan int, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key, n := fmt.Sprintf("k%d", c), 0
			defer func() { served <- n }()
			for ; ; n++ {
				err := kv.Put(key, "v")
				if err == nil {
					_, err = kv.Get(key)
				}
				if err != nil {
					if !errors.Is(err, errKVClosed) {
						t.Errorf("caller %d: %v, want a result or the closed error", c, err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // mid-flight: windows full, callers queued behind them
	kv.Close()

	released := make(chan struct{})
	go func() { wg.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("Close left a caller blocked")
	}
	total := 0
	for c := 0; c < callers; c++ {
		total += <-served
	}
	if total == 0 {
		t.Error("no call completed before Close: the load never ran")
	}
	if err := kv.Put("late", "v"); !errors.Is(err, errKVClosed) {
		t.Errorf("Put after Close = %v, want the closed error", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for stdruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before StartKV", stdruntime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
