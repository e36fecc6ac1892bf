package consensusinside

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestKVInProc(t *testing.T) {
	kv, err := StartKV(KVConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put("lang", "go"); err != nil {
		t.Fatal(err)
	}
	got, err := kv.Get("lang")
	if err != nil {
		t.Fatal(err)
	}
	if got != "go" {
		t.Fatalf("Get = %q, want go", got)
	}
	if got, err := kv.Get("missing"); err != nil || got != "" {
		t.Fatalf("missing Get = %q,%v", got, err)
	}
}

func TestKVSequentialOps(t *testing.T) {
	kv, err := StartKV(KVConfig{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i%5)
		if err := kv.Put(key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	got, err := kv.Get("k4")
	if err != nil {
		t.Fatal(err)
	}
	if got != "v49" {
		t.Fatalf("Get = %q, want v49 (last writer wins)", got)
	}
}

// TestKVReadTimeoutBoundsQueuedReads pins the read lane's deadline
// semantics: a fast-path Get's timeout runs from when the bridge first
// sees it, even while the 2-deep read window is saturated against an
// unresponsive cluster. A first wave of Gets fills the window (all
// replicas are crashed, so its batches never retire); a second wave
// then pools in the read queue, where pre-stamping it would wait
// deadline-less until the first wave expires and only then start its
// own timeout — roughly doubling the caller's wait. Every second-wave
// Get must fail within its own RequestTimeout plus scan-tick slack.
func TestKVReadTimeoutBoundsQueuedReads(t *testing.T) {
	const timeout = 400 * time.Millisecond
	kv, err := StartKV(KVConfig{
		Replicas:       3,
		ReadMode:       ReadIndex,
		RequestTimeout: timeout,
		AcceptTimeout:  10 * time.Millisecond, // read scan tick = 2x this
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := kv.CrashReplica(i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kv.Get("k") // first wave: saturates the read window, expires at ~timeout
		}()
	}
	time.Sleep(timeout / 2) // the second wave arrives mid-flight of the first
	type res struct {
		err     error
		elapsed time.Duration
	}
	results := make(chan res, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, err := kv.Get("k")
			results <- res{err, time.Since(start)}
		}()
	}
	wg.Wait()
	close(results)
	limit := timeout + 150*time.Millisecond
	for r := range results {
		if r.err == nil {
			t.Error("Get against a fully-crashed cluster succeeded")
		}
		if r.elapsed > limit {
			t.Fatalf("queued Get took %v to fail, want <= %v (its deadline must run from enqueue, not from window admission)",
				r.elapsed, limit)
		}
	}
}

func TestKVConcurrentClients(t *testing.T) {
	kv, err := StartKV(KVConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := kv.Put(fmt.Sprintf("g%d-k%d", g, i), "v"); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for g := 0; g < 4; g++ {
		if v, err := kv.Get(fmt.Sprintf("g%d-k9", g)); err != nil || v != "v" {
			t.Fatalf("g%d: %q %v", g, v, err)
		}
	}
}

func TestKVOverTCP(t *testing.T) {
	kv, err := StartKV(KVConfig{Transport: TCP, RequestTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put("a", "1"); err != nil {
		t.Fatal(err)
	}
	got, err := kv.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got != "1" {
		t.Fatalf("Get = %q, want 1", got)
	}
}

func TestKVSurvivesLeaderCrashOverTCP(t *testing.T) {
	kv, err := StartKV(KVConfig{
		Transport:      TCP,
		RequestTimeout: 30 * time.Second,
		AcceptTimeout:  150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put("before", "crash"); err != nil {
		t.Fatal(err)
	}
	// Kill the initial leader (replica 0): the bridge rotates to another
	// replica, which takes over leadership.
	if err := kv.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("after", "crash"); err != nil {
		t.Fatalf("put after leader crash: %v", err)
	}
	got, err := kv.Get("before")
	if err != nil {
		t.Fatal(err)
	}
	if got != "crash" {
		t.Fatalf("state lost across failover: %q", got)
	}
}

func TestKVConfigValidation(t *testing.T) {
	if _, err := StartKV(KVConfig{Replicas: 2}); err == nil {
		t.Fatal("2 replicas must be rejected")
	}
	if _, err := StartKV(KVConfig{Transport: TransportKind(99)}); err == nil {
		t.Fatal("unknown transport must be rejected")
	}
	if _, err := StartKV(KVConfig{Protocol: Protocol(99)}); err == nil {
		t.Fatal("unknown protocol must be rejected")
	}
	if _, err := StartKV(KVConfig{Pipeline: 1 << 20}); err == nil {
		t.Fatal("a pipeline deeper than the session window must be rejected")
	}
	if _, err := StartKV(KVConfig{ReadMode: ReadMode(99)}); err == nil {
		t.Fatal("unknown read mode must be rejected")
	}
	if _, err := StartKV(KVConfig{LeaseDuration: -time.Second}); err == nil {
		t.Fatal("negative lease duration must be rejected")
	}
}
