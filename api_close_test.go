package consensusinside

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"
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
