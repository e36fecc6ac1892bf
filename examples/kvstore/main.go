// kvstore: the sharded replicated map over real TCP sockets, with a
// whole-group crash mid-run — the paper's non-blocking story end to
// end, times two groups.
//
// Two independent consensus groups of three replicas each listen on
// loopback TCP ports; every key hash-routes to one group. Concurrent
// writers load the store across both groups; then every replica of
// group 0 is killed. Keys of group 1 keep committing — sharding makes
// the groups independent fault domains — while 1Paxos inside each
// group keeps single-replica failures invisible (compare 2PC, where
// any unresponsive replica blocks every update forever — Section 2.2).
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"consensusinside"
)

func main() {
	kv, err := consensusinside.StartKV(consensusinside.KVConfig{
		Replicas:       3,
		Shards:         2,
		BatchAdaptive:  true, // up to 8 commands (half the pipeline) per consensus instance
		Transport:      consensusinside.TCP,
		RequestTimeout: 30 * time.Second,
		AcceptTimeout:  150 * time.Millisecond,
	})
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	defer kv.Close()
	fmt.Printf("%d groups x 3 replicas on loopback TCP, 1Paxos, wire-codec messages\n", kv.Shards())

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := kv.Put(key, fmt.Sprintf("v%d", i)); err != nil {
					log.Fatalf("writer %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Println("30 writes committed, hash-partitioned across both groups")

	// Kill every replica of group 0 (global replica ids 0..2).
	for id := 0; id < 3; id++ {
		if err := kv.CrashReplica(id); err != nil {
			log.Fatalf("crash replica %d: %v", id, err)
		}
	}
	fmt.Println("group 0 wiped out — group 1 is an independent fault domain and keeps going")

	// Find a key that routes to the surviving group and write through it.
	aliveKey := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("after-crash-%d", i)
		if kv.ShardFor(k) == 1 {
			aliveKey = k
			break
		}
	}
	start := time.Now()
	if err := kv.Put(aliveKey, "still-alive"); err != nil {
		log.Fatalf("put after crash: %v", err)
	}
	fmt.Printf("first write after the crash committed in %v (key %q, group 1)\n",
		time.Since(start).Round(time.Millisecond), aliveKey)

	// Pre-crash state on the surviving group is still readable: sample
	// the first pre-crash key that routes to group 1.
	sampled := false
	for i := 0; i < 30 && !sampled; i++ {
		key := fmt.Sprintf("w%d-%d", i/10, i%10)
		if kv.ShardFor(key) != 1 {
			continue
		}
		v, err := kv.Get(key)
		if err != nil {
			log.Fatalf("read back %s: %v", key, err)
		}
		fmt.Printf("pre-crash state preserved: %s = %q\n", key, v)
		sampled = true
	}
	if !sampled {
		fmt.Println("(every pre-crash key happened to hash to group 0 — nothing to sample)")
	}
	fmt.Println("done")
}
