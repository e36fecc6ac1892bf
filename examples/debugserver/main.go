// debugserver: a live KV with the /debug introspection surface
// attached — the runnable counterpart of DESIGN.md's observability
// section, and the server the CI debug-endpoint smoke curls.
//
// It starts a 3-replica group with 1-in-8 command tracing, drives a
// light background workload so every surface has data, and serves:
//
//	/debug/metrics  the KV.Obs snapshot (counters, histogram
//	                summaries, flat dump, event tail)
//	/debug/trace    sampled command lifecycles with per-stage latency
//	/debug/events   the rare-event timeline
//	/debug/pprof/   net/http/pprof, live CPU/heap profiling
//
//	go run ./examples/debugserver              # serve on 127.0.0.1:7070
//	go run ./examples/debugserver -for 30s     # exit cleanly after 30s (CI)
//	curl -s localhost:7070/debug/metrics | head
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"consensusinside"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "debug listener address (use :0 for an ephemeral port)")
	runFor := flag.Duration("for", 0, "serve for this long then exit 0 (0 = forever)")
	interval := flag.Int("trace", 8, "trace sampling interval (0 = off)")
	flag.Parse()

	kv, err := consensusinside.StartKV(consensusinside.KVConfig{
		Replicas:       3,
		BatchAdaptive:  true,
		TraceInterval:  *interval,
		DebugAddr:      *addr,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	defer kv.Close()
	fmt.Printf("debug surface on http://%s  (metrics, trace, events, pprof)\n", kv.DebugAddr())

	// A gentle background workload so the surfaces show live data:
	// a write and a read every few milliseconds.
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			key := fmt.Sprintf("k%d", i%16)
			if err := kv.Put(key, fmt.Sprintf("v%d", i)); err != nil {
				log.Printf("put: %v", err)
				return
			}
			if _, err := kv.Get(key); err != nil {
				log.Printf("get: %v", err)
				return
			}
		}
	}()

	if *runFor > 0 {
		time.Sleep(*runFor)
		close(stop)
		return
	}
	select {}
}
