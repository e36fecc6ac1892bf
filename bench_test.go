package consensusinside

// Real-hardware microbenchmarks (wall clock): the QC-libtask queue, the
// wire codec, the TCP send path and the KV's InProc Put path — the
// layers scripts/allocgate.sh and bench/'s ladder rest on. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's simulated experiments are not benchmarks (their ns/op
// would measure simulator speed): `consensusbench -run <id>` runs them
// from internal/experiments.Registry, and testdata/quick.golden pins
// their output.

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/queue"
	irt "consensusinside/internal/runtime"
	"consensusinside/internal/shard"
	"consensusinside/internal/transport"
	"consensusinside/internal/wire"
)

// --- Real-hardware microbenchmarks (wall clock, not simulated) ---

// BenchmarkRealQueueEnqueueDequeue measures the SPSC slot queue's
// single-threaded hot path.
func BenchmarkRealQueueEnqueueDequeue(b *testing.B) {
	q := queue.NewSPSC[int](queue.DefaultSlots)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.TryEnqueue(i)
		q.TryDequeue()
	}
}

// BenchmarkRealQueueTransfer measures cross-goroutine transfer through
// the paper-shaped queue (7 slots × 128-byte messages) — the real-world
// analogue of the Section 3 transmission-delay measurement.
func BenchmarkRealQueueTransfer(b *testing.B) {
	q := queue.NewSPSC[queue.FixedMsg](queue.DefaultSlots)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			q.Dequeue()
		}
	}()
	var m queue.FixedMsg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(m)
	}
	wg.Wait()
}

// BenchmarkRealQueuePingPong measures a full request/response round trip
// between two goroutines over a pair of SPSC queues — the analogue of the
// Section 3 propagation experiment. The goroutine scheduler stands in
// for core pinning, so absolute numbers are noisier than the paper's
// (see DESIGN.md's substitution note).
func BenchmarkRealQueuePingPong(b *testing.B) {
	ping := queue.NewSPSC[int](1) // single-slot, as in the paper
	pong := queue.NewSPSC[int](1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			v := ping.Dequeue()
			pong.Enqueue(v)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.Enqueue(i)
		pong.Dequeue()
	}
	wg.Wait()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// --- Wire-codec microbenchmarks (wall clock; run with -benchmem so
// allocation regressions on the send path stay visible) ---

// benchWireMsg is the codec benchmark workload: an accept for a batch-8
// value — the message the TCP hot path carries most under PR 3's
// batch-8 headline configuration.
func benchWireMsg() msg.Message {
	entries := make([]msg.BatchEntry, 8)
	for i := range entries {
		entries[i] = msg.BatchEntry{
			Seq: uint64(100 + i),
			Cmd: msg.Command{Op: msg.OpPut, Key: fmt.Sprintf("bench-key-%d", i), Val: "bench-value"},
		}
	}
	return msg.Accept{
		Instance: 42,
		PN:       7,
		Value:    msg.NewValue(3, 99, entries),
	}
}

// BenchmarkCodecEncodeWire measures the wire codec's send-path encode
// through the pooled-buffer discipline the transport uses. The
// acceptance bar is allocs/op: steady state must be zero.
func BenchmarkCodecEncodeWire(b *testing.B) {
	m := benchWireMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := wire.GetBuf()
		bb := wire.BeginFrame(*buf)
		bb, err := msg.AppendEnvelope(bb, 1, m)
		if err == nil {
			bb, err = wire.EndFrame(bb)
		}
		if err != nil {
			b.Fatal(err)
		}
		*buf = bb[:0]
		wire.PutBuf(buf)
	}
}

// BenchmarkCodecDecodeWire measures the receive-path decode of one
// wire-encoded envelope payload.
func BenchmarkCodecDecodeWire(b *testing.B) {
	payload, err := msg.AppendEnvelope(nil, 1, benchWireMsg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := msg.DecodeEnvelope(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPSendPathWire pushes b.N batch-8 accepts through a real
// TCPNode pair — encode, coalesced flush, socket, decode, delivery — and
// waits for the last delivery. allocs/op is the whole transport round,
// sender and receiver.
func BenchmarkTCPSendPathWire(b *testing.B) {
	var got atomic.Int64
	sink := irt.HandlerFunc{
		OnReceive: func(ctx irt.Context, from msg.NodeID, m msg.Message) {
			got.Add(1)
		},
	}
	fwd := irt.HandlerFunc{
		OnReceive: func(ctx irt.Context, from msg.NodeID, m msg.Message) {
			ctx.Send(1, m)
		},
	}
	nodes, err := transport.BuildLocalCluster([]irt.Handler{fwd, sink})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	m := benchWireMsg()
	// Warm the connection and codec state.
	nodes[0].Inject(0, m)
	for got.Load() < 1 {
		runtime.Gosched()
	}
	got.Store(0)
	// Self-clocked window: never run further ahead of the receiver than
	// the transport's own queues can absorb, so nothing ever drops and
	// the measured loop includes the whole pipeline's steady state.
	const window = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-got.Load() > window {
			runtime.Gosched()
		}
		nodes[0].Inject(0, m)
	}
	for got.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	stats := &nodes[0].Stats
	if n := stats.Dropped.Load(); n > 0 {
		b.Fatalf("%d sends dropped", n)
	}
	b.ReportMetric(float64(stats.FramesOut.Load())/float64(max(stats.Flushes.Load(), 1)), "frames/flush")
}

// BenchmarkTCPSenderOnlyWire isolates the send path: a TCPNode streams
// batch-8 accepts at a raw byte-discarding sink, so allocs/op covers
// exactly encode + frame + coalesced flush with no receiver in the
// profile — the acceptance measurement for the send-path allocation
// budget.
func BenchmarkTCPSenderOnlyWire(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	fwd := irt.HandlerFunc{
		OnReceive: func(ctx irt.Context, from msg.NodeID, m msg.Message) {
			ctx.Send(1, m)
		},
	}
	node, err := transport.NewTCPNode(0, fwd, map[msg.NodeID]string{
		0: "127.0.0.1:0",
		1: ln.Addr().String(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	if err := node.Start(); err != nil {
		b.Fatal(err)
	}
	m := benchWireMsg()
	node.Inject(0, m) // warm the connection and codec state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pace against the writer so the bounded send queue never
		// overflows into drops (which would skip encodes and undercount).
		for int64(i)-node.Stats.FramesOut.Load() > 3000 {
			runtime.Gosched()
		}
		node.Inject(0, m)
	}
	b.StopTimer()
	if d := node.Stats.Dropped.Load(); d > 0 {
		b.Fatalf("%d sends dropped", d)
	}
}

// BenchmarkKVInProcPut measures the end-to-end replicated-KV write path
// on the in-process runtime (3 replicas, full 1Paxos round per op).
func BenchmarkKVInProcPut(b *testing.B) {
	kv, err := StartKV(KVConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put("bench", "v"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKVConcurrentPut drives the InProc KV with 16 concurrent callers
// through a bridge window of the given depth. Window 1 is the paper's
// closed loop (one command in flight regardless of caller count);
// window >= 8 pipelines the callers' commands through consensus.
func benchKVConcurrentPut(b *testing.B, pipeline int) {
	kv, err := StartKV(KVConfig{Pipeline: pipeline})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	const workers = 16
	ops := make(chan int)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for range ops {
				if failed {
					continue // drain so the feeder never blocks
				}
				if err := kv.Put("bench", "v"); err != nil {
					errs <- err
					failed = true
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops <- i
	}
	close(ops)
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(kv.MaxInFlight()), "max-inflight")
}

// BenchmarkKVInProcSteadyState is the hot-path allocation gate: the
// full propose→decide→apply→reply cycle on the InProc runtime with
// adaptive batching at window 32 (a batch cap of 16), with every pool
// pre-warmed, must report 0 allocs/op under -benchmem. The service's
// remaining allocations are per-batch (the decided value's entry slice,
// which the log retains, plus envelope boxing per instance), so at
// occupancy ~13 they amortize below one allocation per operation;
// anything reporting >= 1 alloc/op means a per-command allocation crept
// back into the cycle. At window 16 (cap 8) occupancy reads ~8, too
// close to one allocation per op to gate.
func BenchmarkKVInProcSteadyState(b *testing.B) { benchKVSteadyState(b, 0, 1) }

// BenchmarkKVInProcSteadyStateShards is the same gate over four shards
// on one runtime's cores, where nodes that share a core pass messages
// through the core's FIFO instead of a queue: that path must allocate
// nothing per op either. cmds/batch reads ~10 at GOMAXPROCS 2: each
// shard's bridge shares its leader's core, so a reply reaches it, and it
// proposes, sooner than across cores. At window 16 (cap 8) it read ~7.5,
// and the per-batch allocations came too close to 1 per op.
func BenchmarkKVInProcSteadyStateShards(b *testing.B) { benchKVSteadyState(b, 0, 4) }

// BenchmarkKVInProcSteadyStateTraced is the tracing-overhead
// counterpart of BenchmarkKVInProcSteadyState: the identical workload
// with 1-in-64 command tracing enabled. Compare ns/op between the two
// for the sampling cost on the hot path (bench/'s
// stage.trace_overhead_frac is the same ratio end to end); allocs/op
// stays amortized-zero — sampled spans are pooled.
func BenchmarkKVInProcSteadyStateTraced(b *testing.B) {
	benchKVSteadyState(b, 64, 1)
}

// BenchmarkKVInProcSteadyStateLight is the batch-1 allocation gate, the
// shape of bench/'s inproc-put-light: 4 callers, batching off, so every
// command is its own instance and nothing amortizes. scripts/allocgate.sh
// holds it at 5 allocs/op — the messages boxed into msg.Message that
// carry the command (request, accept, reply) and the Learn's entry slice
// and box; a sixth is a per-instance allocation back on the commit path.
func BenchmarkKVInProcSteadyStateLight(b *testing.B) {
	benchKVLoad(b, KVConfig{Pipeline: 16}, 4)
}

// benchKVSteadyState drives 64 callers per shard through an adaptive
// InProc KV of window 32 (batch cap 16) with 1-in-traceInterval command
// tracing (0 = off).
func benchKVSteadyState(b *testing.B, traceInterval, shards int) {
	benchKVLoad(b, KVConfig{Pipeline: 32, BatchAdaptive: true, TraceInterval: traceInterval, Shards: shards}, 64*shards)
}

// benchKVLoad drives workers callers, spread over cfg's shards, through
// an InProc KV with every pool warmed before the measured window.
func benchKVLoad(b *testing.B, cfg KVConfig, workers int) {
	kv, err := StartKV(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	shards := max(cfg.Shards, 1)
	ops := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// A key per caller, built here, spreads the callers over the
		// shards: the loop must not allocate either, or its formatting
		// would drown the signal being gated.
		key := shard.KeyFor("bench", w%shards, shards)
		go func() {
			defer wg.Done()
			failed := false
			for range ops {
				if failed {
					continue // drain so the feeder never blocks
				}
				if err := kv.Put(key, "v"); err != nil {
					errs <- err
					failed = true
				}
			}
		}()
	}
	// Warm the reply pools, session lanes, queue buffers and done-chan
	// pool outside the measured window.
	for i := 0; i < 4096; i++ {
		ops <- struct{}{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops <- struct{}{}
	}
	close(ops)
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	occ := kv.BatchStats()
	b.ReportMetric(occ.Mean(), "cmds/batch") // what the per-batch allocations amortize over
}

// BenchmarkKVInProcPutClosedLoop is the pipelining baseline: 16 callers
// serialized behind a single-command window.
func BenchmarkKVInProcPutClosedLoop(b *testing.B) { benchKVConcurrentPut(b, 1) }

// BenchmarkKVInProcPutPipelined keeps a window of 16 commands in flight —
// compare ns/op against BenchmarkKVInProcPutClosedLoop for the client
// pipelining gain on the identical consensus path.
func BenchmarkKVInProcPutPipelined(b *testing.B) { benchKVConcurrentPut(b, 16) }
