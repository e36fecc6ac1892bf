package consensusinside

// One benchmark per table and figure of the paper's evaluation, plus the
// design ablations from DESIGN.md and real-hardware microbenchmarks of
// the QC-libtask queue. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Simulated experiments report virtual-time metrics (op/s, µs) through
// b.ReportMetric; wall-clock ns/op for them measures simulator speed, not
// protocol speed. EXPERIMENTS.md records these numbers against the
// paper's published values.

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"consensusinside/internal/experiments"
	"consensusinside/internal/msg"
	"consensusinside/internal/queue"
	irt "consensusinside/internal/runtime"
	"consensusinside/internal/transport"
	"consensusinside/internal/wire"
)

// metricName makes an experiment label safe as a testing.B metric unit
// (no whitespace allowed).
func metricName(label, suffix string) string {
	return strings.ReplaceAll(strings.ReplaceAll(label, " ", ""), "%", "pct") + suffix
}

func benchOpts(i int) experiments.Opts {
	return experiments.Opts{Seed: int64(i + 1)}
}

// BenchmarkNetCharacteristics regenerates the Section 3 in-text table:
// transmission and propagation delay, many-core vs LAN.
func BenchmarkNetCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NetCharacteristics(benchOpts(i))
		b.ReportMetric(rows[0].Ratio, "manycore-trans/prop")
		b.ReportMetric(rows[1].Ratio, "lan-trans/prop")
	}
}

// BenchmarkSec72Latency regenerates the Section 7.2 single-client commit
// latencies (paper: 1Paxos 16µs, Multi-Paxos 19.6µs, 2PC 21.4µs).
func BenchmarkSec72Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Latency(benchOpts(i))
		for _, r := range rows {
			b.ReportMetric(float64(r.Latency)/1e3, r.Protocol+"-µs")
		}
	}
}

// BenchmarkFig2MultiPaxosLANvsManycore regenerates Figure 2: Multi-Paxos
// throughput vs clients in a LAN and inside the many-core.
func BenchmarkFig2MultiPaxosLANvsManycore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig2(benchOpts(i), []int{1, 3, 10, 45, 100})
		mc := series["Multi-Paxos Multicore"]
		lan := series["Multi-Paxos LAN"]
		b.ReportMetric(mc[len(mc)-1].Throughput, "manycore-100c-ops")
		b.ReportMetric(lan[len(lan)-1].Throughput, "lan-100c-ops")
	}
}

// BenchmarkFig8LatencyVsThroughput regenerates Figure 8 (paper: 1Paxos
// peaks ≈130k op/s; Multi-Paxos 68,070 = 52%; 2PC ≈ 48%).
func BenchmarkFig8LatencyVsThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig8(benchOpts(i), []int{1, 3, 7, 13, 25, 45})
		for name, pts := range series {
			b.ReportMetric(experiments.PeakThroughput(pts), name+"-peak-ops")
		}
	}
}

// BenchmarkFig9DegreeOfReplication regenerates Figure 9 (Joint mode;
// paper: 1Paxos-Joint grows to 47 replicas, the others peak near 20 and
// decline).
func BenchmarkFig9DegreeOfReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig9(benchOpts(i), []int{3, 15, 31, 47})
		for name, pts := range series {
			last := pts[len(pts)-1]
			b.ReportMetric(last.Throughput, name+"-47r-ops")
		}
	}
}

// BenchmarkFig10ReadWorkload regenerates Figure 10 (2PC-Joint local
// reads vs 1Paxos at 3 and 5 clients).
func BenchmarkFig10ReadWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig10(benchOpts(i))
		for _, r := range rows {
			if r.Clients == 5 {
				b.ReportMetric(r.Throughput, metricName(r.Label, "-5c-ops"))
			}
		}
	}
}

// BenchmarkFig11SlowLeader regenerates Figure 11: 1Paxos under a slowed
// leader — steady rate, stall window, recovered rate.
func BenchmarkFig11SlowLeader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := experiments.Recovery(experiments.Fig11(benchOpts(i)))
		b.ReportMetric(rec.BeforeRate, "steady-ops")
		b.ReportMetric(float64(rec.StallBuckets)*10, "stall-ms")
		b.ReportMetric(rec.RecoveredRate, "recovered-ops")
	}
}

// BenchmarkSec22TwoPCSlowCoordinator regenerates the Section 2.2
// observation: 2PC throughput collapses for good when the coordinator's
// core is loaded.
func BenchmarkSec22TwoPCSlowCoordinator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := experiments.Recovery(experiments.Sec22(benchOpts(i)))
		b.ReportMetric(rec.BeforeRate, "steady-ops")
		b.ReportMetric(rec.RecoveredRate, "after-fault-ops")
	}
}

// BenchmarkAcceptorSwitch exercises Section 5.2: the active acceptor
// crashes and a backup is promoted; the harness reports the recovery.
func BenchmarkAcceptorSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := experiments.Recovery(experiments.AcceptorSwitch(benchOpts(i)))
		b.ReportMetric(rec.BeforeRate, "steady-ops")
		b.ReportMetric(float64(rec.StallBuckets)*10, "stall-ms")
		b.ReportMetric(rec.RecoveredRate, "recovered-ops")
	}
}

// BenchmarkLAN1PaxosVsMultiPaxos regenerates the Section 8 in-text claim
// (1Paxos over an IP network: 2.88x Multi-Paxos throughput).
func BenchmarkLAN1PaxosVsMultiPaxos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts(i)
		opts.Duration = 500 * time.Millisecond
		opts.Warmup = 100 * time.Millisecond
		rows := experiments.LANComparison(opts)
		if len(rows) == 2 && rows[0].Throughput > 0 {
			b.ReportMetric(rows[1].Throughput/rows[0].Throughput, "1paxos/multipaxos")
		}
	}
}

// BenchmarkAblationLearnBatching measures the DESIGN.md ablation: the
// acceptor's learn broadcast batched vs unbatched at 47 joint replicas.
func BenchmarkAblationLearnBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationLearnBatching(benchOpts(i))
		for _, r := range rows {
			b.ReportMetric(r.Throughput, metricName(r.Config, "-ops"))
		}
	}
}

// BenchmarkMenciusLoadSpread quantifies the Section 8 related-work
// comparison: Mencius spreads client load across all leaders (commits
// with spread vs funnelled traffic on the simulator).
func BenchmarkMenciusLoadSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		funnel, spread := experiments.MenciusLoadSpread(benchOpts(i))
		b.ReportMetric(funnel, "funnel-ops")
		b.ReportMetric(spread, "spread-ops")
	}
}

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
	return msg.AcceptRequest{
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
// full propose→decide→apply→reply cycle on the InProc runtime at the
// headline batch-16 configuration, with every pool pre-warmed, must
// report 0 allocs/op under -benchmem. The service's remaining
// allocations are per-batch (the decided value's entry slice, which the
// log retains, plus envelope boxing per instance), so at occupancy ~16
// they amortize below one allocation per operation; anything reporting
// >= 1 alloc/op means a per-command allocation crept back into the
// cycle.
func BenchmarkKVInProcSteadyState(b *testing.B) {
	kv, err := StartKV(KVConfig{Pipeline: 16, BatchSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	const workers = 64
	ops := make(chan struct{})
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
				// A constant key: the driver must not allocate either, or
				// its formatting would drown the signal being gated.
				if err := kv.Put("bench", "v"); err != nil {
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
}

// BenchmarkKVInProcSteadyStateTraced is the tracing-overhead
// counterpart of BenchmarkKVInProcSteadyState: the identical workload
// with 1-in-64 command tracing enabled. Compare ns/op between the two
// for the sampling cost on the hot path (bench/'s
// stage.trace_overhead_frac is the same ratio end to end); allocs/op
// stays amortized-zero — sampled spans are pooled.
func BenchmarkKVInProcSteadyStateTraced(b *testing.B) {
	benchKVSteadyState(b, 64)
}

func benchKVSteadyState(b *testing.B, traceInterval int) {
	kv, err := StartKV(KVConfig{Pipeline: 16, BatchSize: 16, TraceInterval: traceInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	const workers = 64
	ops := make(chan struct{})
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
}

// BenchmarkKVInProcPutClosedLoop is the pipelining baseline: 16 callers
// serialized behind a single-command window.
func BenchmarkKVInProcPutClosedLoop(b *testing.B) { benchKVConcurrentPut(b, 1) }

// BenchmarkKVInProcPutPipelined keeps a window of 16 commands in flight —
// compare ns/op against BenchmarkKVInProcPutClosedLoop for the client
// pipelining gain on the identical consensus path.
func BenchmarkKVInProcPutPipelined(b *testing.B) { benchKVConcurrentPut(b, 16) }

// BenchmarkAblationPipelining measures the simulated client-window
// ablation: 1Paxos, one client, closed loop vs window 8.
func BenchmarkAblationPipelining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationPipelining(benchOpts(i))
		for _, r := range rows {
			b.ReportMetric(r.Throughput, metricName(r.Config, "-ops"))
		}
	}
}

// BenchmarkAblationCommandBatching measures the simulated command-batch
// ablation: 1Paxos, one client, window 16, batch 1 vs 8 vs 16.
func BenchmarkAblationCommandBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationCommandBatching(benchOpts(i))
		for _, r := range rows {
			b.ReportMetric(r.Throughput, metricName(r.Config, "-ops"))
		}
	}
}

// BenchmarkShardScalingSim measures the simulated shard sweep: 12
// replica cores split into 1x12, 2x6 and 4x3 independent groups, 24
// clients on disjoint per-shard keys. Aggregate virtual-time throughput
// should grow near-linearly with the group count.
func BenchmarkShardScalingSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ShardScaling(benchOpts(i), nil)
		for _, r := range rows {
			b.ReportMetric(r.Throughput, fmt.Sprintf("shards%d-ops", r.Shards))
		}
		if rows[0].Throughput > 0 {
			b.ReportMetric(rows[len(rows)-1].Throughput/rows[0].Throughput, "speedup-4v1")
		}
	}
}
