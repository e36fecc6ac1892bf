package main

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	_ "consensusinside/internal/protocol/all" // register every engine
	"consensusinside/internal/queue"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simnet"
	"consensusinside/internal/snapshot"
	"consensusinside/internal/topology"
	"consensusinside/internal/transport"
	"consensusinside/internal/wire"
)

// The layer ladder: one micro-benchmark per layer, bottom to top, each
// calling only that layer's exported functions, so an end-to-end number can
// be explained as a sum and a change to one layer can be seen where it was
// made. scale multiplies every iteration count (1 in a normal run; -quick
// runs the minimum that still exercises each rung).
type ladder struct {
	scale  float64
	in     *inputs // workload-shaped keys and values
	spans  *spanLog
	parent int32
	out    []value
}

// iters scales one repeat's iteration count, never below 64.
func (l *ladder) iters(n int) int {
	if m := int(float64(n) * l.scale); m > 64 {
		return m
	}
	return 64
}

// ladderReps is how many times each rung's timed loop runs; the rung
// reports the median. One pass of a micro-benchmark on a shared 2-core host
// read 5 or 9 ns for the same batched transfer from one run to the next.
const ladderReps = 5

// reps runs once ladderReps times and adds the median of what it returns as
// metric name; samples is the iteration count of one repeat.
func (l *ladder) reps(name string, samples int, once func() (float64, error)) error {
	xs := make([]float64, 0, ladderReps)
	for i := 0; i < ladderReps; i++ {
		x, err := once()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, x)
	}
	v := windowed(name, xs, int64(samples))
	v.Windows = 0
	l.out = append(l.out, v)
	return nil
}

func (l *ladder) add(name string, v float64, samples int) {
	l.out = append(l.out, plain(name, v, int64(samples)))
}

// runLadder measures every rung and the simulator cells.
func runLadder(seed int64, scale float64, spans *spanLog) ([]value, error) {
	l := &ladder{scale: scale, in: genInputs(workloads[1], seed, 0), spans: spans, parent: -1}
	l.parent = spans.open(spanLadder, -1)
	defer spans.close(l.parent)
	rungs := []func() error{l.queue, l.inproc, l.codec, l.tcp, l.engines, l.rsm, l.snapshot,
		func() error { return l.sim(seed) }}
	for i, rung := range rungs {
		var err error
		spans.time(spanRungQueue+spanName(i), l.parent, func() { err = rung() })
		if err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// command i of the ladder's workload-shaped stream.
func (l *ladder) command(i int) msg.Command {
	cin := &l.in.callers[i%len(l.in.callers)]
	return msg.Command{Op: msg.OpPut, Key: l.in.keys[cin.owned[i%len(cin.owned)]], Val: cin.vals[i%len(cin.vals)]}
}

// --- internal/queue ---

// The runtime's shape: 1024 slots per directed pair, drained 64 at a time.
const (
	queueSlots = 1024
	queueDrain = 64
)

func (l *ladder) queue() error {
	var m msg.Message = msg.ClientReply{Seq: 1, OK: true}
	n := l.iters(400_000)

	if err := l.reps("queue.single_xfer_ns", n, func() (float64, error) {
		q := queue.NewSPSC[msg.Message](queueSlots)
		done := make(chan struct{})
		t0 := time.Now()
		go func() {
			defer close(done)
			for i := 0; i < n; i++ {
				q.Enqueue(m)
			}
		}()
		for i := 0; i < n; i++ {
			q.Dequeue()
		}
		<-done
		return float64(time.Since(t0)) / float64(n), nil
	}); err != nil {
		return err
	}

	batch := make([]msg.Message, queueDrain)
	for i := range batch {
		batch[i] = m
	}
	buf := make([]msg.Message, queueDrain)
	return l.reps("queue.batch_xfer_ns", n, func() (float64, error) {
		q := queue.NewSPSC[msg.Message](queueSlots)
		done := make(chan struct{})
		t0 := time.Now()
		go func() {
			defer close(done)
			for sent := 0; sent < n; {
				k := q.TryEnqueueBatch(batch[:min(queueDrain, n-sent)])
				if k == 0 {
					goruntime.Gosched()
				}
				sent += k
			}
		}()
		for got := 0; got < n; {
			k := q.DequeueInto(buf)
			if k == 0 {
				goruntime.Gosched()
			}
			got += k
		}
		<-done
		return float64(time.Since(t0)) / float64(n), nil
	})
}

// --- internal/runtime ---

type kick struct{}

func (kick) Kind() string { return "bench_kick" }

func (l *ladder) inproc() error {
	var m msg.Message = msg.ClientReply{Seq: 1, OK: true}

	// Ping-pong: a commit is at least four such hops.
	rounds := l.iters(40_000)
	if err := l.reps("runtime.hop_ns", 2*rounds, func() (float64, error) {
		done := make(chan struct{})
		count := 0
		c := runtime.NewInProcCluster([]runtime.Handler{
			runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, from msg.NodeID, _ msg.Message) {
				if from == 1 {
					if count++; count == rounds {
						close(done)
						return
					}
				}
				ctx.Send(1, m)
			}},
			runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, _ msg.NodeID, _ msg.Message) { ctx.Send(0, m) }},
		})
		defer c.Stop()
		t0 := time.Now()
		c.Inject(msg.Nobody, 0, kick{})
		<-done
		return float64(time.Since(t0)) / float64(2*rounds), nil
	}); err != nil {
		return err
	}

	// Flood: one sender, two receivers — a leader's fan-out to its peers.
	total := l.iters(400_000) &^ 1
	return l.reps("runtime.flood_msgs_per_s", total, func() (float64, error) {
		fin := make(chan struct{}, 2)
		sink := func() runtime.Handler {
			got := 0
			return runtime.HandlerFunc{OnReceive: func(runtime.Context, msg.NodeID, msg.Message) {
				if got++; got == total/2 {
					fin <- struct{}{}
				}
			}}
		}
		c := runtime.NewInProcCluster([]runtime.Handler{
			runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, _ msg.NodeID, _ msg.Message) {
				for i := 0; i < total/2; i++ {
					ctx.Send(1, m)
					ctx.Send(2, m)
				}
			}},
			sink(), sink(),
		})
		defer c.Stop()
		t0 := time.Now()
		c.Inject(msg.Nobody, 0, kick{})
		<-fin
		<-fin
		return float64(total) / time.Since(t0).Seconds(), nil
	})
}

// --- internal/msg, internal/wire ---

const codecBatch = 8

func (l *ladder) request(first int) msg.ClientRequest {
	entries := make([]msg.BatchEntry, codecBatch)
	for i := range entries {
		entries[i] = msg.BatchEntry{Seq: uint64(first + i), Cmd: l.command(first + i)}
	}
	return msg.NewRequest(3, uint64(first), entries)
}

func mallocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (l *ladder) codec() error {
	req := l.request(1)
	n := l.iters(40_000)
	buf := make([]byte, 0, 4096)

	payload, err := msg.AppendEnvelope(nil, 3, req)
	if err != nil {
		return err
	}
	l.add("msg.bytes_per_cmd", float64(len(payload))/codecBatch, codecBatch)

	m0 := mallocs()
	if err := l.reps("msg.encode_ns", n, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if buf, err = msg.AppendEnvelope(buf[:0], 3, req); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(n), nil
	}); err != nil {
		return err
	}
	if err := l.reps("msg.decode_ns", n, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := msg.DecodeEnvelope(payload); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(n), nil
	}); err != nil {
		return err
	}
	l.add("msg.codec_allocs", float64(mallocs()-m0)/float64(ladderReps*n), ladderReps*n)

	var scratch []byte
	rd := bytes.NewReader(nil)
	return l.reps("wire.frame_rt_ns", n, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			frame, err := wire.EndFrame(append(wire.BeginFrame(buf[:0]), payload...))
			if err != nil {
				return 0, err
			}
			buf = frame
			rd.Reset(frame)
			if _, err := wire.ReadFrame(rd, &scratch); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(n), nil
	})
}

// --- internal/transport ---

// tcpCredit is how many messages the flood keeps in flight: under the
// per-peer send queue (4096), beyond which the transport drops.
const tcpCredit = 1024

func (l *ladder) tcp() error {
	var m msg.Message = msg.ClientRequest{Client: 3, Seq: 1, Cmd: l.command(0)}
	var ack msg.Message = msg.ClientReply{Seq: 1, OK: true}

	rounds := l.iters(4_000)
	if err := l.reps("transport.rtt_us", rounds, func() (float64, error) {
		done := make(chan struct{})
		count := 0
		nodes, err := transport.BuildLocalCluster([]runtime.Handler{
			runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, from msg.NodeID, _ msg.Message) {
				if from == 1 {
					if count++; count == rounds {
						close(done)
						return
					}
				}
				ctx.Send(1, m)
			}},
			runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, _ msg.NodeID, _ msg.Message) { ctx.Send(0, ack) }},
		})
		if err != nil {
			return 0, err
		}
		defer closeNodes(nodes)
		t0 := time.Now()
		nodes[0].Inject(msg.Nobody, kick{})
		<-done
		return float64(time.Since(t0)) / float64(rounds) / 1e3, nil
	}); err != nil {
		return err
	}

	chunks := max(l.iters(80_000)/tcpCredit, 2)
	burst := func(ctx runtime.Context) {
		for i := 0; i < tcpCredit; i++ {
			ctx.Send(1, m)
		}
	}
	return l.reps("transport.flood_msgs_per_s", chunks*tcpCredit, func() (float64, error) {
		done := make(chan struct{})
		acks, got := 0, 0
		nodes, err := transport.BuildLocalCluster([]runtime.Handler{
			runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, from msg.NodeID, _ msg.Message) {
				switch {
				case from != 1: // the kick: two chunks in flight
					burst(ctx)
					burst(ctx)
				case acks+1 == chunks:
					close(done)
				default:
					// One chunk was received: send the next, if any is left.
					if acks++; acks+1 < chunks {
						burst(ctx)
					}
				}
			}},
			runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, _ msg.NodeID, _ msg.Message) {
				if got++; got%tcpCredit == 0 {
					ctx.Send(0, ack)
				}
			}},
		})
		if err != nil {
			return 0, err
		}
		defer closeNodes(nodes)
		t0 := time.Now()
		nodes[0].Inject(msg.Nobody, kick{})
		<-done
		return float64(chunks*tcpCredit) / time.Since(t0).Seconds(), nil
	})
}

func closeNodes(nodes []*transport.TCPNode) {
	for _, n := range nodes {
		n.Close()
	}
}

// --- engines via internal/protocol ---

// engineGroup is three engines of one protocol on FakeContexts: no runtime
// underneath, the benchmark carries every message by hand.
type engineGroup struct {
	engines []protocol.Engine
	ctxs    []*runtime.FakeContext
	queue   []runtime.FakeSend // in flight, with the sender in from
	from    []msg.NodeID
	msgs    int
	replied map[uint64]bool
	target  msg.NodeID // where the next request goes: the last redirect, else replica 0
}

const engineClient = msg.NodeID(3)

func newEngineGroup(id protocol.ID) (*engineGroup, error) {
	ids := []msg.NodeID{0, 1, 2}
	g := &engineGroup{replied: make(map[uint64]bool)}
	for _, n := range ids {
		eng, err := protocol.Build(id, protocol.Config{ID: n, Replicas: ids, SnapshotInterval: 1024})
		if err != nil {
			return nil, err
		}
		ctx := runtime.NewFakeContext(n, len(ids)+1)
		g.engines, g.ctxs = append(g.engines, eng), append(g.ctxs, ctx)
	}
	for i, eng := range g.engines {
		eng.Start(g.ctxs[i])
		g.collect(msg.NodeID(i))
	}
	g.drain()
	return g, nil
}

func (g *engineGroup) collect(from msg.NodeID) {
	for _, s := range g.ctxs[from].TakeSent() {
		g.queue, g.from = append(g.queue, s), append(g.from, from)
	}
}

func (g *engineGroup) drain() {
	for len(g.queue) > 0 {
		s, from := g.queue[0], g.from[0]
		g.queue, g.from = g.queue[1:], g.from[1:]
		g.msgs++
		if s.To == engineClient {
			switch r := s.M.(type) {
			case msg.ClientReply:
				if r.OK {
					g.replied[r.Seq] = true
				} else if r.Redirect != msg.Nobody {
					g.target = r.Redirect
				}
			case msg.ClientReplyBatch:
				for _, one := range r.Replies {
					if one.OK {
						g.replied[one.Seq] = true
					}
				}
				msg.RecycleReplies(s.M)
			}
			continue
		}
		g.engines[s.To].Receive(g.ctxs[s.To], from, s.M)
		g.collect(s.To)
	}
	if len(g.queue) == 0 {
		g.queue, g.from = g.queue[:0], g.from[:0]
	}
}

// fireTimer delivers the earliest pending timer of any engine, for the
// engines that only move on a timeout (none does in steady state; a boot
// election may). It reports whether one was pending.
func (g *engineGroup) fireTimer() bool {
	best, bi, bt := time.Duration(-1), -1, -1
	for i, ctx := range g.ctxs {
		for t := range ctx.Timers {
			tm := &ctx.Timers[t]
			if !tm.Cancelled && (best < 0 || tm.At < best) {
				best, bi, bt = tm.At, i, t
			}
		}
	}
	if bi < 0 {
		return false
	}
	tm := &g.ctxs[bi].Timers[bt]
	tm.Cancelled = true
	for _, ctx := range g.ctxs {
		if ctx.Clock < best {
			ctx.Clock = best
		}
	}
	g.engines[bi].Timer(g.ctxs[bi], tm.Tag)
	g.collect(msg.NodeID(bi))
	return true
}

// commit carries one command from ClientRequest to its reply, and on until
// no message it caused is left in flight.
func (g *engineGroup) commit(seq uint64, cmd msg.Command) error {
	req := msg.ClientRequest{Client: engineClient, Seq: seq, Cmd: cmd, Ack: seq}
	for try := 0; try < 64; try++ {
		g.queue, g.from = append(g.queue, runtime.FakeSend{To: g.target, M: req}), append(g.from, engineClient)
		g.drain()
		for !g.replied[seq] && g.fireTimer() {
			g.drain()
		}
		if g.replied[seq] {
			delete(g.replied, seq)
			return nil
		}
		g.target = (g.target + 1) % msg.NodeID(len(g.engines))
	}
	return fmt.Errorf("command %d never committed", seq)
}

func (l *ladder) engines() error {
	n := l.iters(4_000)
	for i, id := range protocol.IDs() {
		name := engineNames[i]
		g, err := newEngineGroup(id)
		if err != nil {
			return fmt.Errorf("engine %s: %w", name, err)
		}
		seq := uint64(0)
		segment := func(count int) (float64, error) {
			t0 := time.Now()
			for i := 0; i < count; i++ {
				seq++
				if err := g.commit(seq, l.command(int(seq))); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(t0)) / float64(count), nil
		}
		if _, err := segment(l.iters(1_000)); err != nil { // boot election and warm-up
			return fmt.Errorf("engine %s: %w", name, err)
		}
		g.msgs = 0
		if err := l.reps("engine."+name+".commit_ns", n, func() (float64, error) { return segment(n) }); err != nil {
			return err
		}
		l.add("engine."+name+".msgs_per_commit", float64(g.msgs)/float64(ladderReps*n), ladderReps*n)
	}
	return nil
}

// --- internal/rsm ---

func (l *ladder) rsm() error {
	n := l.iters(80_000)
	sessions := rsm.NewSessions()
	log := rsm.NewLog(rsm.Dedup{Sessions: sessions, Inner: rsm.NewKV()})
	log.OnApply(func(e rsm.Entry, results []string) {
		sessions.Done(e.Value.Client, e.Value.Seq, e.Instance, results[0])
	})
	next := 0 // instance; the command's sequence number is one more
	if err := l.reps("rsm.apply_ns", n, func() (float64, error) {
		t0 := time.Now()
		for end := next + n; next < end; next++ {
			seq := uint64(next + 1)
			log.Learn(int64(next), msg.Value{Client: engineClient, Seq: seq, Cmd: l.command(next), Ack: seq})
			if next%1024 == 1023 {
				log.CompactTo(int64(next)) // what a snapshot every 1024 instances does
			}
		}
		return float64(time.Since(t0)) / float64(n), nil
	}); err != nil {
		return err
	}

	reply := func(msg.ClientReply) {}
	reqs := make([]msg.ClientRequest, 1024)
	for i := range reqs {
		reqs[i] = msg.ClientRequest{Client: engineClient, Cmd: l.command(i)}
	}
	return l.reps("rsm.screen_ns", n, func() (float64, error) {
		t0 := time.Now()
		for end := next + n; next < end; next++ {
			req := &reqs[next%len(reqs)]
			req.Seq, req.Ack = uint64(next+1), uint64(next+1)
			if fresh := sessions.Screen(*req, reply); len(fresh) != 1 {
				return 0, fmt.Errorf("Screen served a fresh command from the table")
			}
		}
		return float64(time.Since(t0)) / float64(n), nil
	})
}

// --- internal/snapshot ---

func (l *ladder) snapshot() error {
	n := l.iters(80)
	sessions := rsm.NewSessions()
	kv := rsm.NewKV()
	for i := 0; i < 4*numKeys; i++ {
		v := msg.Value{Client: engineClient, Seq: uint64(i + 1), Cmd: l.command(i), Ack: uint64(i + 1)}
		sessions.Done(v.Client, v.Seq, int64(i), kv.Apply(v))
	}
	var enc []byte
	if err := l.reps("snapshot.encode_us", n, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			enc = snapshot.Encode(snapshot.Snapshot{LastApplied: 4 * numKeys, State: kv.SnapshotState(), Lanes: sessions.Export()})
		}
		return float64(time.Since(t0)) / float64(n) / 1e3, nil
	}); err != nil {
		return err
	}
	return l.reps("snapshot.decode_us", n, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			snap, err := snapshot.Decode(enc)
			if err != nil {
				return 0, err
			}
			if err := rsm.NewKV().RestoreState(snap.State); err != nil {
				return 0, err
			}
			rsm.NewSessions().Restore(snap.Lanes)
		}
		return float64(time.Since(t0)) / float64(n) / 1e3, nil
	})
}

// --- internal/cluster simulator ---

// sim runs each engine on the deterministic many-core simulator: 3 replicas
// and 4 closed-loop clients on the 48-core machine, 60 ms of virtual time
// after 10 ms of warm-up. Messages per operation and operations per virtual
// second repeat exactly at a given seed; sim.events_per_s is how fast this
// host runs the simulator, the one wall-clock number here.
func (l *ladder) sim(seed int64) error {
	const warmup, measured = 10 * time.Millisecond, 60 * time.Millisecond
	events := int64(0)
	t0 := time.Now()
	for i, id := range protocol.IDs() {
		c, err := cluster.Build(cluster.Spec{
			Protocol: id, Machine: topology.Opteron48(), Cost: simnet.ManyCore(), Seed: seed,
			Replicas: 3, Clients: 4, Warmup: warmup, RetryTimeout: 50 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("sim %s: %w", engineNames[i], err)
		}
		c.Start()
		c.RunFor(warmup + measured)
		st := c.ClientStats()
		sent := int64(0)
		for n := 0; n < c.Net.NumNodes(); n++ {
			cs := c.Net.Stats(msg.NodeID(n))
			sent += cs.Sent
			events += cs.Received + cs.SelfMsgs + cs.Timers
		}
		if st.Completed == 0 {
			return fmt.Errorf("sim %s: no operation completed", engineNames[i])
		}
		l.add("sim."+engineNames[i]+".msgs_per_op", float64(sent)/float64(st.Completed), st.Completed)
		l.add("sim."+engineNames[i]+".ops_per_vs", st.Throughput, st.Measured)
	}
	l.add("sim.events_per_s", float64(events)/time.Since(t0).Seconds(), int(events))
	return nil
}
