package transport

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/onepaxos"
	"consensusinside/internal/protocol"
	"consensusinside/internal/runtime"
	"consensusinside/internal/wire"
)

type collected struct {
	mu      sync.Mutex
	replies []msg.ClientReply
	done    chan struct{}
	want    int
}

func (c *collected) add(rep msg.ClientReply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replies = append(c.replies, rep)
	if len(c.replies) == c.want {
		close(c.done)
	}
}

// TestEchoOverTCP runs a request/reply round trip over the wire codec,
// and checks the other half of the connection's first-byte contract: a
// stream that does not open with the wire codec byte is not a peer and
// is dropped before anything in it can be read as frames.
func TestEchoOverTCP(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		got := make(chan msg.Message, 1)
		echo := runtime.HandlerFunc{
			OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
				if _, ok := m.(msg.ClientRequest); ok {
					ctx.Send(from, msg.ClientReply{Seq: 1, OK: true, Result: "echo"})
				}
			},
		}
		sink := runtime.HandlerFunc{
			OnStart: func(ctx runtime.Context) {
				ctx.Send(0, msg.ClientRequest{Client: 1, Seq: 1, Cmd: msg.Command{Op: msg.OpNoop}})
			},
			OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
				got <- m
			},
		}
		nodes, err := BuildLocalCluster([]runtime.Handler{echo, sink})
		if err != nil {
			t.Fatal(err)
		}
		defer closeAll(nodes)
		select {
		case m := <-got:
			rep, ok := m.(msg.ClientReply)
			if !ok || rep.Result != "echo" {
				t.Fatalf("got %+v", m)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("echo round trip timed out")
		}
		// The round trip must be visible in the wire counters on
		// both ends. A frame counts as sent once its flush returned,
		// and the echo can overtake that bookkeeping (the peer reads
		// the bytes before the writer goroutine runs again), so give
		// the sender's counters a bounded moment to settle.
		snd, rcv := &nodes[1].Stats, &nodes[0].Stats
		for deadline := time.Now().Add(10 * time.Second); snd.FramesOut.Load() < 1 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if snd.FramesOut.Load() < 1 || snd.Flushes.Load() < 1 || snd.BytesOut.Load() == 0 || snd.Dials.Load() != 1 {
			t.Errorf("sender stats missing traffic: %v", wireCounts(nodes[1]))
		}
		if rcv.FramesIn.Load() < 1 || rcv.BytesIn.Load() == 0 {
			t.Errorf("receiver stats missing traffic: %v", wireCounts(nodes[0]))
		}
		if snd.Reconnects.Load() != 0 || snd.Dropped.Load() != 0 {
			t.Errorf("clean run counted failures: %v", wireCounts(nodes[1]))
		}
	})
	t.Run("foreign first byte rejected", func(t *testing.T) {
		delivered := make(chan msg.Message, 1)
		sink := runtime.HandlerFunc{
			OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) { delivered <- m },
		}
		nodes, err := BuildLocalCluster([]runtime.Handler{sink})
		if err != nil {
			t.Fatal(err)
		}
		defer closeAll(nodes)
		// A well-formed stream — hello frame, then a request — behind the
		// wrong first byte ('G' is what the retired gob stream opened
		// with): only that byte may decide the connection's fate.
		stream := []byte{'G'}
		enc := wire.NewAppender(wire.BeginFrame(nil))
		(&hello{id: 1}).wire(&enc)
		helloFrame, err := wire.EndFrame(enc.Buf())
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, helloFrame...)
		frame, err := msg.AppendEnvelope(wire.BeginFrame(nil), 1, msg.ClientRequest{Client: 1, Seq: 1})
		if err == nil {
			frame, err = wire.EndFrame(frame)
		}
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)

		conn, err := net.Dial("tcp", nodes[0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil || n != 0 {
			t.Fatalf("node kept a non-wire connection open (read %d bytes, err %v)", n, err)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("node never closed a connection that opened with a foreign codec byte")
		}
		select {
		case m := <-delivered:
			t.Fatalf("a frame behind a foreign codec byte reached the handler: %+v", m)
		default:
		}
		if nodes[0].Stats.FramesIn.Load() != 0 {
			t.Errorf("frames counted on a rejected connection: %v", wireCounts(nodes[0]))
		}
	})
}

// wireCounts renders a node's counters under their wire.* names, the
// way every reader outside this package sees them.
func wireCounts(n *TCPNode) map[string]int64 {
	s := obs.NewSnapshot()
	n.Collect(&s)
	return s.Counters
}

func closeAll(nodes []*TCPNode) {
	for _, n := range nodes {
		n.Close()
	}
}

// TestReconnectCounted pins the write-deadline satellite's observable
// half: when a peer resets the connection, the sender's writer drops it
// (instead of blocking an actor forever, as the pre-writer-loop code
// could) and the next send redials — counted in Stats().Reconnects.
func TestReconnectCounted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The peer accepts and immediately resets every connection.
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	fwd := runtime.HandlerFunc{
		OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
			ctx.Send(1, m)
		},
	}
	node, err := NewTCPNode(0, fwd, map[msg.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		node.Inject(0, msg.ClientReply{Seq: 1})
		if node.Stats.Reconnects.Load() >= 1 {
			return // a dropped connection was redialed and counted
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no reconnect counted after repeated peer resets: %v", wireCounts(node))
}

// TestSlowPeerDropsNotBlocks pins the non-blocking send guarantee: with
// a peer that never reads and a tiny write timeout, a flood of sends
// must complete promptly (queue drops + a dropped connection), never
// wedge the sender.
func TestSlowPeerDropsNotBlocks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			hold <- c // accept but never read: the kernel buffers fill and stay full
		}
	}()
	defer func() {
		for {
			select {
			case c := <-hold:
				c.Close()
			default:
				return
			}
		}
	}()
	oldTimeout := writeTimeout
	writeTimeout = 100 * time.Millisecond
	defer func() { writeTimeout = oldTimeout }()

	fwd := runtime.HandlerFunc{
		OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
			ctx.Send(1, m)
		},
	}
	node, err := NewTCPNode(0, fwd, map[msg.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	// A payload big enough that the kernel buffers cannot absorb the
	// whole flood: the writer must hit the deadline and drop the conn.
	big := msg.ClientReply{Seq: 1, Result: string(make([]byte, 32<<10))}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			node.Inject(0, big)
		}
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("sender wedged behind a stalled peer")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if node.Stats.Dropped.Load() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("stalled peer never surfaced as drops: %v", wireCounts(node))
}

// TestCloseCountsQueuedAsDropped: every message send accepted ends up
// in FramesOut or Dropped, including what is still queued when the node
// closes.
func TestCloseCountsQueuedAsDropped(t *testing.T) {
	t.Run("wedged peer", func(t *testing.T) {
		const sends = 3000 // under the 4096-slot queue: send itself drops none
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		hold := make(chan net.Conn, 1) // the one connection the node dials
		go func() {
			if c, err := ln.Accept(); err == nil {
				hold <- c // accept but never read: the kernel buffers fill and stay full
			}
		}()
		var forwarded atomic.Int64
		fwd := runtime.HandlerFunc{
			OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
				ctx.Send(1, m)
				forwarded.Add(1)
			},
		}
		node, err := NewTCPNode(0, fwd, map[msg.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		// Far more bytes than the kernel buffers hold, so the writer is
		// stuck in a flush with most of the queue behind it.
		big := msg.ClientReply{Seq: 1, Result: string(make([]byte, 8<<10))}
		for i := 0; i < sends; i++ {
			node.Inject(0, big)
		}
		for deadline := time.Now().Add(10 * time.Second); forwarded.Load() < sends; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("forwarded %d of %d", forwarded.Load(), sends)
			}
		}
		node.Close()
		select {
		case c := <-hold:
			c.Close()
		default:
		}
		flushed, dropped := node.Stats.FramesOut.Load(), node.Stats.Dropped.Load()
		if dropped == 0 || dropped != sends-flushed {
			t.Fatalf("%d queued, %d flushed, %d dropped: want dropped = queued - flushed > 0", sends, flushed, dropped)
		}
	})
	// The writer's two exits without an error, taken while messages are
	// queued: the select picks among ready cases at random, so each runs
	// many times.
	for _, exit := range []string{"peer shut down", "node stopped"} {
		t.Run(exit, func(t *testing.T) {
			const queued = 8
			for range 50 {
				node := &TCPNode{stop: make(chan struct{})}
				conn, other := net.Pipe()
				pc := &peerConn{out: make(chan msg.Message, queued), closed: make(chan struct{}), c: conn}
				for i := 0; i < queued; i++ {
					pc.out <- msg.ClientReply{Seq: uint64(i)}
				}
				if exit == "peer shut down" {
					pc.shutdown()
				} else {
					close(node.stop)
					conn.Close() // a frame the select takes first fails instead of blocking
				}
				node.writeLoop(1, pc, bufio.NewWriter(conn))
				other.Close()
				if n := node.Stats.FramesOut.Load() + node.Stats.Dropped.Load(); n != queued {
					t.Fatalf("%d queued, %d flushed or dropped", queued, n)
				}
			}
		})
	}
}

// TestTCPSelfSendUnderBacklog: every engine's broadcast includes the
// sender, so an actor self-sends while a backlog of input is queued
// behind it. The self-send must be delivered ahead of that backlog, in
// FIFO order (what TestInProcSelfRingOverflowKeepsFIFO asserts for a
// burst of self-sends), and building the backlog must not block its
// producer.
func TestTCPSelfSendUnderBacklog(t *testing.T) {
	const injected = 3000 // well past a peer queue's 1024 slots
	const external = msg.NodeID(9)
	gate := make(chan struct{})
	done := make(chan struct{})
	var delivered atomic.Int64
	var gated bool
	h := runtime.HandlerFunc{
		OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
			if !gated {
				gated = true
				<-gate // hold the actor until the backlog has built up
			}
			// Message k arrives as delivery 2k from outside and is looped
			// back at once, so its echo must be delivery 2k+1.
			n := delivered.Add(1) - 1
			seq := m.(msg.ClientRequest).Seq
			wantFrom := external
			if n%2 == 1 {
				wantFrom = ctx.ID()
			}
			if from != wantFrom || seq != uint64(n/2) {
				t.Errorf("delivery %d: seq %d from %d, want seq %d from %d", n, seq, from, n/2, wantFrom)
			}
			if from == external {
				ctx.Send(ctx.ID(), m)
			}
			if n+1 == 2*injected {
				close(done)
			}
		},
	}
	nodes, err := BuildLocalCluster([]runtime.Handler{h})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nodes)
	var open sync.Once
	defer open.Do(func() { close(gate) })
	backlog := make(chan struct{})
	go func() {
		defer close(backlog)
		for i := 0; i < injected; i++ {
			nodes[0].Inject(external, msg.ClientRequest{Seq: uint64(i)})
		}
	}()
	select {
	case <-backlog:
	case <-time.After(5 * time.Second):
		t.Fatal("Inject blocked behind a held actor")
	}
	open.Do(func() { close(gate) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("delivered %d of %d", delivered.Load(), 2*injected)
	}
}

// TestPeerFloodOnWedgedNodeIsBounded: a peer that floods a node whose
// actor is wedged fills at most the node's bound of undelivered frames;
// the rest wait in the reader and the socket, not in memory, and are
// all delivered once the actor moves.
func TestPeerFloodOnWedgedNodeIsBounded(t *testing.T) {
	const flood = 3000 // under the sender's 4096-slot queue, so nothing drops
	const bound = 1024
	gate := make(chan struct{})
	var delivered atomic.Int64
	done := make(chan struct{})
	wedged := runtime.HandlerFunc{
		OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
			n := delivered.Add(1)
			if n == 1 {
				<-gate
			}
			if n == flood {
				close(done)
			}
		},
	}
	flooder := runtime.HandlerFunc{
		OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
			for i := 0; i < flood; i++ {
				ctx.Send(0, msg.ClientRequest{Seq: uint64(i)})
			}
		},
	}
	nodes, err := BuildLocalCluster([]runtime.Handler{wedged, flooder})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nodes)
	var open sync.Once
	defer open.Do(func() { close(gate) })
	nodes[1].Inject(msg.Nobody, msg.ClientRequest{})

	in := &nodes[0].Stats.FramesIn
	undelivered := func() int64 { return in.Load() - delivered.Load() }
	deadline := time.Now().Add(10 * time.Second)
	for undelivered() < bound {
		if time.Now().After(deadline) {
			t.Fatalf("flood stalled at %d undelivered frames, below the bound %d", undelivered(), bound)
		}
		time.Sleep(time.Millisecond)
	}
	// The reader has reached the bound; it must stay there while the
	// actor is wedged.
	for settle := time.Now().Add(200 * time.Millisecond); time.Now().Before(settle); time.Sleep(time.Millisecond) {
		if n := undelivered(); n > bound {
			t.Fatalf("%d frames undelivered at a wedged node, bound %d", n, bound)
		}
	}
	open.Do(func() { close(gate) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d of %d flooded frames", delivered.Load(), flood)
	}
}

// TestOnePaxosOverTCP runs the full 1Paxos protocol, unchanged, over real
// TCP sockets — the paper's Section 6.2 portability claim.
func TestOnePaxosOverTCP(t *testing.T) {
	ids := []msg.NodeID{0, 1, 2}
	mk := func(id msg.NodeID) runtime.Handler {
		return onepaxos.New(protocol.Config{
			ID:       id,
			Replicas: ids,
			// Wall-clock timeouts: far looser than the simulated ones.
			AcceptTimeout:    500 * time.Millisecond,
			TakeoverBackoff:  200 * time.Millisecond,
			UtilRetryTimeout: 500 * time.Millisecond,
		})
	}
	col := &collected{done: make(chan struct{}), want: 5}
	client := runtime.HandlerFunc{
		OnStart: func(ctx runtime.Context) {
			for i := uint64(1); i <= 5; i++ {
				ctx.Send(0, msg.ClientRequest{
					Client: 3, Seq: i,
					Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"},
				})
			}
		},
		OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
			if rep, ok := m.(msg.ClientReply); ok && rep.OK {
				col.add(rep)
			}
		},
	}
	nodes, err := BuildLocalCluster([]runtime.Handler{mk(0), mk(1), mk(2), client})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	select {
	case <-col.done:
	case <-time.After(30 * time.Second):
		col.mu.Lock()
		n := len(col.replies)
		col.mu.Unlock()
		t.Fatalf("timed out with %d/5 commits over TCP", n)
	}
}

func TestAddressValidation(t *testing.T) {
	if _, err := NewTCPNode(5, runtime.HandlerFunc{}, map[msg.NodeID]string{0: "127.0.0.1:0"}); err == nil {
		t.Fatal("missing self address must error")
	}
	n, err := NewLocalTCPNode(0, runtime.HandlerFunc{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Start(); err == nil {
		t.Fatal("Start without peers must error")
	}
	if n.Addr() == "" {
		t.Fatal("Addr must report the bound address")
	}
}
