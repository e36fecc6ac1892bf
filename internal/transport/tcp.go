// Package transport runs protocol Handlers over real network sockets —
// the paper's portability claim for QC-libtask: "Since we have
// implemented standard interfaces provided by the library, the
// implemented protocols in our framework can be easily ported to a
// network system with no change" (Section 6.2).
//
// Only the queue layer between nodes changes: a TCPNode is a
// runtime.Node on a core of its own — the in-process runtime's sweep
// loop, Context, mailbox, timers and self-sends — whose peer transport
// is sockets instead of SPSC queues. Reader goroutines post decoded
// frames into the node's mailbox, waiting while it holds its bound of
// undelivered ones, and the node's non-self sends go to per-peer writer
// queues. This package keeps only sockets, framing, dialing, writers and
// the wire counters.
//
// The wire path is built to disappear from profiles: messages are
// encoded with the hand-rolled binary codec (internal/msg's per-type
// layouts, framed by internal/wire) into pooled buffers, and each
// peer connection has a dedicated writer goroutine that drains a send
// queue through one bufio.Writer — many messages per flush, so many
// messages per syscall. The first byte of every connection names the
// stream format, so a listener rejects anything that is not a peer
// speaking it. Links are assumed reliable and ordered (TCP),
// matching the paper's model ("in an IP setting the communication
// links are unreliable, this is currently not a problem on many-cores"
// — and TCP restores the same guarantee).
//
// Failure semantics are unchanged from the paper's non-blocking
// assumption, now actually enforced on the write side: a send never
// blocks the actor — dialing happens on the peer's writer goroutine
// (with a negative cache after failures), enqueueing is non-blocking
// (a full queue drops the message), and a stalled peer can hold its
// writer for at most writeTimeout before the connection is dropped,
// its queue counted as drops, and the next dial counted in
// Counters.Reconnects.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/runtime"
	"consensusinside/internal/trace"
	"consensusinside/internal/wire"
)

// codecByteWire is the first byte a dialer writes: it names the stream
// format that follows (a hello frame tagged msg.HelloTag identifying the
// dialer, then one frame per message). A listener drops a connection
// that opens with anything else, so a stray client — or a future format
// — can never be misread as frames.
const codecByteWire = 'W'

// hello is the handshake frame: the reserved tag no message may claim,
// then the dialer's id. Like every wire type it has one layout, which
// the dialer appends and the listener reads (rejecting any other tag).
type hello struct{ id msg.NodeID }

func (h *hello) wire(c *wire.Codec) {
	tag := msg.HelloTag
	c.Byte(&tag)
	if tag != msg.HelloTag {
		c.Fail(fmt.Errorf("transport: hello frame tagged %d", tag))
	}
	c.Int((*int)(&h.id))
}

// Writer tuning. The queue and coalescing caps bound both memory and
// the latency a burst can add to the message at the head of a flush.
const (
	sendQueueLen  = 4096 // per-peer queued messages before sends drop
	maxCoalesce   = 128  // frames per flush, so a firehose still flushes
	writerBufSize = 64 << 10
	readerBufSize = 64 << 10
	dialTimeout   = time.Second
	// redialBackoff negative-caches a failed dial: until it expires,
	// sends to that peer drop at the cost of a map lookup. Dials happen
	// on writer goroutines, never the actor, so the backoff bounds
	// wasted goroutines, not actor stalls.
	redialBackoff = time.Second
)

// writeTimeout bounds how long one flush to a peer may block. Before
// the writer loop existed, a stalled peer parked the sending actor on a
// raw conn.Write forever; now it parks only that peer's writer, and only
// this long, after which the connection is dropped (and redialed lazily
// on the next send). A variable so tests can shorten it.
var writeTimeout = 5 * time.Second

// TCPNode hosts one Handler on a TCP endpoint: a runtime.Node whose peer
// transport is sockets. The node runs every handler callback on its one
// goroutine, preserving the actor model; reader goroutines post decoded
// frames into it and its non-self sends go to per-peer writer queues.
type TCPNode struct {
	id      msg.NodeID
	handler runtime.Handler
	addrs   map[msg.NodeID]string
	node    *runtime.Node // built by Start

	ln   net.Listener
	stop chan struct{}
	wg   sync.WaitGroup

	mu         sync.Mutex // guards conns, dialed, dialFailed and inbound against concurrent dial/close
	conns      map[msg.NodeID]*peerConn
	dialed     map[msg.NodeID]bool
	dialFailed map[msg.NodeID]time.Time
	inbound    []net.Conn

	// Stats is the node's live wire counters; readers Load the fields
	// they want or Collect them all.
	Stats  Counters
	tracer *trace.Tracer

	closeOnce sync.Once
}

// Counters is one endpoint's wire-level accounting: what actually
// crossed the sockets, how well the writer coalesced frames into
// flushes, and how the connection pool behaved. The reader, writer and
// actor goroutines add to the fields they own; every field is atomic,
// so a reader on any goroutine sees each value whole (though not all
// of them at one instant).
type Counters struct {
	BytesOut   atomic.Int64 // bytes written to peer sockets (frames + handshakes)
	BytesIn    atomic.Int64 // bytes read from peer sockets
	FramesOut  atomic.Int64 // messages encoded, written and flushed
	FramesIn   atomic.Int64 // messages decoded and delivered
	Flushes    atomic.Int64 // socket write calls, bufio flush-throughs included: FramesOut/Flushes is the coalescing win
	Dials      atomic.Int64 // outbound connections established
	Reconnects atomic.Int64 // dials that replaced a previously dropped connection
	Dropped    atomic.Int64 // messages dropped (dead peer, full send queue, failed flush)
}

// countedConn counts the bytes and write calls that actually cross the
// socket. Counting writes here rather than
// at the writer loop's explicit Flush points keeps the frames-per-flush
// metric honest when a message larger than the bufio buffer makes the
// writer flush through to the socket mid-batch.
type countedConn struct {
	net.Conn
	stats *Counters
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.stats.BytesIn.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.stats.BytesOut.Add(int64(n))
	c.stats.Flushes.Add(1)
	return n, err
}

// peerConn is one outbound connection: the send queue plus, once the
// writer goroutine's dial succeeds, the socket. The queue exists from
// the first send, so the actor never waits for a dial.
type peerConn struct {
	out    chan msg.Message
	closed chan struct{}
	once   sync.Once

	mu   sync.Mutex
	c    net.Conn // nil until the writer's dial succeeds
	dead bool     // shutdown ran before the dial finished
}

// setConn installs the dialed socket; it reports false (and the caller
// must close c itself) when the peer was shut down mid-dial.
func (pc *peerConn) setConn(c net.Conn) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dead {
		return false
	}
	pc.c = c
	return true
}

// shutdown makes the writer exit and the socket (if any yet) close,
// idempotently.
func (pc *peerConn) shutdown() {
	pc.once.Do(func() {
		pc.mu.Lock()
		pc.dead = true
		c := pc.c
		pc.mu.Unlock()
		close(pc.closed)
		if c != nil {
			c.Close()
		}
	})
}

func newTCPNode(id msg.NodeID, handler runtime.Handler, ln net.Listener, addrs map[msg.NodeID]string) *TCPNode {
	return &TCPNode{
		id:         id,
		handler:    handler,
		addrs:      addrs,
		ln:         ln,
		stop:       make(chan struct{}),
		conns:      make(map[msg.NodeID]*peerConn),
		dialed:     make(map[msg.NodeID]bool),
		dialFailed: make(map[msg.NodeID]time.Time),
	}
}

// NewTCPNode builds a node for handler with the given peer address map
// (which must include this node's own listen address).
func NewTCPNode(id msg.NodeID, handler runtime.Handler, addrs map[msg.NodeID]string) (*TCPNode, error) {
	self, ok := addrs[id]
	if !ok {
		return nil, fmt.Errorf("transport: node %d missing from address map", id)
	}
	ln, err := net.Listen("tcp", self)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", self, err)
	}
	peers := make(map[msg.NodeID]string, len(addrs))
	for k, v := range addrs {
		peers[k] = v
	}
	return newTCPNode(id, handler, ln, peers), nil
}

// NewLocalTCPNode listens on an ephemeral loopback port; the final
// address is available via Addr. Use BuildLocalCluster to wire a whole
// in-process cluster.
func NewLocalTCPNode(id msg.NodeID, handler runtime.Handler) (*TCPNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen loopback: %w", err)
	}
	return newTCPNode(id, handler, ln, nil), nil
}

// Addr reports the node's listen address.
func (t *TCPNode) Addr() string { return t.ln.Addr().String() }

// Collect adds the node's wire counters to s under the "wire." names.
// Safe from any goroutine.
func (t *TCPNode) Collect(s *obs.Snapshot) {
	c := &t.Stats
	s.Add("wire.bytes_out", c.BytesOut.Load())
	s.Add("wire.bytes_in", c.BytesIn.Load())
	s.Add("wire.frames_out", c.FramesOut.Load())
	s.Add("wire.frames_in", c.FramesIn.Load())
	s.Add("wire.flushes", c.Flushes.Load())
	s.Add("wire.dials", c.Dials.Load())
	s.Add("wire.reconnects", c.Reconnects.Load())
	s.Add("wire.dropped", c.Dropped.Load())
}

// Inject delivers m to this node's handler as if sent by from — the
// entry point for external drivers (bridging synchronous APIs onto the
// node's single-goroutine actor loop). Call it after Start; it never
// blocks.
func (t *TCPNode) Inject(from msg.NodeID, m msg.Message) {
	t.node.Post(from, m)
}

// SetPeers installs the cluster address map (required before Start when
// built with NewLocalTCPNode).
func (t *TCPNode) SetPeers(addrs map[msg.NodeID]string) {
	peers := make(map[msg.NodeID]string, len(addrs))
	for k, v := range addrs {
		peers[k] = v
	}
	t.addrs = peers
}

// Start launches the accept loop and the handler goroutine.
func (t *TCPNode) Start() error {
	if t.addrs == nil {
		return errors.New("transport: no peer addresses configured")
	}
	t.node = runtime.NewNode(t.id, len(t.addrs), time.Now(), t.tracer, t.send)
	t.node.Start(t.handler) // before any reader can post into it
	t.wg.Add(1)
	go t.acceptLoop()
	return nil
}

// Close shuts the node down and waits for its goroutines. The actor
// stops first, so nothing dials a peer behind the shutdown.
func (t *TCPNode) Close() error {
	t.closeOnce.Do(func() {
		if t.node != nil {
			t.node.Halt()
		}
		close(t.stop)
		t.ln.Close()
		t.mu.Lock()
		for _, pc := range t.conns {
			pc.shutdown()
		}
		for _, c := range t.inbound {
			c.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

func (t *TCPNode) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		select {
		case <-t.stop:
			// Close has already shut the inbound connections: one
			// accepted just before the listener closed must not outlive
			// it, or its reader would block Close forever.
			t.mu.Unlock()
			conn.Close()
			return
		default:
		}
		t.inbound = append(t.inbound, conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn, countedConn{Conn: conn, stats: &t.Stats})
	}
}

// forgetInbound removes a finished inbound connection from the close
// list. Without it a flapping peer — dial, stall, drop, redial — would
// grow t.inbound by one dead conn per reconnect for the node's
// lifetime.
func (t *TCPNode) forgetInbound(conn net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range t.inbound {
		if c == conn {
			last := len(t.inbound) - 1
			t.inbound[i] = t.inbound[last]
			t.inbound[last] = nil
			t.inbound = t.inbound[:last]
			return
		}
	}
}

// readLoop decodes one inbound connection, which must open with the
// wire codec byte. raw is the bare accepted conn (the t.inbound
// bookkeeping handle); conn wraps it with byte counting.
func (t *TCPNode) readLoop(raw, conn net.Conn) {
	defer t.wg.Done()
	defer t.forgetInbound(raw)
	defer conn.Close()
	br := bufio.NewReaderSize(conn, readerBufSize)
	if cb, err := br.ReadByte(); err != nil || cb != codecByteWire {
		return // not a peer: drop the connection
	}
	t.readWire(br)
}

func (t *TCPNode) readWire(br *bufio.Reader) {
	scratch := wire.GetBuf()
	defer wire.PutBuf(scratch)
	payload, err := wire.ReadFrame(br, scratch)
	if err != nil {
		return
	}
	var h hello
	c := wire.NewReader(payload)
	h.wire(&c)
	if c.Finish() != nil {
		return // malformed handshake
	}
	for {
		payload, err := wire.ReadFrame(br, scratch)
		if err != nil {
			return
		}
		from, m, err := msg.DecodeEnvelope(payload)
		if err != nil {
			return // corrupt stream: drop the connection
		}
		// Waits while the node holds its bound of undelivered peer
		// frames: a fast peer backs up into its socket, not into memory.
		if !t.node.PostPeer(from, m, t.stop) {
			return
		}
		t.Stats.FramesIn.Add(1)
	}
}

// SetTracer installs a command tracer: client requests leaving this
// node get their wire-send stage stamped (internal/trace). Call before
// Start.
func (t *TCPNode) SetTracer(tr *trace.Tracer) { t.tracer = tr }

// send is the node's peer transport: it dials lazily and enqueues the
// message on the peer's writer. It never blocks the actor: an unreachable
// peer or a full queue drops the message — exactly the non-blocking
// assumption the protocols are designed for, with the drop surfaced in
// Stats.Dropped.
func (t *TCPNode) send(to msg.NodeID, m msg.Message) {
	pc, err := t.conn(to)
	if err != nil {
		t.Stats.Dropped.Add(1)
		msg.Release(m)
		return
	}
	select {
	case pc.out <- m:
		// The writer may have died (and drained its queue) between the
		// conn lookup and the enqueue; sweep again so the message is
		// counted dropped instead of rotting in an orphaned queue.
		select {
		case <-pc.closed:
			t.drainDropped(pc)
		default:
		}
	case <-pc.closed:
		t.Stats.Dropped.Add(1)
		msg.Release(m)
	default:
		t.Stats.Dropped.Add(1)
		msg.Release(m)
	}
}

// conn returns the peer's connection, creating it lazily. Creation
// never blocks the caller: the send queue exists immediately and the
// writer goroutine dials and handshakes in the background. After a
// failed dial the peer is negative-cached for redialBackoff, so a down
// peer costs the actor a map lookup per send, not a dial timeout.
func (t *TCPNode) conn(to msg.NodeID) (*peerConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pc, ok := t.conns[to]; ok {
		return pc, nil
	}
	addr, ok := t.addrs[to]
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %d", to)
	}
	if last, ok := t.dialFailed[to]; ok && time.Since(last) < redialBackoff {
		return nil, fmt.Errorf("transport: peer %d in dial backoff", to)
	}
	pc := &peerConn{out: make(chan msg.Message, sendQueueLen), closed: make(chan struct{})}
	t.conns[to] = pc
	t.wg.Add(1)
	go t.writeLoopFor(to, pc, addr)
	return pc, nil
}

// writeLoopFor dials, handshakes and then drains one peer's queue. Dial
// or handshake failure negative-caches the peer and drops whatever
// queued behind it; the protocols treat that exactly like a lossy link.
func (t *TCPNode) writeLoopFor(to msg.NodeID, pc *peerConn, addr string) {
	defer t.wg.Done()
	bw, err := t.dialPeer(to, pc, addr)
	if err != nil {
		t.mu.Lock()
		t.dialFailed[to] = time.Now()
		if cur, ok := t.conns[to]; ok && cur == pc {
			delete(t.conns, to)
		}
		t.mu.Unlock()
		pc.shutdown()
		t.drainDropped(pc)
		return
	}
	t.writeLoop(to, pc, bw)
}

// dialPeer establishes and handshakes the socket for one peerConn.
func (t *TCPNode) dialPeer(to msg.NodeID, pc *peerConn, addr string) (*bufio.Writer, error) {
	raw, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %d: %w", to, err)
	}
	c := countedConn{Conn: raw, stats: &t.Stats}
	if !pc.setConn(c) {
		raw.Close()
		return nil, fmt.Errorf("transport: peer %d shut down mid-dial", to)
	}
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	bw := bufio.NewWriterSize(c, writerBufSize)

	// Handshake writes land in the (empty, 64K) buffer and cannot fail
	// before the Flush below, which reports any socket error.
	enc := wire.NewAppender(wire.BeginFrame(nil))
	(&hello{id: t.id}).wire(&enc)
	hb, err := wire.EndFrame(enc.Buf())
	if err != nil {
		return nil, err
	}
	bw.WriteByte(codecByteWire)
	bw.Write(hb)
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("transport: hello to %d: %w", to, err)
	}

	t.mu.Lock()
	if t.dialed[to] {
		t.Stats.Reconnects.Add(1)
	}
	t.dialed[to] = true
	delete(t.dialFailed, to)
	t.mu.Unlock()
	t.Stats.Dials.Add(1)
	return bw, nil
}

// drainDropped empties a dead peer's queue, counting every abandoned
// message, so stalls and unreachable peers show up as drops rather
// than silence.
func (t *TCPNode) drainDropped(pc *peerConn) {
	for {
		select {
		case m := <-pc.out:
			t.Stats.Dropped.Add(1)
			msg.Release(m)
		default:
			return
		}
	}
}

// writeWireFrame encodes one message as a length-prefixed frame into
// the buffered writer, through a pooled scratch buffer — the
// steady-state send path allocates nothing — and releases it
// (msg.Release): the frame holds everything the peer needs. It reports
// whether the message was written; an unencodable message is dropped
// (and counted) without killing the connection.
func (t *TCPNode) writeWireFrame(bw *bufio.Writer, m msg.Message) (bool, error) {
	scratch := wire.GetBuf()
	b := wire.BeginFrame(*scratch)
	b, err := msg.AppendEnvelope(b, t.id, m)
	msg.Release(m)
	if err == nil {
		b, err = wire.EndFrame(b)
	}
	*scratch = b[:0]
	if err != nil {
		wire.PutBuf(scratch)
		t.Stats.Dropped.Add(1)
		return false, nil
	}
	_, werr := bw.Write(b)
	wire.PutBuf(scratch)
	return werr == nil, werr
}

// writeLoop drains one peer's send queue through its buffered writer:
// whatever has queued up since the last flush — capped at maxCoalesce —
// shares a single flush, so under load many messages share one syscall,
// and when idle the pending message goes out immediately. Every flush
// batch runs under writeTimeout; a stalled peer costs one writer
// goroutine for that long, never an actor. Frames count as sent only
// when their flush succeeds; a failed batch counts as drops (best
// effort: bytes bufio already wrote through mid-batch are unknowable).
func (t *TCPNode) writeLoop(to msg.NodeID, pc *peerConn, bw *bufio.Writer) {
	conn := pc.c
	for {
		var m msg.Message
		// Either exit counts what is still queued as dropped, so every
		// message send accepted ends up in FramesOut or Dropped.
		select {
		case m = <-pc.out:
		case <-pc.closed:
			t.drainDropped(pc)
			return
		case <-t.stop:
			pc.shutdown()
			t.drainDropped(pc)
			return
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		written, failed := int64(0), int64(0)
		ok, err := t.writeWireFrame(bw, m)
		if ok {
			written++
		} else if err != nil {
			failed++ // the message the write error ate
		}
	drain:
		for err == nil && written < maxCoalesce {
			select {
			case m = <-pc.out:
				if ok, err = t.writeWireFrame(bw, m); ok {
					written++
				} else if err != nil {
					failed++
				}
			default:
				break drain
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			if written > 0 {
				t.Stats.FramesOut.Add(written)
			}
			continue
		}
		// The batch never (fully) reached the peer: count it — the
		// encoded-but-unflushed messages and the one the error ate —
		// and everything still queued as dropped, then drop the
		// connection.
		t.Stats.Dropped.Add(written + failed)
		t.dropConn(to, pc)
		t.drainDropped(pc)
		return
	}
}

func (t *TCPNode) dropConn(to msg.NodeID, pc *peerConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pc.shutdown()
	if cur, ok := t.conns[to]; ok && cur == pc {
		delete(t.conns, to)
	}
}

// BuildLocalCluster creates one TCPNode per handler on loopback ports,
// wires the shared address map, and starts them. The caller must Close
// every returned node.
func BuildLocalCluster(handlers []runtime.Handler) ([]*TCPNode, error) {
	return BuildLocalClusterTraced(handlers, nil)
}

// BuildLocalClusterTraced is BuildLocalCluster with a command tracer
// installed on every node before it starts (see SetTracer); nil means
// no tracing.
func BuildLocalClusterTraced(handlers []runtime.Handler, tracer *trace.Tracer) ([]*TCPNode, error) {
	nodes := make([]*TCPNode, 0, len(handlers))
	addrs := make(map[msg.NodeID]string, len(handlers))
	for i, h := range handlers {
		node, err := NewLocalTCPNode(msg.NodeID(i), h)
		if err != nil {
			for _, n := range nodes {
				n.Close()
			}
			return nil, err
		}
		node.SetTracer(tracer)
		nodes = append(nodes, node)
		addrs[msg.NodeID(i)] = node.Addr()
	}
	for _, node := range nodes {
		node.SetPeers(addrs)
		if err := node.Start(); err != nil {
			for _, n := range nodes {
				n.Close()
			}
			return nil, err
		}
	}
	return nodes, nil
}
