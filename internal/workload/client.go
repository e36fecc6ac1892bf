// Package workload implements the paper's client processes (Section 7.1):
// closed-loop clients that send one request, wait for the commit ACK, then
// send the next — optionally after a think time (Section 7.4 uses 2 ms) —
// plus the measurement plumbing for latency, throughput and
// throughput-over-time series.
//
// Beyond the paper's closed loop, a client can run a pipelined window of
// N outstanding commands (Config.Window): sequence numbers stay strictly
// increasing, one retry timer per lane sleeps until the oldest
// outstanding transmission is due, and the replicas' windowed session
// tracking keeps replies exactly-once.
// On top of the window, Config.BatchSize coalesces up to that many
// outstanding commands into one batched request — one consensus
// instance decides them all — with Config.BatchDelay optionally holding
// partial batches back for stragglers (the group-commit trade).
//
// In a sharded deployment (Config.Groups) the client runs one lane per
// consensus group: an independent pipelined window targeting that
// group's replicas with a key the shard router maps back to the group,
// and sequence numbers tagged with the shard index (shard.TagSeq) so
// each group's session tables see a dense per-lane sequence space and
// dedupe stays exact.
//
// Clients detect a slow or dead server by reply timeout and rotate to the
// next server of the command's group (Section 7.6: "Once the clients
// detect the slow leader, they send their requests to other nodes").
package workload

import (
	"fmt"
	"math"
	"time"

	"consensusinside/internal/linearize"
	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/seqwin"
	"consensusinside/internal/shard"
	"consensusinside/internal/trace"
)

// Timer kinds. These are namespaced high so a composite (joint) node can
// route them unambiguously next to a replica's kinds.
const (
	TimerSend       = 900 // think time elapsed: fill the window
	TimerRetry      = 901 // Arg: the lane index whose oldest transmission is due
	TimerBatchFlush = 902 // Arg: the lane index whose partial batch is due
	TimerReadRetry  = 903 // Arg: the (tagged) read seq the retry guards
)

// Defaults for Config zero values.
const (
	DefaultRetryTimeout = 2 * time.Millisecond
)

// Config parameterizes a Client.
type Config struct {
	// ID is the client's node id; Servers is the rotation order of
	// replicas, first entry preferred (the paper sends to Core 0).
	ID      msg.NodeID
	Servers []msg.NodeID

	// Groups partitions the deployment into independent per-shard
	// agreement groups. When set it replaces Servers: lane i keeps its
	// own pipelined window of Window commands against Groups[i], using a
	// per-lane key that internal/shard routes back to group i and
	// sequence numbers tagged with i. Unset means a single group of
	// Servers — the paper's deployment, byte-for-byte.
	Groups [][]msg.NodeID

	// Requests caps how many commands the client issues across all lanes
	// (0 = unlimited; the paper's clients send 100 each, experiments here
	// usually run for a fixed virtual time instead).
	Requests int

	// Window is the pipeline depth per lane: how many commands may be in
	// flight at once toward one group. 0 or 1 is the paper's closed loop.
	Window int

	// BatchSize is the largest number of commands the client coalesces
	// into one request — one consensus instance — per lane (0 or 1 is
	// the paper's one-command-per-instance behavior). Batches are drawn
	// from the lane's free window slots, so the effective cap is
	// min(BatchSize, Window). While a full batch of demand is pending but
	// the free slots are short of one, the lane holds: replicas answer a
	// batch with one ClientReplyBatch, so the slots free together and the
	// refill is a full batch again.
	BatchSize int

	// BatchDelay, when positive, holds a batch the remaining demand
	// cannot fill (the tail of a Requests budget, a think-time-paced
	// command) back for up to this long waiting for more, instead of
	// issuing it immediately — the group-commit latency/occupancy
	// trade.
	BatchDelay time.Duration

	// BatchAdaptive, when set, replaces the fixed BatchSize with a
	// load-driven batcher: each lane issues whatever demand has
	// accumulated, capped at half the window so at least two instances
	// stay pipelined, and holds a sub-cap batch while slots are scarce
	// so single-command batches cannot self-perpetuate. It requires
	// Window >= 2 and conflicts with BatchSize > 1 and BatchDelay > 0
	// (the adaptive hold subsumes the flush timer).
	BatchAdaptive bool

	// ThinkTime is the pause between receiving a reply and sending the
	// next request (Section 7.4 uses 2 ms; 0 = tight loop).
	ThinkTime time.Duration

	// RetryTimeout bounds the wait for a reply before rotating servers
	// and resending. Zero means DefaultRetryTimeout.
	RetryTimeout time.Duration

	// ReadPercent in [0,100] is the percentage of OpGet commands
	// (Section 7.5's read workloads); the rest are OpPut. The knob is
	// shared by the Figure 10 reproduction and the scenario fuzzer.
	ReadPercent int

	// ReadMode selects how this client's reads travel. The default
	// (readpath.Consensus) sends every read as an ordinary consensus
	// command, the paper's behavior. Any other mode sends reads as
	// ReadRequest messages on a read lane of their own: a separate
	// sequence space (reads never enter the replicated log, so they must
	// not consume the dense write sequences the replicas' session tables
	// track), a separate in-flight window, their own retry timers, and a
	// separate target cursor that redirects re-aim. Reads still occupy
	// window slots, so the offered load is comparable across modes.
	ReadMode readpath.Mode

	// Key fixes the key this client operates on; empty derives a
	// per-client key (distinct clients then never contend on 2PC locks).
	// With Groups set it becomes the per-lane key prefix instead: each
	// lane derives a key from it that routes to the lane's shard.
	Key string

	// StartDelay staggers client start (the paper's load manager starts
	// clients with a message; a small stagger avoids a synchronized
	// thundering herd at t=0).
	StartDelay time.Duration

	// Warmup excludes operations completing before this time from the
	// recorded statistics, so saturation numbers reflect steady state.
	Warmup time.Duration

	// SeriesBucket, when non-zero, records completions into a time series
	// with this bucket width (Figure 11 uses 10 ms buckets).
	SeriesBucket time.Duration

	// Record, when set, captures every command's invoke/return pair for
	// linearizability checking. Recording changes the written values:
	// instead of the constant "v", each Put writes a value unique to
	// this client and sequence number, so the checker can tie every
	// observed read to exactly one write. Retries resend the original
	// value under the original seq; the invoke time is the first
	// transmission, the return time is the accepted reply — the widest
	// honest window for the operation's linearization point.
	Record *linearize.Recorder

	// Tracer, when non-nil, traces sampled write commands end to end
	// (internal/trace). The client issues straight from its window — no
	// pre-issue queue — so the enqueue and propose stages coincide at
	// issue time; the reply stamp lands when the accepted reply retires
	// the flight.
	Tracer *trace.Tracer
}

// lane is the client's per-group state: one shard's servers, the key
// that routes to it, the rotation cursor, and a lane-local sequence
// counter whose tagged values brand every command of this lane.
type lane struct {
	shard    int
	servers  []msg.NodeID
	key      string
	target   int
	seq      uint64 // lane-local issued count; tagged via shard.TagSeq
	inflight int    // outstanding commands in this lane (reads included)
	deferred bool   // a partial batch is holding for the flush timer
	armed    bool   // the lane's retry timer is pending

	// flights holds the lane's in-flight writes by tagged seq — the same
	// dense window the KV bridge keeps (seqwin), whose Low is the lowest
	// outstanding seq, i.e. the lane's ack floor.
	flights seqwin.Window[flight]

	// Read-lane state (fast-path modes only): reads get their own
	// sequence counter — they never commit, so they must not punch holes
	// in the dense write sequence space the session tables track — and
	// their own target cursor, so follower reads can spread across
	// replicas while writes stay aimed at the leader.
	rseq       uint64
	readTarget int
	reads      seqwin.Window[readFlight] // in-flight fast-path reads by tagged read seq
}

// flight is one in-flight command.
type flight struct {
	op     msg.Op        // stable across resends
	val    string        // written value, stable across resends
	rec    int           // recorder op id (-1 when not recording)
	sentAt time.Duration // last transmission: the retry and latency clock
}

// readFlight is one in-flight fast-path read.
type readFlight struct {
	rec    int // recorder op id (-1 when not recording)
	sentAt time.Duration
	cancel runtime.CancelFunc
}

// Client is a workload generator node: a closed loop by default, a
// pipelined window per group when Config.Window > 1 or Config.Groups is
// set.
type Client struct {
	cfg     Config
	window  int // per-lane depth
	batch   int // per-lane batch cap, clamped to the window
	lanes   []*lane
	next    int // lane round-robin cursor for paced issue
	issued  int // total commands issued across lanes
	credits int // paced only: think ticks not yet spent on a command

	maxInflight int
	completed   int
	retries     int
	batchOcc    metrics.BatchOccupancy

	hist      metrics.Histogram
	readHist  metrics.Histogram // per-op-kind split of hist
	writeHist metrics.Histogram
	series    *metrics.TimeSeries

	firstDone time.Duration
	lastDone  time.Duration
	measured  int
}

var _ runtime.Handler = (*Client)(nil)

// NewClient builds a client from cfg, or reports why cfg is malformed.
func NewClient(cfg Config) (*Client, error) {
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = DefaultRetryTimeout
	}
	if cfg.ReadPercent < 0 || cfg.ReadPercent > 100 {
		return nil, fmt.Errorf("workload: ReadPercent %d outside [0,100]", cfg.ReadPercent)
	}
	if !cfg.ReadMode.Valid() {
		return nil, fmt.Errorf("workload: unknown read mode %d", int(cfg.ReadMode))
	}
	if cfg.Key == "" {
		cfg.Key = fmt.Sprintf("c%d", cfg.ID)
	}
	window := max(cfg.Window, 1)
	if err := rsm.CheckPipeline("workload", window, cfg.BatchSize, cfg.BatchDelay, cfg.BatchAdaptive); err != nil {
		return nil, err
	}
	batch := max(cfg.BatchSize, 1)
	if cfg.BatchAdaptive {
		// The adaptive cap: half the window, so at least two instances
		// stay pipelined instead of one whole-window batch serializing
		// round trips.
		batch = (window + 1) / 2
	}
	c := &Client{cfg: cfg, window: window, batch: batch}
	if len(cfg.Groups) > 0 {
		for g, servers := range cfg.Groups {
			if len(servers) == 0 {
				return nil, fmt.Errorf("workload: group %d of client %d is empty", g, cfg.ID)
			}
			c.lanes = append(c.lanes, newLane(g, servers, shard.KeyFor(cfg.Key, g, len(cfg.Groups)), window))
		}
	} else {
		if len(cfg.Servers) == 0 {
			return nil, fmt.Errorf("workload: client %d needs at least one server", cfg.ID)
		}
		c.lanes = []*lane{newLane(0, cfg.Servers, cfg.Key, window)}
	}
	if cfg.SeriesBucket > 0 {
		c.series = metrics.NewTimeSeries(cfg.SeriesBucket)
	}
	return c, nil
}

// newLane builds lane g's state. Both in-flight windows start at the
// first tagged seq the lane will issue, with room for a full pipeline
// window (reads and writes share the lane's slots).
func newLane(g int, servers []msg.NodeID, key string, window int) *lane {
	first := shard.TagSeq(g, 1)
	return &lane{
		shard:   g,
		servers: append([]msg.NodeID(nil), servers...),
		key:     key,
		flights: seqwin.New[flight](first, window, nil),
		reads:   seqwin.New[readFlight](first, window, nil),
	}
}

// laneOf resolves the lane a tagged seq belongs to (lanes are indexed
// by shard), or nil for a tag no lane of this client carries.
func (c *Client) laneOf(seq uint64) *lane {
	if g := shard.SeqShard(seq); g < len(c.lanes) {
		return c.lanes[g]
	}
	return nil
}

// Completed reports how many commands committed (all lanes).
func (c *Client) Completed() int { return c.completed }

// Retries reports how many times the client re-sent after a timeout.
func (c *Client) Retries() int { return c.retries }

// InFlight reports the current number of outstanding commands across
// all lanes.
func (c *Client) InFlight() int {
	n := 0
	for _, ln := range c.lanes {
		n += ln.flights.Len()
	}
	return n
}

// MaxInFlight reports the deepest the pipeline ever got across all
// lanes together — 1 for a closed loop, up to Window × len(Groups) when
// pipelining against a sharded deployment.
func (c *Client) MaxInFlight() int { return c.maxInflight }

// Lanes reports how many independent per-group windows the client runs.
func (c *Client) Lanes() int { return len(c.lanes) }

// LaneKey reports the key lane i operates on — by construction a key
// the shard router assigns to group i.
func (c *Client) LaneKey(i int) string { return c.lanes[i].key }

// Collect adds the client's proposed-batch occupancy — how many batches
// it issued and how full they ran — to s under the "batch." names. Like
// every accessor here it reads plain fields: call it from the goroutine
// driving the simulator.
func (c *Client) Collect(s *obs.Snapshot) { s.AddBatchOccupancy("batch", &c.batchOcc) }

// Latencies exposes the recorded latency histogram (post-warmup ops).
func (c *Client) Latencies() *metrics.Histogram { return &c.hist }

// ReadLatencies exposes the read-only slice of the latency histogram
// (post-warmup OpGet completions, whichever path they travelled).
func (c *Client) ReadLatencies() *metrics.Histogram { return &c.readHist }

// WriteLatencies exposes the write slice of the latency histogram
// (post-warmup OpPut completions).
func (c *Client) WriteLatencies() *metrics.Histogram { return &c.writeHist }

// Series exposes the completion time series (nil unless configured).
func (c *Client) Series() *metrics.TimeSeries { return c.series }

// MeasuredOps reports post-warmup completions, and the time of the first
// and last of them — the window for throughput computation.
func (c *Client) MeasuredOps() (n int, first, last time.Duration) {
	return c.measured, c.firstDone, c.lastDone
}

// Start implements runtime.Handler.
func (c *Client) Start(ctx runtime.Context) {
	ctx.After(c.cfg.StartDelay, runtime.TimerTag{Kind: TimerSend})
}

// Receive implements runtime.Handler: only commit ACKs — single or
// batched — are expected. A batched reply retires every answered
// command before the window is refilled, so the freed slots refill as
// one batch instead of one slot at a time.
func (c *Client) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case msg.ClientReply:
		if c.onReply(ctx, mm) {
			c.fill(ctx)
		}
	case msg.ClientReplyBatch:
		refill := false
		for _, reply := range mm.Replies {
			if c.onReply(ctx, reply) {
				refill = true
			}
		}
		if refill {
			c.fill(ctx)
		}
	case msg.ReadReply:
		if c.onReadReply(ctx, mm) {
			c.fill(ctx)
		}
	case msg.ReadReplyBatch:
		refill := false
		for _, reply := range mm.Replies {
			if c.onReadReply(ctx, reply) {
				refill = true
			}
		}
		if refill {
			c.fill(ctx)
		}
	}
}

// onReply retires one command's reply and reports whether a freed
// window slot awaits an immediate refill (redirects, stale replies,
// paced completions and the request cap all report false).
func (c *Client) onReply(ctx runtime.Context, reply msg.ClientReply) bool {
	ln := c.laneOf(reply.Seq)
	if ln == nil {
		return false
	}
	p := ln.flights.Ptr(reply.Seq)
	if p == nil {
		return false // stale reply for an already-answered (retried) request
	}
	if !reply.OK {
		// Redirect: retry immediately at the suggested server.
		if reply.Redirect != msg.Nobody {
			ln.retarget(reply.Redirect)
		}
		c.resend(ctx, ln, reply.Seq, p)
		return false
	}
	f := *p
	ln.flights.Delete(reply.Seq)
	if c.cfg.Tracer.Enabled() {
		c.cfg.Tracer.Finish(c.cfg.ID, reply.Seq, ctx.Now())
	}
	ln.inflight--
	if f.rec >= 0 {
		c.cfg.Record.Return(f.rec, reply.Result, ctx.Now())
	}
	return c.complete(ctx, f.sentAt, f.op)
}

// onReadReply retires one fast-path read's reply. A redirect (the
// serving replica is not the leader, or is still catching up) re-aims
// the lane's read cursor and resends at once.
func (c *Client) onReadReply(ctx runtime.Context, reply msg.ReadReply) bool {
	ln := c.laneOf(reply.Seq)
	if ln == nil {
		return false
	}
	p := ln.reads.Ptr(reply.Seq)
	if p == nil {
		return false // stale reply for an already-answered (retried) read
	}
	if !reply.OK {
		if reply.Redirect != msg.Nobody {
			ln.retargetRead(reply.Redirect)
		}
		c.resendRead(ctx, ln, reply.Seq, p)
		return false
	}
	f := *p
	ln.reads.Delete(reply.Seq)
	ln.inflight--
	if f.cancel != nil {
		f.cancel()
	}
	if f.rec >= 0 {
		c.cfg.Record.Return(f.rec, reply.Result, ctx.Now())
	}
	return c.complete(ctx, f.sentAt, msg.OpGet)
}

// complete records one finished command and reports whether a freed
// window slot awaits an immediate refill (paced completions and the
// request cap report false).
func (c *Client) complete(ctx runtime.Context, sentAt time.Duration, op msg.Op) bool {
	now := ctx.Now()
	c.completed++
	if now >= c.cfg.Warmup {
		d := now - sentAt
		c.hist.Record(d)
		if op == msg.OpGet {
			c.readHist.Record(d)
		} else {
			c.writeHist.Record(d)
		}
		c.measured++
		if c.firstDone == 0 {
			c.firstDone = now
		}
		c.lastDone = now
	}
	if c.series != nil {
		c.series.Record(now)
	}
	if c.cfg.Requests > 0 && c.completed >= c.cfg.Requests {
		return false // done
	}
	if c.cfg.ThinkTime > 0 {
		// Pacing stays per command: each completion begets one paced
		// replacement through its own think tick.
		ctx.After(c.cfg.ThinkTime, runtime.TimerTag{Kind: TimerSend})
		return false
	}
	return true
}

// Timer implements runtime.Handler.
func (c *Client) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	switch tag.Kind {
	case TimerSend:
		if c.cfg.ThinkTime > 0 {
			c.credits++
		}
		c.fill(ctx)
	case TimerRetry:
		c.retryLane(ctx, c.lanes[tag.Arg])
	case TimerReadRetry:
		seq := uint64(tag.Arg)
		ln := c.laneOf(seq)
		if f := ln.reads.Ptr(seq); f != nil {
			// No reply in time: rotate the lane's read cursor and resend.
			c.retries++
			ln.readTarget = (ln.readTarget + 1) % len(ln.servers)
			c.resendRead(ctx, ln, seq, f)
		}
	case TimerBatchFlush:
		// The lane's held-back partial batch is due: issue what the
		// window and the demand allow right now, full or not.
		ln := c.lanes[tag.Arg]
		if !ln.deferred {
			return // a full batch already went out in the meantime
		}
		ln.deferred = false
		if n, _ := c.admit(ln, true); n > 0 {
			c.issueBatch(ctx, ln, n)
		}
	}
}

// retryLane is the lane's one retry timer: it sleeps until the oldest
// outstanding transmission is due. Everything due at this tick — no
// reply within RetryTimeout of its last transmission — is resent as ONE
// request under the original seqs after ONE rotation of the cursor
// (suspect the server, try the next of the command's own group; the
// session layer deduplicates against any still-live copy). The timer
// then sleeps until the next-oldest transmission is due, and dies when
// nothing is outstanding.
func (c *Client) retryLane(ctx runtime.Context, ln *lane) {
	now := ctx.Now()
	var entries []msg.BatchEntry
	oldest := now
	for seq, f := range ln.flights.All() {
		if now-f.sentAt >= c.cfg.RetryTimeout {
			f.sentAt = now
			entries = append(entries, msg.BatchEntry{Seq: seq, Cmd: msg.Command{Op: f.op, Key: ln.key, Val: f.val}})
		}
		if f.sentAt < oldest {
			oldest = f.sentAt
		}
	}
	if len(entries) > 0 {
		c.retries += len(entries)
		ln.target = (ln.target + 1) % len(ln.servers)
		ctx.Send(ln.servers[ln.target], msg.NewRequest(c.cfg.ID, ln.flights.Low(), entries))
	}
	ln.armed = ln.flights.Len() > 0
	if ln.armed {
		ctx.After(oldest+c.cfg.RetryTimeout-now, runtime.TimerTag{Kind: TimerRetry, Arg: int64(ln.shard)})
	}
}

// pending reports the demand still waiting to be issued: the unissued
// request budget (unbounded when Requests is 0), capped by the think-tick
// credits when the client is paced.
func (c *Client) pending() int {
	n := math.MaxInt
	if c.cfg.Requests > 0 {
		n = c.cfg.Requests - c.issued
	}
	if c.cfg.ThinkTime > 0 && c.credits < n {
		n = c.credits
	}
	return n
}

// admit is the lane's admission rule over (free slots, pending demand):
// how many commands to issue as one request right now, and whether a
// held-back partial batch needs the flush timer. Adaptive: at most half
// the window per instance, and hold while more is pending than the free
// slots admit. Static: at most BatchSize; hold (no timer — slots are
// short, so a reply is coming) when a full batch is pending but the
// slots are short of it; hold for the flush timer when the demand
// itself is short of a batch and BatchDelay is set.
func (c *Client) admit(ln *lane, force bool) (n int, flush bool) {
	pending := c.pending()
	n = min(c.window-ln.inflight, pending)
	if n <= 0 {
		return 0, false
	}
	n = min(n, c.batch)
	if n == c.batch {
		return n, false
	}
	if c.cfg.BatchAdaptive {
		if pending > n {
			return 0, false
		}
		return n, false
	}
	if pending >= c.batch {
		return 0, false
	}
	if c.cfg.BatchDelay > 0 && !force {
		return 0, true
	}
	return n, false
}

// fill issues new commands until every lane's window is full or held
// by the admission rule, or the demand is spent, visiting lanes
// round-robin so a sharded client loads its groups evenly. Each visit
// issues one request — one consensus instance. With a think time
// configured the demand is the think-tick credits: each tick pays for
// one command, a credit the full windows cannot take is dropped, and a
// tick that issued re-arms while slots remain free, so a pipelined
// window still ramps up to its depth at one command per pause.
func (c *Client) fill(ctx runtime.Context) {
	sent := 0
	var held map[*lane]bool // lanes the admission rule is holding this pass
	for {
		idx := -1
		for i := 0; i < len(c.lanes); i++ {
			j := (c.next + i) % len(c.lanes)
			if ln := c.lanes[j]; ln.inflight < c.window && !held[ln] {
				idx = j
				break
			}
		}
		if idx < 0 {
			break // every lane is full or held
		}
		if c.pending() <= 0 {
			if c.cfg.ThinkTime > 0 && sent >= 1 {
				ctx.After(c.cfg.ThinkTime, runtime.TimerTag{Kind: TimerSend})
			}
			break
		}
		ln := c.lanes[idx]
		n, flush := c.admit(ln, false)
		if n == 0 {
			if flush && !ln.deferred {
				ln.deferred = true
				ctx.After(c.cfg.BatchDelay, runtime.TimerTag{Kind: TimerBatchFlush, Arg: int64(idx)})
			}
			if held == nil {
				held = make(map[*lane]bool, len(c.lanes))
			}
			held[ln] = true
			continue
		}
		c.next = (idx + 1) % len(c.lanes)
		c.issueBatch(ctx, ln, n)
		sent += n
	}
	if c.cfg.ThinkTime > 0 {
		// A credit no lane could take is dropped, unless a lane is
		// holding it for its flush timer.
		for _, ln := range c.lanes {
			if ln.deferred {
				return
			}
		}
		c.credits = 0
	}
}

// issueBatch assigns the lane's next n tagged sequence numbers and
// sends them as one request. Under a fast-path read mode the batch's
// OpGet commands peel off onto the read lane instead: they travel as
// one ReadRequest with read-lane sequence numbers, leaving the write
// sequence space dense for the session tables.
func (c *Client) issueBatch(ctx runtime.Context, ln *lane, n int) {
	ln.deferred = false
	if c.cfg.ThinkTime > 0 {
		c.credits -= n
	}
	fastReads := c.cfg.ReadMode != readpath.Consensus
	entries := make([]msg.BatchEntry, 0, n)
	var readEntries []msg.BatchEntry
	for i := 0; i < n; i++ {
		c.issued++
		op := msg.OpPut
		if c.cfg.ReadPercent > 0 && ctx.Rand().Float64()*100 < float64(c.cfg.ReadPercent) {
			op = msg.OpGet
		}
		if op == msg.OpGet && fastReads {
			ln.rseq++
			seq := shard.TagSeq(ln.shard, ln.rseq)
			rf := readFlight{rec: -1}
			if c.cfg.Record != nil {
				rf.rec = c.cfg.Record.Invoke(int(c.cfg.ID), linearize.Read, ln.key, "", ctx.Now())
			}
			*ln.reads.Slot(seq) = rf
			ln.inflight++
			readEntries = append(readEntries, msg.BatchEntry{Seq: seq, Cmd: msg.Command{Op: op, Key: ln.key}})
			continue
		}
		ln.seq++
		seq := shard.TagSeq(ln.shard, ln.seq)
		if c.cfg.Tracer.Enabled() {
			tnow := ctx.Now()
			c.cfg.Tracer.Begin(c.cfg.ID, seq, tnow, 0, tnow)
		}
		f := flight{op: op, val: "v", rec: -1}
		if c.cfg.Record != nil {
			kind := linearize.Write
			if op == msg.OpGet {
				kind = linearize.Read
				f.val = ""
			} else {
				f.val = fmt.Sprintf("c%d.%d", c.cfg.ID, seq)
			}
			f.rec = c.cfg.Record.Invoke(int(c.cfg.ID), kind, ln.key, f.val, ctx.Now())
		}
		*ln.flights.Slot(seq) = f
		ln.inflight++
		entries = append(entries, msg.BatchEntry{Seq: seq, Cmd: msg.Command{Op: op, Key: ln.key, Val: f.val}})
	}
	total := 0
	for _, other := range c.lanes {
		total += other.inflight
	}
	if total > c.maxInflight {
		c.maxInflight = total
	}
	now := ctx.Now()
	if len(entries) > 0 {
		req := msg.NewRequest(c.cfg.ID, ln.flights.Low(), entries)
		ctx.Send(ln.servers[ln.target], req)
		c.batchOcc.Record(len(entries))
		for _, be := range entries {
			ln.flights.Ptr(be.Seq).sentAt = now
		}
		if !ln.armed {
			ln.armed = true
			ctx.After(c.cfg.RetryTimeout, runtime.TimerTag{Kind: TimerRetry, Arg: int64(ln.shard)})
		}
	}
	if len(readEntries) > 0 {
		if c.cfg.ReadMode == readpath.Follower {
			// Spreading reads across replicas is the mode's whole point.
			ln.readTarget = (ln.readTarget + 1) % len(ln.servers)
		}
		ctx.Send(ln.servers[ln.readTarget],
			msg.ReadRequest{Client: c.cfg.ID, Mode: int(c.cfg.ReadMode), Entries: readEntries})
		for _, be := range readEntries {
			rf := ln.reads.Ptr(be.Seq)
			rf.sentAt = now
			rf.cancel = ctx.After(c.cfg.RetryTimeout, runtime.TimerTag{Kind: TimerReadRetry, Arg: int64(be.Seq)})
		}
	}
}

// resend transmits f's command under its tagged seq to the lane's
// current target at once (a redirect named a better server). A resent
// command always travels under its original sequence number, and the
// lane's retry timer counts from this transmission.
func (c *Client) resend(ctx runtime.Context, ln *lane, seq uint64, f *flight) {
	f.sentAt = ctx.Now()
	req := msg.ClientRequest{
		Client: c.cfg.ID,
		Seq:    seq,
		Cmd:    msg.Command{Op: f.op, Key: ln.key, Val: f.val},
		Ack:    ln.flights.Low(),
	}
	ctx.Send(ln.servers[ln.target], req)
}

// resendRead transmits f's read under its tagged read seq to the
// lane's current read target and re-arms the per-seq retry timer.
func (c *Client) resendRead(ctx runtime.Context, ln *lane, seq uint64, f *readFlight) {
	f.sentAt = ctx.Now()
	ctx.Send(ln.servers[ln.readTarget], msg.ReadRequest{
		Client:  c.cfg.ID,
		Mode:    int(c.cfg.ReadMode),
		Entries: []msg.BatchEntry{{Seq: seq, Cmd: msg.Command{Op: msg.OpGet, Key: ln.key}}},
	})
	if f.cancel != nil {
		f.cancel()
	}
	f.cancel = ctx.After(c.cfg.RetryTimeout, runtime.TimerTag{Kind: TimerReadRetry, Arg: int64(seq)})
}

// retarget points the lane at server if it is one of the lane's
// replicas (a redirect naming a node outside the group is ignored).
func (ln *lane) retarget(server msg.NodeID) {
	for i, s := range ln.servers {
		if s == server {
			ln.target = i
			return
		}
	}
}

// retargetRead points the lane's read cursor at server if it is one of
// the lane's replicas.
func (ln *lane) retargetRead(server msg.NodeID) {
	for i, s := range ln.servers {
		if s == server {
			ln.readTarget = i
			return
		}
	}
}
