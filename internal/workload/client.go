// Package workload implements the paper's client processes (Section 7.1):
// closed-loop clients that send one request, wait for the commit ACK, then
// send the next — optionally after a think time (Section 7.4 uses 2 ms) —
// plus the measurement plumbing for latency, throughput and
// throughput-over-time series.
//
// There is one client, with two front ends. The client itself — the
// pipelined window of Config.Window outstanding commands, tagged
// sequence numbers, command batching (Config.BatchAdaptive), retry with
// server rotation (Section 7.6: "Once the clients detect the slow
// leader, they send their requests to other nodes") and the fast-read
// lane — is internal/client's Lane, the same code the replicated KV's
// blocking Put/Get adapter drives. This package is the simulator's
// front end: a load source that owns only what a load source needs —
// one lane per consensus group (Config.Groups), the Requests budget,
// ThinkTime pacing, the ReadPercent coin, the key and value choice, the
// linearizability recorder, and the histograms, warm-up and series.
// Every safety check the simulator runs therefore exercises the client
// the KV ships.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"consensusinside/internal/client"
	"consensusinside/internal/linearize"
	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/shard"
	"consensusinside/internal/trace"
)

// TimerSend is the load source's one timer kind — think time elapsed:
// fill the windows. The lanes' own kinds sit just below it (see
// internal/client); a composite (joint) node routes everything from
// client.TimerRetry up to the client.
const TimerSend = client.TimerFrontEnd

// DefaultRetryTimeout is Config.RetryTimeout's zero-value default.
const DefaultRetryTimeout = 2 * time.Millisecond

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

	// Window is the pipeline depth per lane: how many commands the source
	// keeps outstanding at once toward one group. 0 or 1 is the paper's
	// closed loop.
	Window int

	// BatchAdaptive coalesces commands into one request — one consensus
	// instance — per lane (unset is the paper's one command per
	// instance): each lane issues whatever demand has accumulated, capped
	// at half the window so at least two instances stay pipelined, and
	// holds a sub-cap batch while slots are scarce — replicas answer a
	// batch with one ClientReplyBatch, so the slots free together and the
	// refill is a full batch again. It requires Window >= 2.
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
	// command, the paper's behavior. Any other mode puts reads on the
	// lane's read lane (see internal/client): ReadRequest messages with a
	// sequence space, retry timer and target cursor of their own,
	// coalesced, at most two requests outstanding, never holding a slot
	// of the write window. The load source still keeps at most Window
	// commands outstanding per lane, reads included, so the offered load
	// is comparable across modes.
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

	// SeriesBucket, when positive, records completions into a time series
	// with this bucket width (Figure 11 uses 10 ms buckets).
	SeriesBucket time.Duration

	// Record, when set, captures every command's invoke/return pair for
	// linearizability checking. Recording changes the written values:
	// instead of the constant "v", each Put writes a value unique to
	// this client and issue count, so the checker can tie every observed
	// read to exactly one write. Retries resend the original value under
	// the original seq; the invoke time is when the source generates the
	// command (at or before its first transmission), the return time is
	// the accepted reply — the widest honest window for the operation's
	// linearization point.
	Record *linearize.Recorder

	// Tracer, when non-nil, traces sampled write commands end to end
	// (internal/trace). The source generates commands at admission — no
	// pre-issue queue — so the enqueue and propose stages coincide at
	// issue time; the reply stamp lands when the accepted reply retires
	// the command.
	Tracer *trace.Tracer
}

// lane is the client's state toward one group: the pipelined client
// itself and the key that routes to the group. The lane's per-op payload
// is the op's recorder id, -1 when not recording.
type lane struct {
	*client.Lane[int]
	key string
}

// Client is a workload generator node: a closed loop by default, a
// pipelined window per group when Config.Window > 1 or Config.Groups is
// set.
type Client struct {
	cfg     Config
	lanes   []lane
	next    int              // lane round-robin cursor
	issued  int              // total commands issued across lanes
	credits int              // paced only: think ticks not yet spent on a command
	ops     []client.Op[int] // scratch for the writes of one request

	maxInflight int
	completed   int

	hist      metrics.Histogram
	readHist  metrics.Histogram // per-op-kind split of hist
	writeHist metrics.Histogram
	series    []int // completions per SeriesBucket of virtual time

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
	window := cmp.Or(cfg.Window, 1)
	if err := rsm.CheckPipeline("workload", window, cfg.BatchAdaptive); err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg}
	groups := cfg.Groups
	if len(groups) == 0 {
		groups = [][]msg.NodeID{cfg.Servers}
	}
	for g, servers := range groups {
		if len(servers) == 0 {
			return nil, fmt.Errorf("workload: group %d of client %d has no server", g, cfg.ID)
		}
		key := cfg.Key
		if len(cfg.Groups) > 0 {
			key = shard.KeyFor(cfg.Key, g, len(groups))
		}
		c.lanes = append(c.lanes, lane{key: key, Lane: client.New[int](client.Config{
			ID:       cfg.ID,
			Servers:  servers,
			Shard:    g,
			Retry:    cfg.RetryTimeout,
			Window:   window,
			Adaptive: cfg.BatchAdaptive,
			ReadMode: cfg.ReadMode,
			Tracer:   cfg.Tracer,
		})})
	}
	return c, nil
}

// laneOf resolves the lane a tagged seq belongs to (lanes are indexed
// by shard), or nil for a tag no lane of this client carries.
func (c *Client) laneOf(seq uint64) *lane {
	if g := shard.SeqShard(seq); g < len(c.lanes) {
		return &c.lanes[g]
	}
	return nil
}

// Completed reports how many commands committed (all lanes).
func (c *Client) Completed() int { return c.completed }

// Retries reports how many commands the client re-sent after a timeout.
func (c *Client) Retries() int {
	n := int64(0)
	for _, ln := range c.lanes {
		n += ln.Retries.Load()
	}
	return int(n)
}

// InFlight reports the current number of outstanding writes across all
// lanes.
func (c *Client) InFlight() int {
	n := 0
	for _, ln := range c.lanes {
		n += ln.InFlight()
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
func (c *Client) Collect(s *obs.Snapshot) {
	for _, ln := range c.lanes {
		s.AddBatchOccupancy("batch", &ln.Occ)
	}
}

// Latencies exposes the recorded latency histogram (post-warmup ops).
func (c *Client) Latencies() *metrics.Histogram { return &c.hist }

// ReadLatencies exposes the read-only slice of the latency histogram
// (post-warmup OpGet completions, whichever path they travelled).
func (c *Client) ReadLatencies() *metrics.Histogram { return &c.readHist }

// WriteLatencies exposes the write slice of the latency histogram
// (post-warmup OpPut completions).
func (c *Client) WriteLatencies() *metrics.Histogram { return &c.writeHist }

// Series exposes the completions counted per Config.SeriesBucket of
// virtual time (nil unless configured).
func (c *Client) Series() []int { return c.series }

// MeasuredOps reports post-warmup completions, and the time of the first
// and last of them — the window for throughput computation.
func (c *Client) MeasuredOps() (n int, first, last time.Duration) {
	return c.measured, c.firstDone, c.lastDone
}

// Start implements runtime.Handler.
func (c *Client) Start(ctx runtime.Context) {
	ctx.After(c.cfg.StartDelay, runtime.TimerTag{Kind: TimerSend})
}

// Receive implements runtime.Handler: only commit ACKs — bare or
// batched — and read answers (always batched) are expected. The
// simulator never releases a box, so nothing here does either. A batched reply retires
// every answered command before the windows are refilled, so the freed
// slots refill as one batch instead of one slot at a time; the read
// lanes are pumped after the refill, so the replacements coalesce with
// whatever pooled behind the answered request or a redirect requeued.
func (c *Client) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	refill := false
	switch mm := m.(type) {
	case msg.ClientReply:
		refill = c.onReplies(ctx, []msg.ClientReply{mm})
	case *msg.ClientReplyBatch:
		refill = c.onReplies(ctx, mm.Replies)
	case *msg.ReadReplyBatch:
		refill = c.onReadReplies(ctx, mm.Replies)
	}
	if refill {
		c.fill(ctx)
	}
	c.pumpReads(ctx)
}

// onReplies retires one message's write replies and reports whether a
// freed window slot awaits an immediate refill (stale replies,
// redirects, paced completions and the request cap all report false).
// Redirected commands go out again at once, toward the replica the
// reply named.
func (c *Client) onReplies(ctx runtime.Context, replies []msg.ClientReply) (refill bool) {
	now := ctx.Now()
	var redirected *lane
	for i := range replies {
		ln := c.laneOf(replies[i].Seq)
		if ln == nil {
			continue
		}
		switch rec, kind, sentAt, st := ln.Retire(now, &replies[i]); st {
		case client.Done:
			refill = c.complete(ctx, kind, sentAt, rec, replies[i].Result) || refill
		case client.Redirected:
			redirected = ln // one message's replies all carry one lane's tag
		}
	}
	if redirected != nil {
		redirected.Scan(ctx, now, false)
	}
	return refill
}

// onReadReplies retires one message's fast-path read replies.
func (c *Client) onReadReplies(ctx runtime.Context, replies []msg.ReadReply) (refill bool) {
	for i := range replies {
		ln := c.laneOf(replies[i].Seq)
		if ln == nil {
			continue
		}
		if rec, sentAt, st := ln.RetireRead(&replies[i]); st == client.Done {
			refill = c.complete(ctx, msg.OpGet, sentAt, rec, replies[i].Result) || refill
		}
	}
	return refill
}

// complete records one finished command — its kind, its last
// transmission, its recorder id — and reports whether a freed window
// slot awaits an immediate refill (paced completions and the request cap
// report false).
func (c *Client) complete(ctx runtime.Context, kind msg.Op, sentAt time.Duration, rec int, result string) bool {
	now := ctx.Now()
	if rec >= 0 {
		c.cfg.Record.Return(rec, result, now)
	}
	c.completed++
	if now >= c.cfg.Warmup {
		d := now - sentAt
		c.hist.Record(d)
		if kind == msg.OpGet {
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
	if c.cfg.SeriesBucket > 0 {
		idx := int(now / c.cfg.SeriesBucket)
		for len(c.series) <= idx {
			c.series = append(c.series, 0)
		}
		c.series[idx]++
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

// Timer implements runtime.Handler: the think tick is the load
// source's, the other two kinds are the lane's named by tag.Arg.
func (c *Client) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	switch tag.Kind {
	case TimerSend:
		if c.cfg.ThinkTime > 0 {
			c.credits++
		}
		c.fill(ctx)
	case client.TimerRetry:
		c.lanes[tag.Arg].Scan(ctx, ctx.Now(), true) // ops carry no deadline: nothing expires
	case client.TimerReadRetry:
		c.lanes[tag.Arg].ScanReads(ctx, ctx.Now())
	}
	c.pumpReads(ctx)
}

// pending reports the demand still waiting to be issued: the unissued
// request budget (unbounded when Requests is 0), capped by the think-tick
// credits when the client is paced.
func (c *Client) pending() int {
	n := math.MaxInt
	if c.cfg.Requests > 0 {
		n = c.cfg.Requests - c.issued
	}
	if c.cfg.ThinkTime > 0 {
		n = min(n, c.credits)
	}
	return n
}

// free reports how many more commands the source may have outstanding
// toward ln's group: Window, less the writes in flight and the reads
// the lane holds.
func (c *Client) free(ln *lane) int { return ln.Free() - ln.ReadsOutstanding() }

// fill issues new commands, visiting the lanes round-robin so a sharded
// client loads its groups evenly, until a whole round admits nothing —
// every window full or held by the admission rule — or the demand is
// spent. Each visit issues one request — one consensus instance. With a
// think time configured the demand is the think-tick credits: each tick
// pays for one command, a credit the full windows cannot take is
// dropped, and a tick that issued re-arms while slots remain free, so a
// pipelined window still ramps up to its depth at one command per pause.
func (c *Client) fill(ctx runtime.Context) {
	sent := false
	for idle := 0; idle < len(c.lanes) && c.pending() > 0; {
		ln := &c.lanes[c.next]
		c.next = (c.next + 1) % len(c.lanes)
		n := ln.Admit(c.free(ln), c.pending())
		if n == 0 {
			idle++
			continue
		}
		c.issue(ctx, ln, n)
		idle, sent = 0, true
	}
	if c.cfg.ThinkTime <= 0 {
		return
	}
	c.credits = 0
	for i := range c.lanes {
		if sent && c.free(&c.lanes[i]) > 0 {
			ctx.After(c.cfg.ThinkTime, runtime.TimerTag{Kind: TimerSend})
			return
		}
	}
}

// issue generates the next n commands for ln's group — drawing each
// one's read/write coin in issue order — and hands them to the lane:
// the writes (and, under readpath.Consensus, the reads) as one request,
// fast-path reads onto the read queue.
func (c *Client) issue(ctx runtime.Context, ln *lane, n int) {
	now := ctx.Now()
	if c.cfg.ThinkTime > 0 {
		c.credits -= n
	}
	writes := c.ops[:0]
	for i := 0; i < n; i++ {
		c.issued++
		op := client.Op[int]{Cmd: msg.Command{Op: msg.OpPut, Key: ln.key, Val: "v"}, User: -1}
		if c.cfg.ReadPercent > 0 && ctx.Rand().Float64()*100 < float64(c.cfg.ReadPercent) {
			op.Cmd.Op = msg.OpGet
		}
		fast := op.Cmd.Op == msg.OpGet && c.cfg.ReadMode != readpath.Consensus
		if fast {
			op.Cmd.Val = ""
		}
		if c.cfg.Record != nil {
			kind := linearize.Write
			if op.Cmd.Op == msg.OpGet {
				kind, op.Cmd.Val = linearize.Read, ""
			} else {
				op.Cmd.Val = fmt.Sprintf("c%d.%d", c.cfg.ID, c.issued)
			}
			op.User = c.cfg.Record.Invoke(int(c.cfg.ID), kind, ln.key, op.Cmd.Val, now)
		}
		if fast {
			ln.QueueRead(op)
		} else {
			writes = append(writes, op)
		}
	}
	c.ops = writes[:0]
	if len(writes) > 0 {
		ln.Issue(ctx, now, writes)
	}
	c.pumpReads(ctx)
	total := 0
	for _, l := range c.lanes {
		total += l.InFlight() + l.ReadsOutstanding()
	}
	c.maxInflight = max(c.maxInflight, total)
}

// pumpReads sends the lanes' queued fast-path reads, as many requests
// as each read lane's window admits.
func (c *Client) pumpReads(ctx runtime.Context) {
	for _, ln := range c.lanes {
		for ln.PumpReads(ctx, ctx.Now()) {
		}
	}
}
