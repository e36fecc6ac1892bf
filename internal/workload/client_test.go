package workload

import (
	"testing"
	"time"

	"consensusinside/internal/client"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/readpath"
	"consensusinside/internal/runtime"
	"consensusinside/internal/shard"
)

func newClient(tweak func(*Config)) (*Client, *runtime.FakeContext) {
	cfg := Config{ID: 10, Servers: []msg.NodeID{0, 1, 2}}
	if tweak != nil {
		tweak(&cfg)
	}
	return mustClient(cfg), runtime.NewFakeContext(10, 4)
}

// mustClient is NewClient for configs the tests wire by hand.
func mustClient(cfg Config) *Client {
	c, err := NewClient(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// retryTick lets every outstanding transmission of lane go overdue and
// fires the lane's retry timer.
func retryTick(c *Client, ctx *runtime.FakeContext, lane int) {
	ctx.Clock += DefaultRetryTimeout
	c.Timer(ctx, runtime.TimerTag{Kind: client.TimerRetry, Arg: int64(lane)})
}

func lastRequest(t *testing.T, ctx *runtime.FakeContext) (msg.NodeID, msg.ClientRequest) {
	t.Helper()
	s := ctx.LastSent()
	if s == nil {
		t.Fatal("no message sent")
	}
	req, ok := s.M.(*msg.ClientRequest)
	if !ok {
		t.Fatalf("last sent is %T, want ClientRequest", s.M)
	}
	return s.To, *req
}

func TestClientValidation(t *testing.T) {
	servers := []msg.NodeID{0, 1, 2}
	for name, cfg := range map[string]Config{
		"no servers":             {ID: 1},
		"read percent above 100": {ID: 1, Servers: servers, ReadPercent: 101},
		"negative read percent":  {ID: 1, Servers: servers, ReadPercent: -1},
		"unknown read mode":      {ID: 1, Servers: servers, ReadMode: readpath.Mode(99)},
	} {
		if c, err := NewClient(cfg); err == nil || c != nil {
			t.Errorf("client with %s accepted: %v, %v", name, c, err)
		}
	}
}

func TestClientClosedLoop(t *testing.T) {
	c, ctx := newClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	to, req := lastRequest(t, ctx)
	if to != 0 {
		t.Fatalf("first request to %d, want preferred server 0", to)
	}
	if req.Seq != 1 || req.Client != 10 {
		t.Fatalf("request = %+v", req)
	}
	// No second request while one is in flight.
	n := len(ctx.Sent)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	if len(ctx.Sent) != n {
		t.Fatal("client must not pipeline in a closed loop")
	}
	// The reply triggers the next request (no think time).
	ctx.Clock = 50 * time.Microsecond
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true, Result: "r"})
	_, req2 := lastRequest(t, ctx)
	if req2.Seq != 2 {
		t.Fatalf("next seq = %d, want 2", req2.Seq)
	}
	if c.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1", c.Completed())
	}
	if c.Latencies().Count() != 1 {
		t.Fatal("latency sample missing")
	}
}

func TestClientThinkTime(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) { cfg.ThinkTime = 2 * time.Millisecond })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	n := len(ctx.Sent)
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true})
	if len(ctx.Sent) != n {
		t.Fatal("with think time, the next request must wait for the timer")
	}
	// A think timer must be armed at +2ms.
	found := false
	for _, tm := range ctx.Timers {
		if tm.Tag.Kind == TimerSend && tm.At == ctx.Clock+2*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatalf("think timer not armed: %+v", ctx.Timers)
	}
}

func TestClientRetryRotatesServers(t *testing.T) {
	c, ctx := newClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	_, req := lastRequest(t, ctx)
	// Timeout: same seq, next server.
	retryTick(c, ctx, 0)
	to, req2 := lastRequest(t, ctx)
	if to != 1 {
		t.Fatalf("retry went to %d, want next server 1", to)
	}
	if req2.Seq != req.Seq {
		t.Fatalf("retry changed seq: %d vs %d", req2.Seq, req.Seq)
	}
	if req2.Cmd != req.Cmd {
		t.Fatalf("retry changed command: %+v vs %+v", req2.Cmd, req.Cmd)
	}
	if c.Retries() != 1 {
		t.Fatalf("Retries = %d, want 1", c.Retries())
	}
	// A tick that finds nothing overdue resends nothing.
	n := len(ctx.Sent)
	c.Timer(ctx, runtime.TimerTag{Kind: client.TimerRetry})
	if len(ctx.Sent) != n {
		t.Fatal("a tick with nothing overdue fired a resend")
	}
}

func TestClientIgnoresStaleReplies(t *testing.T) {
	c, ctx := newClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	c.Receive(ctx, 0, msg.ClientReply{Seq: 99, OK: true}) // wrong seq
	if c.Completed() != 0 {
		t.Fatal("stale reply counted")
	}
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true})
	if c.Completed() != 1 {
		t.Fatal("real reply not counted")
	}
	// Duplicate reply for the same seq is ignored.
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true})
	if c.Completed() != 1 {
		t.Fatal("duplicate reply double-counted")
	}
}

func TestClientRedirect(t *testing.T) {
	c, ctx := newClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: false, Redirect: 2})
	to, req := lastRequest(t, ctx)
	if to != 2 || req.Seq != 1 {
		t.Fatalf("redirect resend to %d seq %d, want server 2 seq 1", to, req.Seq)
	}
}

func TestClientRequestCap(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) { cfg.Requests = 2 })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true})
	c.Receive(ctx, 0, msg.ClientReply{Seq: 2, OK: true})
	n := len(ctx.Sent)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	if len(ctx.Sent) != n {
		t.Fatal("client must stop at the request cap")
	}
	if c.Completed() != 2 {
		t.Fatalf("Completed = %d, want 2", c.Completed())
	}
}

func TestClientWarmupExclusion(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) { cfg.Warmup = time.Second })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	ctx.Clock = 500 * time.Millisecond
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true})
	if n, _, _ := c.MeasuredOps(); n != 0 {
		t.Fatalf("pre-warmup op measured: %d", n)
	}
	ctx.Clock = 1500 * time.Millisecond
	c.Receive(ctx, 0, msg.ClientReply{Seq: 2, OK: true})
	n, first, last := c.MeasuredOps()
	if n != 1 || first != 1500*time.Millisecond || last != first {
		t.Fatalf("MeasuredOps = (%d,%v,%v)", n, first, last)
	}
	if c.Completed() != 2 {
		t.Fatalf("Completed counts everything: %d, want 2", c.Completed())
	}
}

func TestClientReadPercent(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) { cfg.ReadPercent = 100 })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	_, req := lastRequest(t, ctx)
	if req.Cmd.Op != msg.OpGet {
		t.Fatalf("op = %v, want get with ReadPercent=100", req.Cmd.Op)
	}
	c2, ctx2 := newClient(nil)
	c2.Start(ctx2)
	c2.Timer(ctx2, runtime.TimerTag{Kind: TimerSend})
	_, req2 := lastRequest(t, ctx2)
	if req2.Cmd.Op != msg.OpPut {
		t.Fatalf("op = %v, want put with ReadPercent=0", req2.Cmd.Op)
	}
}

func TestClientSeriesRecording(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) { cfg.SeriesBucket = 10 * time.Millisecond })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	ctx.Clock = 25 * time.Millisecond
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true})
	if got := c.Series(); len(got) != 3 || got[2] != 1 {
		t.Fatalf("buckets = %v, want one completion in the third", got)
	}
}

func TestClientPerClientKey(t *testing.T) {
	c, ctx := newClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	_, req := lastRequest(t, ctx)
	if req.Cmd.Key != "c10" {
		t.Fatalf("key = %q, want per-client default c10", req.Cmd.Key)
	}
}

func TestClientPipelinedWindow(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) { cfg.Window = 4; cfg.Requests = 10 })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	// One TimerSend fills the whole window.
	if got := c.InFlight(); got != 4 {
		t.Fatalf("in flight = %d, want 4", got)
	}
	seen := map[uint64]bool{}
	for _, s := range ctx.Sent {
		req, ok := s.M.(*msg.ClientRequest)
		if !ok {
			t.Fatalf("sent %T", s.M)
		}
		if seen[req.Seq] {
			t.Fatalf("seq %d sent twice", req.Seq)
		}
		seen[req.Seq] = true
	}
	// Completing one op refills one slot.
	c.Receive(ctx, 0, msg.ClientReply{Seq: 2, OK: true})
	if got := c.InFlight(); got != 4 {
		t.Fatalf("after refill in flight = %d, want 4", got)
	}
	if c.Completed() != 1 {
		t.Fatalf("Completed = %d", c.Completed())
	}
	// Out-of-order replies are fine: each seq retires independently.
	c.Receive(ctx, 0, msg.ClientReply{Seq: 5, OK: true})
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true})
	if c.Completed() != 3 {
		t.Fatalf("Completed = %d, want 3", c.Completed())
	}
	if c.MaxInFlight() != 4 {
		t.Fatalf("MaxInFlight = %d, want 4", c.MaxInFlight())
	}
}

// TestClientPipelinedRetryIsPerSeq: the lane has one retry timer, but
// every flight keeps its own clock — a tick resends exactly the flights
// whose own last transmission is RetryTimeout old, and sleeps until the
// next-oldest is due.
func TestClientPipelinedRetryIsPerSeq(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) { cfg.Window = 3 })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	if c.InFlight() != 3 {
		t.Fatalf("in flight = %d", c.InFlight())
	}
	// Seq 2 completes half a timeout in; its replacement, seq 4, starts
	// its own clock there.
	ctx.Clock = DefaultRetryTimeout / 2
	c.Receive(ctx, 0, msg.ClientReply{Seq: 2, OK: true})
	ctx.Sent = nil
	// The tick at one timeout resends seqs 1 and 3 only, in one request
	// rotated to the next server.
	ctx.Clock = DefaultRetryTimeout
	c.Timer(ctx, runtime.TimerTag{Kind: client.TimerRetry})
	if len(ctx.Sent) != 1 {
		t.Fatalf("retry sent %d messages, want 1", len(ctx.Sent))
	}
	to, req := lastRequest(t, ctx)
	if entries := req.Batch; to != 1 || len(entries) != 2 || entries[0].Seq != 1 || entries[1].Seq != 3 {
		t.Fatalf("retry = %+v to %d, want seqs 1 and 3 to server 1", req, to)
	}
	if c.Retries() != 2 {
		t.Fatalf("Retries = %d, want 2", c.Retries())
	}
	// The timer sleeps until seq 4 is due, half a timeout on.
	if tm := ctx.Timers[len(ctx.Timers)-1]; tm.Tag.Kind != client.TimerRetry || tm.At != DefaultRetryTimeout*3/2 {
		t.Fatalf("retry timer re-armed as %+v, want seq 4's due time %v", tm, DefaultRetryTimeout*3/2)
	}
	// A tick after everything completed resends nothing and dies.
	for _, seq := range []uint64{1, 3, 4} {
		c.Receive(ctx, 1, msg.ClientReply{Seq: seq, OK: true})
	}
	if c.MaxInFlight() > 3 {
		t.Fatalf("window exceeded: %d", c.MaxInFlight())
	}
}

func TestClientWindowWithThinkTimeRampsUp(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) {
		cfg.Window = 4
		cfg.ThinkTime = time.Millisecond
	})
	c.Start(ctx)
	// Each think tick issues exactly one command and re-arms while the
	// window has free slots, so the pipeline ramps to full depth.
	for i := 0; i < 4; i++ {
		if got := c.InFlight(); got != i {
			t.Fatalf("tick %d: in flight = %d, want %d", i, got, i)
		}
		c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	}
	if got := c.InFlight(); got != 4 {
		t.Fatalf("window never filled under think time: in flight = %d", got)
	}
	// A stray extra tick with a full window issues nothing.
	n := len(ctx.Sent)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	if len(ctx.Sent) != n {
		t.Fatal("full window must not issue more commands")
	}
	// A completion paces its replacement through a think tick, keeping
	// depth at the window.
	c.Receive(ctx, 0, msg.ClientReply{Seq: 1, OK: true})
	if got := c.InFlight(); got != 3 {
		t.Fatalf("after completion in flight = %d, want 3", got)
	}
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	if got := c.InFlight(); got != 4 {
		t.Fatalf("replacement not issued: in flight = %d", got)
	}
	if c.MaxInFlight() != 4 {
		t.Fatalf("MaxInFlight = %d, want 4", c.MaxInFlight())
	}
}

// shardedClient builds a client over two 3-replica groups with a
// per-lane window of 2.
func shardedClient(tweak func(*Config)) (*Client, *runtime.FakeContext) {
	cfg := Config{
		ID: 10,
		Groups: [][]msg.NodeID{
			{0, 1, 2},
			{3, 4, 5},
		},
		Window: 2,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return mustClient(cfg), runtime.NewFakeContext(10, 7)
}

func TestClientShardLanesFillAllGroups(t *testing.T) {
	c, ctx := shardedClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	if got := c.InFlight(); got != 4 {
		t.Fatalf("in flight %d, want 2 lanes x window 2 = 4", got)
	}
	// Both groups must have received traffic, each lane on its own key
	// and with seqs tagged by its shard index.
	perGroup := map[int]int{}
	for _, s := range ctx.TakeSent() {
		req, ok := s.M.(*msg.ClientRequest)
		if !ok {
			t.Fatalf("sent %T, want ClientRequest", s.M)
		}
		g := int(s.To) / 3
		perGroup[g]++
		if tag := shard.SeqShard(req.Seq); tag != g {
			t.Errorf("request to group %d tagged for shard %d", g, tag)
		}
		if want := c.LaneKey(g); req.Cmd.Key != want {
			t.Errorf("group %d request on key %q, want lane key %q", g, req.Cmd.Key, want)
		}
		if shard.ForKey(req.Cmd.Key, c.Lanes()) != g {
			t.Errorf("lane key %q does not route back to group %d", req.Cmd.Key, g)
		}
	}
	if perGroup[0] != 2 || perGroup[1] != 2 {
		t.Fatalf("lane fill uneven: %v, want 2 per group", perGroup)
	}
}

func TestClientShardLaneRetryStaysInGroup(t *testing.T) {
	c, ctx := shardedClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	// Time out lane 1 repeatedly: every resend must stay inside group
	// 1's replica set {3,4,5}.
	seq := shard.TagSeq(1, 1)
	for i := 0; i < 5; i++ {
		ctx.Sent = nil
		retryTick(c, ctx, 1)
		to, req := lastRequest(t, ctx)
		if to < 3 || to > 5 {
			t.Fatalf("retry %d went to node %d, outside group 1", i, to)
		}
		if req.Seq != seq {
			t.Fatalf("retry changed seq: %d", req.Seq)
		}
	}
	if c.Retries() != 10 {
		t.Fatalf("retries = %d, want lane 1's two commands resent 5 times", c.Retries())
	}
}

func TestClientShardLaneCompletionRefills(t *testing.T) {
	c, ctx := shardedClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	ctx.Sent = nil
	// Complete lane 0's first command; the freed slot must be refilled
	// with a new lane-0 command while lane 1 stays at its window.
	c.Receive(ctx, 0, msg.ClientReply{Seq: shard.TagSeq(0, 1), OK: true})
	if c.Completed() != 1 {
		t.Fatalf("completed = %d", c.Completed())
	}
	_, req := lastRequest(t, ctx)
	if shard.SeqShard(req.Seq) != 0 || req.Seq != shard.TagSeq(0, 3) {
		t.Fatalf("refill seq = %d, want lane 0 seq 3", req.Seq)
	}
	if c.InFlight() != 4 {
		t.Fatalf("in flight %d after refill, want 4", c.InFlight())
	}
}

func TestClientShardLaneAckIsPerLane(t *testing.T) {
	c, ctx := shardedClient(nil)
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	// Complete lane 1's first command, then retry its second: the
	// carried ack must be lane 1's own floor, not lane 0's.
	c.Receive(ctx, 3, msg.ClientReply{Seq: shard.TagSeq(1, 1), OK: true})
	ctx.Sent = nil
	retryTick(c, ctx, 1)
	_, req := lastRequest(t, ctx)
	if req.Ack != shard.TagSeq(1, 2) {
		t.Fatalf("lane 1 ack = %d, want its own lowest outstanding %d",
			req.Ack, shard.TagSeq(1, 2))
	}
}

func TestClientShardLaneRequestCapIsGlobal(t *testing.T) {
	c, ctx := shardedClient(func(cfg *Config) { cfg.Requests = 3 })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	if got := c.InFlight(); got != 3 {
		t.Fatalf("issued %d, want the global cap 3", got)
	}
}

// TestClientShardLaneEmptyGroupPanics keeps its name from when
// NewClient panicked; an empty group is a returned error now.
func TestClientShardLaneEmptyGroupPanics(t *testing.T) {
	if c, err := NewClient(Config{ID: 1, Groups: [][]msg.NodeID{{0, 1, 2}, {}}}); err == nil || c != nil {
		t.Fatalf("client with an empty group accepted: %v, %v", c, err)
	}
}

// batchedClient builds a single-group adaptive client with a window of
// 8, so a batch cap of 4.
func batchedClient() (*Client, *runtime.FakeContext) {
	cfg := Config{ID: 10, Servers: []msg.NodeID{0, 1, 2}, Window: 8, BatchAdaptive: true}
	return mustClient(cfg), runtime.NewFakeContext(10, 4)
}

func TestClientBatchedWindowFill(t *testing.T) {
	c, ctx := batchedClient()
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	// One fill issues the whole window as two full batches.
	if got := c.InFlight(); got != 8 {
		t.Fatalf("in flight = %d, want 8", got)
	}
	sent := ctx.TakeSent()
	if len(sent) != 2 {
		t.Fatalf("sent %d requests, want 2 batches", len(sent))
	}
	seen := map[uint64]bool{}
	next := uint64(1)
	for i, s := range sent {
		req, ok := s.M.(*msg.ClientRequest)
		if !ok {
			t.Fatalf("sent %T, want ClientRequest", s.M)
		}
		entries := req.Batch
		if len(entries) != 4 {
			t.Fatalf("batch %d carries %d entries, want 4", i, len(entries))
		}
		if req.Seq != entries[0].Seq {
			t.Fatalf("batch %d Seq %d != first entry %d", i, req.Seq, entries[0].Seq)
		}
		for _, be := range entries {
			if seen[be.Seq] {
				t.Fatalf("seq %d issued twice", be.Seq)
			}
			seen[be.Seq] = true
			if be.Seq != next {
				t.Fatalf("batch seqs not dense: got %d, want %d", be.Seq, next)
			}
			next++
		}
	}
	occ := obs.NewSnapshot()
	c.Collect(&occ)
	if occ.Counters["batch.batches"] != 2 || occ.Counters["batch.commands"] != 8 {
		t.Fatalf("occupancy = %v, want 2 batches / 8 commands", occ.Counters)
	}
	// One retry timer serves the whole lane.
	armed := 0
	for _, tm := range ctx.Timers {
		if tm.Tag.Kind == client.TimerRetry {
			armed++
		}
	}
	if armed != 1 {
		t.Fatalf("%d retry timers armed, want 1 for the lane", armed)
	}
}

func TestClientBatchedReplyRefillsAsBatch(t *testing.T) {
	c, ctx := batchedClient()
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	ctx.Sent = nil
	// The replica answers the first batch in one message: the freed
	// slots must refill as ONE full batch, not four singles.
	var replies []msg.ClientReply
	for seq := uint64(1); seq <= 4; seq++ {
		replies = append(replies, msg.ClientReply{Seq: seq, OK: true, Result: "r"})
	}
	c.Receive(ctx, 0, &msg.ClientReplyBatch{Replies: replies})
	if c.Completed() != 4 {
		t.Fatalf("completed = %d, want 4", c.Completed())
	}
	sent := ctx.TakeSent()
	if len(sent) != 1 {
		t.Fatalf("refill sent %d requests, want one batch", len(sent))
	}
	req := sent[0].M.(*msg.ClientRequest)
	if entries := req.Batch; len(entries) != 4 || entries[0].Seq != 9 {
		t.Fatalf("refill batch = %+v, want seqs 9..12", entries)
	}
	if got := c.InFlight(); got != 8 {
		t.Fatalf("in flight after refill = %d, want 8", got)
	}
}

// TestClientBatchedRetryKeepsSeq is the retry audit under batching: a
// batch that times out is resent whole, as ONE request to ONE next
// server, every command under its ORIGINAL sequence number — no fresh
// seq is burned, and the eventual commits of both copies retire each
// command exactly once.
func TestClientBatchedRetryKeepsSeq(t *testing.T) {
	c, ctx := batchedClient()
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	first := ctx.TakeSent()[0].M.(*msg.ClientRequest)
	if len(first.Batch) != 4 {
		t.Fatalf("first batch = %+v", first)
	}
	issuedBefore := c.issued

	retryTick(c, ctx, 0)
	sent := ctx.TakeSent()
	if len(sent) != 1 {
		t.Fatalf("retry sent %d messages, want 1", len(sent))
	}
	retry := sent[0].M.(*msg.ClientRequest)
	if sent[0].To != 1 {
		t.Fatalf("retry went to %d, want next server 1", sent[0].To)
	}
	if len(retry.Batch) != 8 || retry.Seq != 1 || retry.Ack != 1 {
		t.Fatalf("retry = %+v, want all 8 outstanding seqs from 1", retry)
	}
	for i, be := range retry.Batch {
		if be.Seq != uint64(i+1) {
			t.Fatalf("retry entry %d carries seq %d, want %d", i, be.Seq, i+1)
		}
	}
	if retry.Batch[1].Cmd != first.Batch[1].Cmd {
		t.Fatalf("retry changed command: %+v vs %+v", retry.Batch[1].Cmd, first.Batch[1].Cmd)
	}
	if c.issued != issuedBefore {
		t.Fatalf("retry issued new seqs: %d -> %d", issuedBefore, c.issued)
	}
	if c.Retries() != 8 {
		t.Fatalf("Retries = %d, want 8", c.Retries())
	}
	if got := c.InFlight(); got != 8 {
		t.Fatalf("in flight = %d, want unchanged 8", got)
	}

	// The original batch commits: every seq — including the retried one
	// — completes exactly once.
	var replies []msg.ClientReply
	for seq := uint64(1); seq <= 4; seq++ {
		replies = append(replies, msg.ClientReply{Seq: seq, OK: true})
	}
	c.Receive(ctx, 0, &msg.ClientReplyBatch{Replies: replies})
	if c.Completed() != 4 {
		t.Fatalf("completed = %d, want 4", c.Completed())
	}
	// The retry's own late answer is stale: ignored, no double count.
	c.Receive(ctx, 1, msg.ClientReply{Seq: 2, OK: true})
	if c.Completed() != 4 {
		t.Fatalf("stale retry reply double-counted: completed = %d", c.Completed())
	}
}

// TestClientHoldsWhenSlotsAreShortOfABatch is decision 2's guard: with a
// full batch of demand pending and fewer free slots than a batch, the
// lane sends nothing and arms nothing — the replies that free the
// slots arrive batched, and the refill is a full batch.
func TestClientHoldsWhenSlotsAreShortOfABatch(t *testing.T) {
	c, ctx := batchedClient()
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	ctx.TakeSent()
	timers := len(ctx.Timers)
	for seq := uint64(1); seq <= 3; seq++ {
		c.Receive(ctx, 0, msg.ClientReply{Seq: seq, OK: true})
	}
	if len(ctx.Sent) != 0 || len(ctx.Timers) != timers {
		t.Fatalf("3 free slots, batch 4: sent %+v and armed %+v, want nothing", ctx.Sent, ctx.Timers[timers:])
	}
	c.Receive(ctx, 0, msg.ClientReply{Seq: 4, OK: true})
	sent := ctx.TakeSent()
	if len(sent) != 1 || len(sent[0].M.(*msg.ClientRequest).Batch) != 4 {
		t.Fatalf("fourth free slot sent %+v, want one full batch", sent)
	}
}

// TestClientPinnedFlightOutlivesWindow mirrors the KV bridge's pinned-
// flight test on the simulator client, which keeps the same seqwin
// window: one command stays outstanding while many times the window's
// worth of newer ones complete around it. Its flight must survive the
// ring growing, every request must keep carrying it as the ack floor,
// and its retry and eventual reply must still find it.
func TestClientPinnedFlightOutlivesWindow(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) { cfg.Window = 2 })
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend}) // issues seqs 1 and 2
	for seq := uint64(2); seq < 40; seq++ {
		ctx.Sent = nil
		c.Receive(ctx, 0, msg.ClientReply{Seq: seq, OK: true})
		_, req := lastRequest(t, ctx)
		if req.Seq != seq+1 || req.Ack != 1 {
			t.Fatalf("after seq %d completed: issued seq %d with ack %d, want seq %d with ack 1", seq, req.Seq, req.Ack, seq+1)
		}
	}
	if c.Completed() != 38 || c.InFlight() != 2 {
		t.Fatalf("completed %d, in flight %d; want 38 and 2", c.Completed(), c.InFlight())
	}
	// A duplicate reply for a long-retired seq changes nothing.
	c.Receive(ctx, 0, msg.ClientReply{Seq: 5, OK: true})
	if c.Completed() != 38 {
		t.Fatal("stale reply completed a command twice")
	}
	// The lane's retry timer still finds the pinned command (oldest first)...
	ctx.Sent = nil
	retryTick(c, ctx, 0)
	if _, req := lastRequest(t, ctx); req.Seq != 1 || req.Ack != 1 || len(req.Batch) != 2 {
		t.Fatalf("retry of the pinned command sent %+v", req)
	}
	// ...and once it completes the floor jumps to the newest flight.
	ctx.Sent = nil
	c.Receive(ctx, 1, msg.ClientReply{Seq: 1, OK: true})
	if _, req := lastRequest(t, ctx); req.Seq != 41 || req.Ack != 40 {
		t.Fatalf("after the pinned command completed: seq %d ack %d, want seq 41 ack 40", req.Seq, req.Ack)
	}
}

// TestClientFastReadsRideTheReadLane: under a fast-path read mode the
// source still draws each command's coin at admission and still caps
// its outstanding commands at Window, but the reads travel as coalesced
// ReadRequests on read-lane seqs — at most two requests outstanding —
// and never touch the write window.
func TestClientFastReadsRideTheReadLane(t *testing.T) {
	c, ctx := newClient(func(cfg *Config) {
		cfg.Window = 4
		cfg.ReadPercent = 100
		cfg.ReadMode = readpath.Lease
	})
	readSeqs := func(what string, s runtime.FakeSend, to msg.NodeID, want ...uint64) {
		t.Helper()
		req, ok := s.M.(*msg.ReadRequest)
		if !ok || s.To != to || req.Mode != int(readpath.Lease) || len(req.Entries) != len(want) {
			t.Fatalf("%s: sent %+v to %d, want a lease ReadRequest of %d reads to %d", what, s.M, s.To, len(want), to)
		}
		for i, be := range req.Entries {
			if be.Seq != want[i] || be.Cmd.Op != msg.OpGet {
				t.Fatalf("%s: entry %d = %+v, want read seq %d", what, i, be, want[i])
			}
		}
	}
	one := func(what string, to msg.NodeID, want ...uint64) {
		t.Helper()
		sent := ctx.TakeSent()
		if len(sent) != 1 {
			t.Fatalf("%s: sent %d messages, want 1: %+v", what, len(sent), sent)
		}
		readSeqs(what, sent[0], to, want...)
	}
	c.Start(ctx)
	c.Timer(ctx, runtime.TimerTag{Kind: TimerSend})
	// Four reads fill the source's window; two leave at once, two pool.
	sent := ctx.TakeSent()
	if len(sent) != client.MaxReadRequests {
		t.Fatalf("first fill sent %d messages, want %d read requests", len(sent), client.MaxReadRequests)
	}
	readSeqs("first fill", sent[0], 0, 1)
	readSeqs("first fill", sent[1], 0, 2)
	if c.InFlight() != 0 || c.MaxInFlight() != 4 {
		t.Fatalf("writes in flight %d, max outstanding %d; want 0 and the window, 4", c.InFlight(), c.MaxInFlight())
	}
	// One answer: the read completes, and the pooled reads leave with its
	// replacement as ONE request.
	c.Receive(ctx, 0, &msg.ReadReplyBatch{Replies: []msg.ReadReply{{Seq: 1, OK: true, Result: "r"}}})
	if c.Completed() != 1 || c.ReadLatencies().Count() != 1 {
		t.Fatalf("completed %d, read samples %d; want 1 and 1", c.Completed(), c.ReadLatencies().Count())
	}
	one("refill", 0, 3, 4, 5)
	c.Receive(ctx, 0, &msg.ReadReplyBatch{Replies: []msg.ReadReply{{Seq: 2, OK: true}}})
	one("second refill", 0, 6)
	// Two requests are outstanding: the next replacement pools.
	c.Receive(ctx, 0, &msg.ReadReplyBatch{Replies: []msg.ReadReply{{Seq: 3, OK: true}}})
	if sent := ctx.TakeSent(); len(sent) != 0 {
		t.Fatalf("third request sent with two outstanding: %+v", sent)
	}
	// A redirect re-aims the read lane; the read goes out again ahead of
	// the pooled one, and completes nothing.
	c.Receive(ctx, 0, &msg.ReadReplyBatch{Replies: []msg.ReadReply{{Seq: 6, Redirect: 2}}})
	one("after the redirect", 2, 7, 8)
	if c.Completed() != 3 {
		t.Fatalf("completed = %d, want 3", c.Completed())
	}
}
