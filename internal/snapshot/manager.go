package snapshot

// Manager runs the recovery subsystem for one replica. The replica
// shell (internal/replica.Shell) builds one per replica and calls it
// from its own hooks:
//
//	Route:      Handle
//	RouteTimer: HandleTimer
//	Start:      Start
//	Vote:       WatchGap               (per learned instance)
//	AfterApply: AfterApply             (per applied instance)
//
// and consults CatchingUp on the client-request path, so a recovering
// replica does not propose (or lead) before it has learned what the
// group decided without it. Engines call Serve (and 1Paxos WatchGap)
// themselves. All methods run on the replica's own goroutine — the
// Manager is single-threaded like the engine itself.

import (
	"sync/atomic"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
)

// The chunk size, and the default for a zero Config.RetryTimeout.
const (
	// DefaultChunkSize is the snapshot chunk payload size: small enough
	// that a chunk never strains the transport's frame limit, large
	// enough that realistic state images travel in a handful of frames.
	DefaultChunkSize = 64 << 10
	// DefaultRetryTimeout is the recovery watchdog's period: how long
	// applies (or a transfer) may make no progress before the replica
	// asks another peer.
	DefaultRetryTimeout = 250 * time.Millisecond
)

// chunkSize is the snapshot chunk payload size. A variable so tests can
// make a small image travel as several chunks.
var chunkSize = DefaultChunkSize

// entriesPerMessage caps how many decided entries ride one
// CatchupEntries message, so a long retained suffix streams as several
// bounded frames instead of one giant allocation (see rsm.Log.Scan).
const entriesPerMessage = 256

// timerCatchup is the Manager's timer kind. Engine kinds stay single
// digits and PaxosUtility reserves >= 100; the workload/bridge clients
// own >= 900. 850 collides with nobody.
const timerCatchup = 850

// Config parameterizes a Manager.
type Config struct {
	// ID is this replica; Replicas is its whole agreement group in the
	// shared order, this node included — the Manager excludes itself
	// when rotating catch-up requests across the group.
	ID       msg.NodeID
	Replicas []msg.NodeID

	// Interval compacts the log every this many applied instances: each
	// tick raises the floor to the previous tick's frontier, so between
	// one and two intervals of applied entries stay retained. Zero or
	// negative never compacts — the paper's unbounded-memory behavior.
	// Either way a snapshot is captured only when a peer asks for state
	// the log no longer (or, for an engine without a log, never) holds.
	Interval int64

	// Recover makes Start stream state from a peer before the replica
	// serves clients — the restarted-replica mode.
	Recover bool

	// RetryTimeout is the recovery pacing knob (default
	// DefaultRetryTimeout).
	RetryTimeout time.Duration

	// Events, when non-nil, receives rare-event timeline entries
	// (internal/obs): recovery start and completion.
	Events *obs.EventLog
}

// Manager implements snapshotting, compaction and catch-up for one
// replica. The zero value is not usable; build one with New.
type Manager struct {
	cfg      Config
	peers    []msg.NodeID // the group without this node
	log      *rsm.Log     // nil for engines without an instance log (2PC)
	sessions *rsm.Sessions
	state    State // nil when the applier is not snapshottable

	onRestore func(lastApplied int64)
	onCompact func(floor int64)

	// tick is the applied frontier at the last compaction tick — the
	// floor the next tick raises the log to.
	tick int64

	// Recovering side: the transfer phase, then one stall watchdog that
	// runs while goal is set (see watch).
	catchingUp   bool
	goal         int64 // applies must reach it; 0 means off
	seen         int64 // next-to-apply at the last watch step
	target       int
	assembling   []byte
	assembleFrom msg.NodeID
	assembleNext int64
	retryCancel  runtime.CancelFunc
	recovered    atomic.Bool // recovery finished and converged (true from birth when not recovering)

	// Stats is the replica's live recovery counters; readers Load the
	// fields they want or Collect them all.
	Stats Counters
}

// Counters is one replica's recovery-subsystem accounting: how much it
// compacted, how many snapshots and how much catch-up traffic it served
// to peers, and whether it ever restored itself from a peer's snapshot.
// The Manager adds to it on the engine goroutine; every field is atomic
// because deployments read it from arbitrary goroutines during load.
type Counters struct {
	Snapshots         atomic.Int64 // snapshots captured, each to serve one catch-up
	SnapshotBytes     atomic.Int64 // encoded bytes across captured snapshots
	EntriesTruncated  atomic.Int64 // applied log entries dropped by compaction
	CatchupsServed    atomic.Int64 // catch-up requests answered for peers
	ChunksSent        atomic.Int64 // snapshot chunks sent while serving
	EntriesStreamed   atomic.Int64 // decided entries streamed while serving
	CatchupsRequested atomic.Int64 // catch-up requests sent while recovering
	Restores          atomic.Int64 // peer snapshots decoded and installed locally
}

// Collect adds the Manager's counters to s under the "snap." names.
// Safe from any goroutine.
func (m *Manager) Collect(s *obs.Snapshot) {
	c := &m.Stats
	s.Add("snap.snapshots", c.Snapshots.Load())
	s.Add("snap.snapshot_bytes", c.SnapshotBytes.Load())
	s.Add("snap.entries_truncated", c.EntriesTruncated.Load())
	s.Add("snap.catchups_served", c.CatchupsServed.Load())
	s.Add("snap.chunks_sent", c.ChunksSent.Load())
	s.Add("snap.entries_streamed", c.EntriesStreamed.Load())
	s.Add("snap.catchups_requested", c.CatchupsRequested.Load())
	s.Add("snap.restores", c.Restores.Load())
}

// New builds a Manager for one replica. log may be nil (engines without
// an instance-indexed log); applier is the engine's inner state machine
// — if it implements State the Manager can capture and install
// snapshots, otherwise only log-suffix catch-up is available.
func New(cfg Config, log *rsm.Log, sessions *rsm.Sessions, applier rsm.Applier) *Manager {
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = DefaultRetryTimeout
	}
	state, _ := applier.(State)
	m := &Manager{
		cfg:      cfg,
		log:      log,
		sessions: sessions,
		state:    state,
	}
	for _, id := range cfg.Replicas {
		if id != cfg.ID {
			m.peers = append(m.peers, id)
		}
	}
	m.recovered.Store(!cfg.Recover)
	return m
}

// Recovered reports whether the replica has finished recovering and
// converged (trivially true for a replica not started in Recover mode).
// Safe from any goroutine — experiment harnesses poll it to time a
// restarted replica's rejoin.
func (m *Manager) Recovered() bool { return m.recovered.Load() }

// CatchingUp reports whether the replica is still streaming state from
// a peer and must not serve client requests yet (clients retry; by then
// the transfer has completed).
func (m *Manager) CatchingUp() bool { return m.catchingUp }

// OnRestore registers a callback run after a peer snapshot is installed
// — the hook engines use to realign engine-private frontiers (Mencius
// instance ownership, 1Paxos's no-op floor) with the restored log.
func (m *Manager) OnRestore(fn func(lastApplied int64)) { m.onRestore = fn }

// OnCompact registers a callback run after each compaction tick with
// the log's floor — the hook engines use to drop private per-instance
// state below it (Basic-Paxos prunes its acceptor records).
func (m *Manager) OnCompact(fn func(floor int64)) { m.onCompact = fn }

// Start begins recovery when the Manager was configured with Recover.
func (m *Manager) Start(ctx runtime.Context) {
	if !m.cfg.Recover || len(m.peers) == 0 {
		return
	}
	m.catchingUp = true
	m.cfg.Events.Emit(ctx.Now(), m.cfg.ID, "recovery", "recovery started: requesting state from peers")
	m.request(ctx)
}

// Handle intercepts the recovery subsystem's messages; it reports false
// for everything else so engines can fall through to their own
// dispatch.
func (m *Manager) Handle(ctx runtime.Context, from msg.NodeID, message msg.Message) bool {
	switch v := message.(type) {
	case msg.CatchupRequest:
		m.Serve(ctx, from, v.From)
		return true
	case msg.SnapshotChunk:
		m.onChunk(from, v)
		return true
	case msg.CatchupEntries:
		m.onEntries(ctx, v)
		return true
	}
	return false
}

// HandleTimer intercepts the Manager's timer, one watchdog step;
// false for any other kind.
func (m *Manager) HandleTimer(ctx runtime.Context, tag runtime.TimerTag) bool {
	if tag.Kind != timerCatchup {
		return false
	}
	m.retryCancel = nil
	if m.catchingUp || m.goal != 0 {
		m.watch(ctx, true)
	}
	return true
}

// WatchGap turns the watchdog on when the applied frontier sits below
// the learned frontier. A hole under live traffic normally fills within
// a message delay; one whose learn was dropped by a partition never
// does — the acceptor's re-multicast covers retried accepts only, and
// instances below a noopFloor are never no-op filled (they were
// decided; the value exists at peers). Engines call this from their
// learn path; it is cheap, and a no-op while the watchdog is already on.
func (m *Manager) WatchGap(ctx runtime.Context) {
	if m.log == nil || m.catchingUp || m.goal != 0 {
		return
	}
	next, learned := m.log.NextToApply(), m.log.LearnedFrontier()
	if next >= learned {
		return
	}
	m.goal, m.seen = learned, next
	m.armRetry(ctx)
}

// watch is the watchdog's one body, run when its timer fires and when a
// transfer ends (fired false: the transfer answered the last request,
// so it starts a fresh stall period rather than judging one).
//
// During the transfer phase a fire means no complete transfer within
// the timeout — a slow, dead or compacting peer, or dropped chunks — so
// it asks the next peer. After it, watch stops at the goal, asks the next
// peer when a full RetryTimeout passed with no applies, and re-arms on
// progress. A recovering replica's goal is the learned frontier when its
// transfer finished, and stays fixed: values decided while it was down
// surface as holes only once live traffic resumes (their learn votes
// are long gone), all of them below that frontier, and reaching it
// recovers the replica. A recovered replica's goal (WatchGap) follows
// the learned frontier: a hole that persists a full timeout is a lost
// learn, not a late one. request rotates peers, so a peer that shares
// the hole does not wedge either.
func (m *Manager) watch(ctx runtime.Context, fired bool) {
	if m.catchingUp {
		m.resetAssembly()
		m.request(ctx)
		return
	}
	if m.recovered.Load() {
		m.goal = m.log.LearnedFrontier()
	}
	switch next := m.log.NextToApply(); {
	case next >= m.goal:
		if !m.recovered.Load() {
			m.recovered.Store(true)
			how := "complete"
			if fired {
				how = "converged"
			}
			m.cfg.Events.Emitf(ctx.Now(), m.cfg.ID, "recovery", "recovery %s at instance %d", how, m.goal)
		}
		m.goal = 0
		m.disarm()
	case fired && next == m.seen:
		m.request(ctx)
	default:
		m.seen = next
		m.armRetry(ctx)
	}
}

// AfterApply is the engines' per-applied-instance hook, the compaction
// cadence: once Interval instances have been applied since the last
// tick, the log's floor rises to that tick's frontier and the engine's
// OnCompact hook runs. The floor trails the frontier by at least one
// interval, so only a peer lagging more than that pays for a state
// transfer. Nothing is captured here — the live state machine is the
// snapshot of everything compacted, and Serve encodes it on request —
// which is also why a replica whose applier cannot be snapshotted
// never compacts.
func (m *Manager) AfterApply() {
	if m.cfg.Interval <= 0 || m.state == nil || m.log == nil {
		return
	}
	next := m.log.NextToApply()
	if next-m.tick < m.cfg.Interval {
		return
	}
	m.Stats.EntriesTruncated.Add(int64(m.log.CompactTo(m.tick)))
	m.tick = next
	if m.onCompact != nil {
		m.onCompact(m.log.Floor())
	}
}

// --- Serving side ---

// Serve answers one catch-up request from peer to, whose next-to-apply
// instance is from: the retained log suffix when it still covers from,
// otherwise a chunked snapshot plus the suffix above it. Engines also
// call it directly when a prepare reveals a proposer below the
// compaction floor — the push that keeps lagging peers convergent.
func (m *Manager) Serve(ctx runtime.Context, to msg.NodeID, from int64) {
	m.Stats.CatchupsServed.Add(1)
	start := from
	if m.log == nil || from < m.log.Floor() {
		if enc, last, ok := m.servableSnapshot(); ok {
			m.sendChunks(ctx, to, enc)
			start = last + 1
		} else if m.log != nil {
			start = m.log.Floor() // nothing to ship below it; serve what remains
		}
	}
	m.sendEntries(ctx, to, start)
}

// servableSnapshot captures this replica's state at its current applied
// frontier — the one place a snapshot is ever built, and only because a
// peer needs state the log cannot supply: it fell below the compaction
// floor, or the engine keeps no log. The image is as fresh as the
// server, so a log-less engine's restarted replica misses nothing the
// server applied.
func (m *Manager) servableSnapshot() ([]byte, int64, bool) {
	if m.state == nil {
		return nil, 0, false
	}
	last := int64(-1)
	if m.log != nil {
		last = m.log.NextToApply() - 1
	}
	enc := Encode(Snapshot{
		LastApplied: last,
		State:       m.state.SnapshotState(),
		Lanes:       m.sessions.Export(),
	})
	m.Stats.Snapshots.Add(1)
	m.Stats.SnapshotBytes.Add(int64(len(enc)))
	return enc, last, true
}

func (m *Manager) sendChunks(ctx runtime.Context, to msg.NodeID, enc []byte) {
	size := chunkSize
	for off, seq := 0, int64(0); off < len(enc); off, seq = off+size, seq+1 {
		end := min(off+size, len(enc))
		m.Stats.ChunksSent.Add(1)
		// The chunk aliases enc, which this transfer owns and nobody
		// mutates; receivers copy into their assembly buffer.
		ctx.Send(to, msg.SnapshotChunk{Seq: seq, Last: end == len(enc), Data: enc[off:end]})
	}
}

func (m *Manager) sendEntries(ctx runtime.Context, to msg.NodeID, from int64) {
	if m.log == nil {
		ctx.Send(to, msg.CatchupEntries{Done: true})
		return
	}
	batch := make([]msg.Decided, 0, entriesPerMessage)
	flush := func(e rsm.Entry) bool {
		batch = append(batch, msg.Decided{Instance: e.Instance, Value: e.Value})
		if len(batch) == entriesPerMessage {
			m.Stats.EntriesStreamed.Add(int64(len(batch)))
			ctx.Send(to, msg.CatchupEntries{Entries: batch})
			batch = make([]msg.Decided, 0, entriesPerMessage)
		}
		return true
	}
	m.log.Scan(from, flush)
	// Learned-but-unapplied entries are decided too (learners only
	// record decided values) — without them a recovering replica cannot
	// see past the gap that is stalling this server's own applies, which
	// matters when the gap's instances belong to the recovering replica
	// itself (a crashed Mencius owner must skip them).
	m.log.ScanPending(func(e rsm.Entry) bool {
		if e.Instance < from {
			return true
		}
		return flush(e)
	})
	m.Stats.EntriesStreamed.Add(int64(len(batch)))
	ctx.Send(to, msg.CatchupEntries{Entries: batch, Done: true})
}

// --- Recovering side ---

func (m *Manager) request(ctx runtime.Context) {
	if len(m.peers) == 0 {
		return
	}
	to := m.peers[m.target%len(m.peers)]
	m.target++
	from := int64(0)
	if m.log != nil {
		from = m.log.NextToApply()
	}
	m.Stats.CatchupsRequested.Add(1)
	ctx.Send(to, msg.CatchupRequest{From: from})
	m.armRetry(ctx)
}

func (m *Manager) armRetry(ctx runtime.Context) {
	m.disarm()
	m.retryCancel = ctx.After(m.cfg.RetryTimeout, runtime.TimerTag{Kind: timerCatchup})
}

func (m *Manager) disarm() {
	if m.retryCancel != nil {
		m.retryCancel()
		m.retryCancel = nil
	}
}

func (m *Manager) resetAssembly() {
	m.assembling = nil
	m.assembleFrom = msg.Nobody
	m.assembleNext = 0
}

// onChunk assembles one snapshot transfer. Chunks arrive in order per
// sender (one connection, one writer); anything out of sequence —
// an interleaved transfer from another peer, a dropped chunk — resets
// the assembly and lets the retry timer re-request.
func (m *Manager) onChunk(from msg.NodeID, c msg.SnapshotChunk) {
	if c.Seq == 0 {
		m.assembling = m.assembling[:0]
		m.assembleFrom = from
		m.assembleNext = 0
	}
	if from != m.assembleFrom || c.Seq != m.assembleNext {
		m.resetAssembly()
		return
	}
	m.assembling = append(m.assembling, c.Data...)
	m.assembleNext++
	if !c.Last {
		return
	}
	snap, err := Decode(m.assembling)
	m.resetAssembly()
	if err != nil {
		return // corrupt transfer; the retry timer re-requests
	}
	m.install(snap)
}

// install restores state, sessions and log from a decoded snapshot —
// in that order, so the log's catch-up applies (instances above the
// snapshot) run against the restored image. A snapshot at or behind
// the local frontier is ignored; a log-less engine installs only while
// it is itself recovering (an unsolicited stale transfer must never
// overwrite newer state).
func (m *Manager) install(snap Snapshot) {
	if m.log != nil {
		if snap.LastApplied+1 <= m.log.NextToApply() {
			return
		}
	} else if !m.catchingUp {
		return
	}
	if m.state != nil {
		if err := m.state.RestoreState(snap.State); err != nil {
			return
		}
	}
	m.sessions.Restore(snap.Lanes)
	if m.log != nil {
		m.log.InstallSnapshot(snap.LastApplied)
	}
	m.Stats.Restores.Add(1)
	if m.onRestore != nil {
		m.onRestore(snap.LastApplied)
	}
}

func (m *Manager) onEntries(ctx runtime.Context, e msg.CatchupEntries) {
	if m.log != nil {
		for _, de := range e.Entries {
			m.log.Learn(de.Instance, de.Value)
		}
	}
	if e.Done {
		m.finishTransfer(ctx)
	}
}

// finishTransfer ends a transfer. The one that ends the transfer phase
// sets the recovering replica's goal (a log-less replica has none and
// is recovered at once); any transfer the watchdog waits for then runs
// a watch step. A transfer pushed at a replica whose watchdog is off
// just ends.
func (m *Manager) finishTransfer(ctx runtime.Context) {
	switch {
	case m.catchingUp && m.log == nil:
		m.catchingUp = false
		m.disarm()
		m.recovered.Store(true)
		m.cfg.Events.Emit(ctx.Now(), m.cfg.ID, "recovery", "recovery complete (transfer finished)")
		return
	case m.catchingUp:
		m.catchingUp = false
		m.goal = m.log.LearnedFrontier()
	case m.goal == 0:
		return
	}
	m.watch(ctx, false)
}
