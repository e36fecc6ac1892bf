// Package rsm provides the replicated-state-machine plumbing shared by
// every agreement protocol in this repository: an instance-indexed learned
// log with in-order application, a replicated key-value state machine, and
// client session tracking for exactly-once replies.
//
// The paper's learners are "the actual long-term memory of the system"
// (Section 4.1); Log is that memory, and KV is the application state the
// examples replicate.
package rsm

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/seqwin"
	"consensusinside/internal/shard"
	"consensusinside/internal/trace"
	"consensusinside/internal/wire"
)

// Applier is the replicated state machine: Execute runs one committed
// command and returns its result. The commit step (Dedup.Commit) hands
// it each command of an applied value in place, in log order, once the
// session table has ruled out a re-execution — so state machines stay
// per-command and never see a batch.
type Applier interface {
	Execute(cmd msg.Command) string
}

// KV is a replicated string map. It implements Applier.
// The zero value is not usable; create one with NewKV.
type KV struct {
	data map[string]string
}

// NewKV returns an empty key-value state machine.
func NewKV() *KV { return &KV{data: make(map[string]string)} }

// Execute runs one committed command. It implements Applier.
func (kv *KV) Execute(cmd msg.Command) string {
	switch cmd.Op {
	case msg.OpPut:
		kv.data[cmd.Key] = cmd.Val
		return cmd.Val
	case msg.OpGet:
		return kv.data[cmd.Key]
	default: // noop and unknown ops mutate nothing
		return ""
	}
}

// Apply executes a single-command value's command (a batched value's
// Cmd is zero and mutates nothing).
func (kv *KV) Apply(v msg.Value) string { return kv.Execute(v.Cmd) }

// Get reads a key directly — the "local read" path of relaxed-consistency
// reads (Section 7.5: "For more relaxed read consistency guarantees,
// local reads may be performed even with non-blocking protocols").
func (kv *KV) Get(key string) (string, bool) {
	v, ok := kv.data[key]
	return v, ok
}

// Len reports the number of keys.
func (kv *KV) Len() int { return len(kv.data) }

// wireState is the state image's layout: the key count, then each key
// and its value. The map is walked in sorted key order on the way out,
// so equal states encode to equal bytes (snapshot tests and dedupe rely
// on determinism), and built pair by pair on the way in.
func wireState(c *wire.Codec, data *map[string]string) {
	var keys []string
	if !c.Reading() {
		keys = make([]string, 0, len(*data))
		size := 0
		for k, v := range *data {
			keys = append(keys, k)
			size += len(k) + len(v)
		}
		sort.Strings(keys)
		c.Grow(size + 3*(1+2*len(keys))) // a count prefix is rarely over 3 bytes
	}
	n := c.Len(len(keys))
	if c.Reading() {
		*data = make(map[string]string, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var k, v string
		if !c.Reading() {
			k, v = keys[i], (*data)[keys[i]]
		}
		c.String(&k)
		c.String(&v)
		if c.Reading() {
			(*data)[k] = v
		}
	}
}

// SnapshotState encodes the whole map deterministically. It implements
// snapshot.State.
func (kv *KV) SnapshotState() []byte {
	c := wire.NewAppender(nil)
	wireState(&c, &kv.data)
	return c.Buf()
}

// RestoreState replaces the map with a SnapshotState image; a malformed
// image leaves the map as it was. It implements snapshot.State.
func (kv *KV) RestoreState(data []byte) error {
	var m map[string]string
	c := wire.NewReader(data)
	wireState(&c, &m)
	if err := c.Finish(); err != nil {
		return fmt.Errorf("rsm: kv state: %w", err)
	}
	kv.data = m
	return nil
}

// Entry is one learned (instance, value) pair.
type Entry struct {
	Instance int64
	Value    msg.Value
}

// Committer commits the values a Log applies, one instance at a time in
// instance order: Commit runs value's commands back to back — nothing
// from another instance interleaves — stores command i's result in
// results[i] (len(results) == value.Len()) and reports how many
// commands it executed. Dedup is the committer every replica uses.
type Committer interface {
	Commit(instance int64, value msg.Value, results []string) int
}

// Log is the learner's memory: learned values by instance number,
// committed strictly in instance order with no gaps.
//
// The retained history can be bounded: CompactTo drops applied entries
// below a compaction floor — the state machine has applied them, and a
// snapshot of it (internal/snapshot) stands in for them — and
// InstallSnapshot seeds a recovering log directly at a snapshot's
// frontier. Instances below Floor are decided but no longer
// individually retrievable — callers that would have served them
// (prepare answers, catch-up) must fall back to shipping a snapshot
// instead.
type Log struct {
	learned map[int64]msg.Value
	applied int64 // next instance to apply
	floor   int64 // lowest retained instance; below it only the applied state remains
	commit  Committer
	history []Entry // applied suffix [floor, applied), for audits and consistency checks
	onApply func(e Entry, results []string)

	// results is reused across applications, so applying an instance —
	// batched or not — allocates nothing in steady state (see OnApply's
	// contract: results is only valid for the duration of the callback).
	// It grows to the largest batch ever applied.
	results []string

	// Lifecycle tracing (internal/trace): Learn stamps the decide stage
	// and advance stamps the apply stage of sampled commands. tracer is
	// nil (permanently off) unless SetTracer attached one; traceNow
	// supplies the owning node's virtual clock lazily, because the log
	// is built before the node's runtime context exists.
	tracer   *trace.Tracer
	traceNow func() time.Duration
}

// NewLog builds a log committing through c (which may be nil for
// protocols measured without application state: every result is then
// empty).
func NewLog(c Committer) *Log {
	return &Log{
		learned: make(map[int64]msg.Value),
		commit:  c,
	}
}

// SetTracer attaches a command-lifecycle tracer: Learn stamps the
// decide stage and in-order application stamps the apply stage of
// sampled commands. now supplies the owning node's virtual clock at
// mark time (engines pass a closure over their stored context). A nil
// tracer keeps tracing off.
func (l *Log) SetTracer(t *trace.Tracer, now func() time.Duration) {
	l.tracer, l.traceNow = t, now
}

// traceMark stamps stage for every command of v (first stamp wins; the
// tracer drops unsampled seqs after one modulo).
func (l *Log) traceMark(stage trace.Stage, v msg.Value) {
	if v.Client == msg.Nobody {
		return // gap-filling noop
	}
	now := l.traceNow()
	if len(v.Batch) == 0 {
		l.tracer.Mark(v.Client, v.Seq, stage, now)
		return
	}
	for _, be := range v.Batch {
		l.tracer.Mark(v.Client, be.Seq, stage, now)
	}
}

// OnApply registers a callback invoked after each in-order commit — the
// hook the replica shell answers clients from. results holds one entry
// per command of the instance's value, in batch order (a single-command
// value yields one result). The slice is only valid for the duration of
// the callback: the log reuses its backing storage across instances.
func (l *Log) OnApply(fn func(e Entry, results []string)) { l.onApply = fn }

// Learn records that instance chose value. Learning the same value twice
// is idempotent; learning a *different* value for an applied or recorded
// instance indicates a protocol safety violation and panics loudly rather
// than diverging replicas silently.
func (l *Log) Learn(instance int64, value msg.Value) {
	if prev, ok := l.learned[instance]; ok {
		if !prev.Equal(value) {
			panic(fmt.Sprintf("rsm: instance %d learned two values: %+v then %+v", instance, prev, value))
		}
		return
	}
	if instance < l.floor {
		// Decided and compacted away: the value itself is gone, so the
		// agreement check is no longer possible. The snapshot that moved
		// the floor captured whatever this instance decided.
		return
	}
	if instance < l.applied {
		// Already applied; verify agreement against the retained entry,
		// which sits at instance - floor (the history is dense).
		if !l.history[instance-l.floor].Value.Equal(value) {
			panic(fmt.Sprintf("rsm: applied instance %d re-learned different value", instance))
		}
		return
	}
	if l.tracer.Enabled() {
		l.traceMark(trace.StageDecide, value)
	}
	l.learned[instance] = value
	l.advance()
}

func (l *Log) advance() {
	for {
		v, ok := l.learned[l.applied]
		if !ok {
			return
		}
		delete(l.learned, l.applied)
		e := Entry{Instance: l.applied, Value: v}
		// A batched value applies atomically: the committer runs all its
		// commands here, back to back, before the instance counter moves,
		// and each still gets its own result and session record.
		n := v.Len()
		if cap(l.results) < n {
			l.results = make([]string, n)
		}
		results := l.results[:n]
		if l.commit != nil {
			l.commit.Commit(e.Instance, v, results)
		} else {
			clear(results)
		}
		if l.tracer.Enabled() {
			l.traceMark(trace.StageApply, v)
		}
		l.history = append(l.history, e)
		l.applied++
		if l.onApply != nil {
			l.onApply(e, results)
		}
	}
}

// NextToApply reports the lowest unapplied instance (the first gap).
func (l *Log) NextToApply() int64 { return l.applied }

// LearnedFrontier reports the lowest instance above every applied and
// learned-but-unapplied instance: everything below it is decided (or a
// pending gap a proposer already owns), so fresh proposals must start
// at or above it.
func (l *Log) LearnedFrontier() int64 {
	f := l.applied
	for in := range l.learned {
		if in >= f {
			f = in + 1
		}
	}
	return f
}

// Learned reports whether instance has been learned (applied or pending).
func (l *Log) Learned(instance int64) bool {
	if instance < l.applied {
		return true
	}
	_, ok := l.learned[instance]
	return ok
}

// Applied reports how many instances have been applied (instances are
// dense from 0, so this counts compacted instances too).
func (l *Log) Applied() int { return int(l.applied) }

// Retained reports how many applied entries the log still holds — the
// gauge compaction bounds (Applied minus everything below Floor).
func (l *Log) Retained() int { return len(l.history) }

// Floor reports the compaction floor: the lowest instance whose entry
// is still retained. Everything below it lives on only in the state
// machine (and in a snapshot of it, for a peer that asks).
func (l *Log) Floor() int64 { return l.floor }

// History returns a copy of the retained applied suffix ([Floor,
// NextToApply)), in order.
func (l *Log) History() []Entry {
	out := make([]Entry, len(l.history))
	copy(out, l.history)
	return out
}

// start locates the first retained entry with instance >= from. The
// retained history is dense (instance = Floor + index), so this is
// arithmetic, not a scan.
func (l *Log) start(from int64) int {
	if from <= l.floor {
		return 0
	}
	if from >= l.applied {
		return len(l.history)
	}
	return int(from - l.floor)
}

// Since returns the applied entries with instance >= from, in order
// (clamped to the compaction floor — a caller asking below it must ship
// the snapshot instead; compare from against Floor to detect that).
// Acceptors use it to answer prepares from lagging proposers: an applied
// value is decided, so handing it back as an accepted proposal is always
// safe and prevents the new leader from proposing a conflicting value.
//
// Since copies the whole suffix. Hot paths and bounded consumers
// (catch-up chunking) should use Scan, which iterates in place.
func (l *Log) Since(from int64) []Entry {
	out := make([]Entry, len(l.history)-l.start(from))
	copy(out, l.history[l.start(from):])
	return out
}

// Scan visits the retained applied entries with instance >= from, in
// order, without copying; it stops early when fn returns false. This is
// the allocation-free form of Since for callers that cap how much they
// consume (catch-up serving) or that merge entries into their own
// buffers (prepare answers).
func (l *Log) Scan(from int64, fn func(Entry) bool) {
	for _, e := range l.history[l.start(from):] {
		if !fn(e) {
			return
		}
	}
}

// CompactTo raises the compaction floor to floor (clamped to the
// applied frontier; the floor never regresses) and discards the
// retained entries below it, returning how many were dropped. The
// dropped values are unrecoverable from this log afterwards; what
// stands in for them is the live state machine, which has applied every
// one and can be snapshotted for a peer that still needs them — so
// compact only a log whose applier can be (snapshot.Manager's guard).
func (l *Log) CompactTo(floor int64) int {
	if floor > l.applied {
		floor = l.applied
	}
	if floor <= l.floor {
		return 0
	}
	n := l.start(floor)
	// Move the suffix down rather than re-slicing, so the backing array
	// does not pin the dropped entries' values alive.
	kept := copy(l.history, l.history[n:])
	for i := kept; i < len(l.history); i++ {
		l.history[i] = Entry{}
	}
	l.history = l.history[:kept]
	l.floor = floor
	return n
}

// InstallSnapshot seeds a (recovering) log from a snapshot that covers
// instances [0, lastApplied]: the applied frontier and compaction floor
// jump to lastApplied+1 and any retained or learned entries below it are
// discarded without (re-)application — the snapshot's state image
// already reflects them. Entries learned above the frontier are applied
// as usual. It is a no-op if the log has already applied past the
// snapshot.
func (l *Log) InstallSnapshot(lastApplied int64) {
	next := lastApplied + 1
	if next <= l.applied {
		return
	}
	l.applied = next
	l.floor = next
	l.history = l.history[:0]
	for in := range l.learned {
		if in < next {
			delete(l.learned, in)
		}
	}
	l.advance()
}

// PendingInstances lists learned-but-unapplied instances in ascending
// order (waiting on gaps).
func (l *Log) PendingInstances() []int64 {
	out := make([]int64, 0, len(l.learned))
	for i := range l.learned {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ScanPending visits the learned-but-unapplied entries in ascending
// instance order; it stops early when fn returns false. A learner only
// records decided values, so these are safe to hand to a catching-up
// peer even though this log has not applied them yet (a gap below is
// what is holding them).
func (l *Log) ScanPending(fn func(Entry) bool) {
	for _, in := range l.PendingInstances() {
		if !fn(Entry{Instance: in, Value: l.learned[in]}) {
			return
		}
	}
}

// DefaultSessionWindow is how many committed results a session retains
// per client below its contiguous frontier, for replaying replies to
// late retries. It should comfortably exceed any client's pipeline
// depth so a live retry can still be answered with its original result.
const DefaultSessionWindow = 1024

// CheckPipeline validates a pipelined client's window and batching
// knob — the one rule set StartKV, cluster.Build and workload.NewClient
// share, each passing its own error prefix as who. window is the
// effective depth (callers replace zero with their default first; a
// negative one is an error, not a default). A window deeper than
// DefaultSessionWindow could let a pruned entry masquerade as a
// committed one and drop an acknowledged command; the adaptive batcher
// draws its batches from the window and has nothing to adapt within a
// closed loop.
func CheckPipeline(who string, window int, adaptive bool) error {
	switch {
	case window < 1:
		return fmt.Errorf("%s: pipeline window %d is not positive", who, window)
	case window > DefaultSessionWindow:
		return fmt.Errorf("%s: pipeline window %d exceeds the replicas' session window %d", who, window, DefaultSessionWindow)
	case adaptive && window < 2:
		return fmt.Errorf("%s: adaptive batching needs a pipeline window of at least 2, got %d", who, window)
	}
	return nil
}

// laneRingSlots is a lane's initial ring capacity. A client that
// reports its ack floor keeps about two pipeline windows of results
// retained (the floor trails the commits by one request), so the
// default depths fit without growing; a lane of a deeper pipeline, or
// of a client that never acks, doubles a few times while it warms up.
const laneRingSlots = 64

// Sessions deduplicates client commands for exactly-once replies: each
// client issues strictly increasing sequence numbers, and a retry of an
// already-committed command must be answered with the original result
// rather than re-executed.
//
// Pipelined clients keep a window of commands in flight, and retries can
// commit out of order relative to newer sequence numbers, so the table
// tracks per-(client, seq) results individually. The floor is the
// client's contiguous commit frontier — every seq at or below it has
// actually committed, never merely aged out — so "seq <= floor" is an
// exact committed-ness test even when one old command stays outstanding
// while arbitrarily many newer ones commit. Results far below the floor
// are pruned to bound memory; a retry of one of those is suppressed
// without its stored result (it committed, but the result is forgotten).
//
// A client of a sharded deployment runs one pipelined window per shard
// and tags each window's sequence numbers with the shard index in the
// high bits (shard.TagSeq). The table keys its state by (client, tag),
// so every lane gets its own contiguous frontier and retention window
// over its own dense local sequence space — the frontier arithmetic
// stays exact, and lanes can never alias. Untagged traffic has tag
// zero, so single-group deployments are unchanged.
//
// Because a lane's sequence numbers are dense, its per-command state is
// a seqwin.Window — a ring indexed by seq — not a map: one slot per
// sequence number from the prune frontier up, holding the committed
// result and the origin mark (MarkOrigin) side by side.
type Sessions struct {
	window  uint64
	clients map[laneKey]*clientSession

	// growths counts ring doublings across all lanes (see Growths).
	growths atomic.Int64

	// One-entry lane cache. The commit step resolves a lane for the
	// instance's ack and once per command, and whole batches share one
	// lane, so the last lane resolved is overwhelmingly the next one
	// asked for; caching it turns all but the first resolution of a
	// batch into a pointer compare instead of a map lookup. Lanes are
	// never removed (only Restore rebuilds the map, and it invalidates
	// the cache), so the cached pointer cannot dangle.
	lastKey laneKey
	lastCS  *clientSession

	// one is Screen's result for a single-command request, valid until
	// the next Screen: a request's own entries slice exists only for a
	// batch.
	one [1]msg.BatchEntry

	// owed is Owed's list, rebuilt by every Dedup.Commit.
	owed []int
}

// laneKey identifies one client lane: the client node plus the shard
// tag its sequence numbers carry (zero for unsharded traffic).
type laneKey struct {
	client msg.NodeID
	base   uint64
}

// clientSession is the per-lane state; every sequence number in it is
// lane-local (shard tag stripped), dense, and starts at 1.
type clientSession struct {
	// entries covers the seqs above the prune frontier: its Low is
	// pruned+1 (zero until the first prune, so a seq of 0 from untagged
	// test traffic still has a slot).
	entries seqwin.Window[sessionSlot]
	maxSeq  uint64
	floor   uint64 // contiguous commit frontier: all seqs <= floor committed
	pruned  uint64 // highest seq whose stored result was discarded
	ack     uint64 // client's lowest outstanding seq (0 = unknown)
}

// sessionSlot is what a lane knows about one sequence number. A slot
// exists once the command committed or was marked as originating here,
// whichever came first.
type sessionSlot struct {
	instance  int64
	result    string
	committed bool
	origin    bool // this replica owes the client the reply (MarkOrigin)
}

// NewSessions returns an empty session table with the default window.
func NewSessions() *Sessions { return NewSessionsWindow(DefaultSessionWindow) }

// NewSessionsWindow returns an empty session table retaining up to window
// committed commands per client.
func NewSessionsWindow(window int) *Sessions {
	if window < 1 {
		window = 1
	}
	return &Sessions{window: uint64(window), clients: make(map[laneKey]*clientSession)}
}

// Growths reports how many times a lane's ring had to double — beyond
// warm-up, the sign that one old command stays outstanding (or
// unacknowledged) while newer ones keep committing past it. Safe from
// any goroutine.
func (s *Sessions) Growths() int64 { return s.growths.Load() }

func (s *Sessions) newLane() *clientSession {
	return &clientSession{entries: seqwin.New[sessionSlot](0, laneRingSlots, &s.growths)}
}

// lane resolves the session state for the lane that seq belongs to,
// creating it when create is set. All internal bookkeeping runs on the
// lane-local sequence number (the tag stripped), which is dense and
// starts at 1 — the shape the frontier arithmetic requires.
func (s *Sessions) lane(client msg.NodeID, seq uint64, create bool) (*clientSession, uint64) {
	base := shard.SeqBase(seq)
	key := laneKey{client: client, base: base}
	if s.lastCS != nil && s.lastKey == key {
		return s.lastCS, seq - base
	}
	cs, ok := s.clients[key]
	if !ok && create {
		cs = s.newLane()
		s.clients[key] = cs
	}
	if cs != nil {
		s.lastKey, s.lastCS = key, cs
	}
	return cs, seq - base
}

// Done records the committed result for client's command seq, advances
// the contiguous commit frontier of seq's lane, and prunes results far
// below it. The first commit wins: a seq already recorded, or below the
// prune frontier, is left as it is.
func (s *Sessions) Done(client msg.NodeID, seq uint64, instance int64, result string) {
	cs, seq := s.lane(client, seq, true)
	if e := cs.entries.Slot(seq); e != nil && !e.committed {
		cs.record(e, seq, instance, result, s.window)
	}
}

// commit is the per-command commit rule, resolving seq's slot once. A
// command below the lane's prune frontier committed and its result was
// discarded: it reports "" and does not run. A command already recorded
// reports its stored result and does not run. Any other command runs on
// sm and its result is recorded. In every case the slot's origin mark
// is taken: owed reports that this replica admitted the command from
// the client and owes it the reply.
func (s *Sessions) commit(client msg.NodeID, seq uint64, instance int64, cmd msg.Command, sm Applier) (result string, ran, owed bool) {
	cs, seq := s.lane(client, seq, true)
	e := cs.entries.Slot(seq)
	if e == nil {
		return "", false, false
	}
	if e.committed {
		result = e.result
	} else {
		result, ran = sm.Execute(cmd), true
		// Recording may prune the slot at once (the client already
		// acknowledged seq); the pruned slot is zeroed, mark included.
		cs.record(e, seq, instance, result, s.window)
	}
	owed, e.origin = e.origin, false
	return result, ran, owed
}

// record stores seq's committed result in its slot e, advances the
// lane's contiguous commit frontier and prunes results far below it.
func (cs *clientSession) record(e *sessionSlot, seq uint64, instance int64, result string, window uint64) {
	e.instance, e.result, e.committed = instance, result, true
	if seq > cs.maxSeq {
		cs.maxSeq = seq
	}
	// Advance the frontier only over contiguously committed seqs: a
	// gap (an old command still outstanding) pins the floor, no matter
	// how many newer seqs commit, so Seen never lies about it.
	for {
		if next := cs.entries.Ptr(cs.floor + 1); next == nil || !next.committed {
			break
		}
		cs.floor++
	}
	cs.prune(window)
}

// Owed lists the commands of the value the last Dedup.Commit committed
// whose origin mark it took, by index in the value and in batch order:
// the replies this replica owes. It is empty on a replica that admitted
// none of them. Valid until the next Commit.
func (s *Sessions) Owed() []int { return s.owed }

// ClientAck records the client's lowest still-outstanding seq within
// one lane, carried on its requests: results below it were delivered
// and can be discarded; results at or above it are retained for reply
// replay no matter how old, closing the window-retention race where a
// slow retry of a committed command would otherwise find its result
// pruned. The ack only ever prunes the lane its tag names.
func (s *Sessions) ClientAck(client msg.NodeID, ack uint64) {
	if ack == 0 {
		return
	}
	cs, ack := s.lane(client, ack, false)
	if cs == nil || ack == 0 {
		return
	}
	if ack > cs.ack {
		cs.ack = ack
		cs.prune(s.window)
	}
}

// prune discards stored results the client can no longer ask for:
// everything the client acknowledged when known, otherwise everything
// older than the retention window — but never above the contiguous
// frontier (entries there are what keeps Seen exact). All bounds are
// monotone, so pruning is amortized O(1) per commit.
func (cs *clientSession) prune(window uint64) {
	var cut uint64
	if cs.ack > 0 {
		cut = cs.ack - 1
	} else if cs.maxSeq > window {
		cut = cs.maxSeq - window
	}
	if cut > cs.floor {
		cut = cs.floor
	}
	if cut > cs.pruned {
		cs.entries.Advance(cut + 1)
		cs.pruned = cut
	}
}

// committed returns seq's slot when the command committed and its
// result is still retained.
func (cs *clientSession) committed(seq uint64) *sessionSlot {
	if e := cs.entries.Ptr(seq); e != nil && e.committed {
		return e
	}
	return nil
}

// Seen reports whether client's command seq is known to have committed:
// either its result is still retained, or it is at or below its lane's
// contiguous commit frontier (committed, result possibly discarded).
func (s *Sessions) Seen(client msg.NodeID, seq uint64) bool {
	cs, seq := s.lane(client, seq, false)
	if cs == nil {
		return false
	}
	if seq > 0 && seq <= cs.floor {
		// The frontier only covers contiguously committed seqs, so this
		// is exact; real seqs start at 1.
		return true
	}
	return cs.committed(seq) != nil
}

// MarkOrigin records that this replica took client's command seq from
// the client — proposed it or queued it for a proposal — and so owes
// the reply once it commits. It reports whether the mark is new: false
// means the request is a retry of one already proposed or queued here,
// which must not be proposed a second time. The mark lives in the
// command's session slot and is dropped with it (the commit step,
// TakeOrigin, pruning).
//
// A seq at or below the lane's prune frontier has no slot to mark. It
// cannot reach here from an engine's request path: Screen answers such
// a retry itself. MarkOrigin reports false for it.
func (s *Sessions) MarkOrigin(client msg.NodeID, seq uint64) bool {
	cs, seq := s.lane(client, seq, true)
	e := cs.entries.Slot(seq)
	if e == nil || e.origin {
		return false
	}
	e.origin = true
	return true
}

// TakeOrigin clears client's command seq's origin mark and reports
// whether it was set: a replica that hands a queued request to another
// leader calls it to give the reply duty away. (The commit step takes
// the mark of every command it commits.)
func (s *Sessions) TakeOrigin(client msg.NodeID, seq uint64) bool {
	cs, seq := s.lane(client, seq, false)
	if cs == nil {
		return false
	}
	e := cs.entries.Ptr(seq)
	if e == nil || !e.origin {
		return false
	}
	e.origin = false
	return true
}

// screen answers one request entry from the table when it can: with
// the stored result when the command committed and the result is
// retained, and with an empty result when the command sits at or below
// the lane's prune frontier — it committed, the client acknowledged it
// (or it aged out of the retention window), and no slot is left to
// carry a result or an origin mark, so the retry is answered here
// rather than proposed again only to be suppressed at apply time.
func (s *Sessions) screen(client msg.NodeID, seq uint64, reply func(msg.ClientReply)) bool {
	cs, local := s.lane(client, seq, false)
	if cs == nil {
		return false
	}
	if e := cs.committed(local); e != nil {
		reply(msg.ClientReply{Seq: seq, Instance: e.instance, OK: true, Result: e.result})
		return true
	}
	if local > 0 && local <= cs.pruned {
		reply(msg.ClientReply{Seq: seq, OK: true})
		return true
	}
	return false
}

// Screen filters an incoming client request against the session table:
// it records the request's acknowledgement floor, answers every entry
// that already committed (with its stored result, or an empty one when
// the result was pruned) through reply, and returns the entries that
// still need agreement, in order. Engines call it first thing in their
// client-request path; a nil return means the whole request was served
// from the table.
// In the dominant case — a batched request none of whose entries have
// committed before — Screen returns the request's own batch slice
// without allocating; the client handed that slice over with the
// request and nothing mutates it afterwards, so sharing it with the
// proposal is safe. A single-command request's entry comes back in a
// one-element scratch the table owns, valid until the next Screen:
// callers fold it into a msg.NewValue or msg.NewRequest, which copy the
// single form, and keep no reference to the slice.
func (s *Sessions) Screen(req msg.ClientRequest, reply func(msg.ClientReply)) []msg.BatchEntry {
	s.ClientAck(req.Client, req.Ack)
	if len(req.Batch) == 0 {
		if s.screen(req.Client, req.Seq, reply) {
			return nil
		}
		s.one[0] = msg.BatchEntry{Seq: req.Seq, Cmd: req.Cmd}
		return s.one[:]
	}
	var fresh []msg.BatchEntry
	served := false
	for i, be := range req.Batch {
		if s.screen(req.Client, be.Seq, reply) {
			if !served {
				served = true
				if i > 0 {
					fresh = append(make([]msg.BatchEntry, 0, len(req.Batch)-1), req.Batch[:i]...)
				}
			}
			continue
		}
		if served {
			fresh = append(fresh, be)
		}
	}
	if !served {
		return req.Batch
	}
	return fresh
}

// Unseen returns v's entries not known to have committed, in order, in
// a slice of their own — the per-command form of the "skip if Seen"
// check engines run before re-proposing a queued or carried-over
// command.
func (s *Sessions) Unseen(v msg.Value) []msg.BatchEntry {
	var out []msg.BatchEntry
	for i := range v.Len() {
		if be := v.EntryAt(i); !s.Seen(v.Client, be.Seq) {
			out = append(out, be)
		}
	}
	return out
}

// LaneEntry is one retained committed result in a lane's export: the
// lane-local sequence number, the instance that committed it, and the
// stored result.
type LaneEntry struct {
	Seq      uint64
	Instance int64
	Result   string
}

// LaneState is the exported form of one client lane — everything a
// snapshot must carry so a restored session table screens replayed
// pre-snapshot requests exactly as the original would have: the
// contiguous commit frontier (Floor), the prune and ack bookkeeping,
// and the retained results themselves.
type LaneState struct {
	Client  msg.NodeID
	Base    uint64 // shard tag base (shard.TagSeq(idx, 0)); 0 unsharded
	Floor   uint64
	Pruned  uint64
	Ack     uint64
	MaxSeq  uint64
	Entries []LaneEntry // ascending lane-local seq
}

// Export captures every lane's state in a deterministic order (by
// client, then shard-tag base; entries by ascending seq), for snapshot
// encoding. The returned slices are copies. Origin marks are not
// exported — which replica owes a reply is local, not replicated, state
// — and neither is a lane that so far holds nothing but marks.
func (s *Sessions) Export() []LaneState {
	out := make([]LaneState, 0, len(s.clients))
	for key, cs := range s.clients {
		lane := LaneState{
			Client: key.client,
			Base:   key.base,
			Floor:  cs.floor,
			Pruned: cs.pruned,
			Ack:    cs.ack,
			MaxSeq: cs.maxSeq,
		}
		lane.Entries = make([]LaneEntry, 0, cs.entries.Len())
		for seq, e := range cs.entries.All() {
			if e.committed {
				lane.Entries = append(lane.Entries, LaneEntry{Seq: seq, Instance: e.instance, Result: e.result})
			}
		}
		if cs.maxSeq == 0 && len(lane.Entries) == 0 {
			continue // nothing ever committed here
		}
		out = append(out, lane)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Client != out[b].Client {
			return out[a].Client < out[b].Client
		}
		return out[a].Base < out[b].Base
	})
	return out
}

// Restore replaces the table's state with an Export's lanes (the
// snapshot-restore half of Export). The retention window is the
// receiver's own — it is configuration, not replicated state — and so
// are the origin marks: a command this replica still owes a reply for
// keeps its mark across the restore, provided the restored lane has not
// pruned past it.
func (s *Sessions) Restore(lanes []LaneState) {
	old := s.clients
	s.clients = make(map[laneKey]*clientSession, len(lanes))
	s.lastKey, s.lastCS = laneKey{}, nil // the cached lane no longer exists
	for _, lane := range lanes {
		cs := s.newLane()
		cs.floor, cs.pruned, cs.ack, cs.maxSeq = lane.Floor, lane.Pruned, lane.Ack, lane.MaxSeq
		if lane.Pruned > 0 {
			cs.entries.Advance(lane.Pruned + 1)
		}
		for _, e := range lane.Entries {
			if slot := cs.entries.Slot(e.Seq); slot != nil {
				slot.instance, slot.result, slot.committed = e.Instance, e.Result, true
			}
		}
		s.clients[laneKey{client: lane.Client, base: lane.Base}] = cs
	}
	for key, cs := range old {
		for seq, e := range cs.entries.All() {
			if e.origin {
				s.MarkOrigin(key.client, key.base+seq)
			}
		}
	}
}

// Dedup is the commit step every replica runs, under all five engines:
// it commits each command of a value at most once per replica, through
// the session table, so a command that already committed under another
// instance (a client retry racing a leader change) is answered with its
// stored result instead of running again. It implements Committer.
type Dedup struct {
	Sessions *Sessions
	Inner    Applier
}

// Commit implements Committer. A gap-filling no-op commits nothing. For
// any other value it records the client's ack floor once — the committed
// value replicates it to every learner, keeping session retention
// aligned on replicas the client never contacted directly — and then
// runs the commit rule on each command in place (Sessions.commit). The
// origin marks it takes are left in Sessions.Owed.
func (d Dedup) Commit(instance int64, v msg.Value, results []string) int {
	s := d.Sessions
	s.owed = s.owed[:0]
	if v.Client == msg.Nobody {
		clear(results)
		return 0
	}
	s.ClientAck(v.Client, v.Ack)
	ran := 0
	for i := range results {
		be := v.EntryAt(i)
		result, fresh, owed := s.commit(v.Client, be.Seq, instance, be.Cmd, d.Inner)
		results[i] = result
		if fresh {
			ran++
		}
		if owed {
			s.owed = append(s.owed, i)
		}
	}
	return ran
}
