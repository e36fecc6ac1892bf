// Package trace implements sampled per-command lifecycle tracing: the
// stages a command passes through between entering a proposer's queue
// and its reply retiring at the client
//
//	enqueue → propose (batch admission) → wire-send → decide → apply → reply
//
// are stamped in both virtual time (the runtime's Context.Now clock)
// and wall-clock time, per sampled command, into a bounded ring of
// completed samples plus per-stage latency histograms. The benchmark
// (bench/, stage.*) reads the histograms for stage breakdowns; the
// /debug surface serves the ring.
//
// Sampling is deterministic and coordination-free: a command is traced
// iff its sequence number satisfies seq % interval == 0, so every layer
// (bridge, transport, log, client) decides independently with no shared
// lookup — an unsampled command costs exactly one atomic load and one
// modulo at each hook. With the interval at 0 the tracer is off and
// every hook is a single atomic load; a nil *Tracer behaves as off, so
// call sites never need nil checks.
//
// Stamps are first-wins: in a replicated group several nodes reach the
// decide and apply stages for the same command, and the first stamp
// recorded (the earliest replica to get there) is the one kept. Stage
// deltas are clamped at zero — virtual clocks on the real runtimes are
// per-node (each node measures since its own start), so cross-node
// virtual deltas can be skewed; the tracer therefore computes its
// histograms from its own single wall clock unless built with
// VirtualClock (the deterministic simulator, where one global clock
// orders every stamp and wall time measures host speed instead).
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
)

// Stage identifies one lifecycle stage of a traced command.
type Stage int

// The stages, in lifecycle order.
const (
	StageEnqueue Stage = iota // entered the proposer-side queue (bridge/client)
	StagePropose              // admitted to the pipeline window and batched
	StageWire                 // the carrying request hit the transport send path
	StageDecide               // the command's instance was learned/decided
	StageApply                // applied to the state machine
	StageReply                // the reply retired at the proposer/client
	NumStages
)

var stageNames = [NumStages]string{
	"enqueue", "propose", "wire", "decide", "apply", "reply",
}

// String reports the stage's wire-stable lowercase name.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Sample is one traced command's completed lifecycle: per-stage
// timestamps on both clocks. A zero stamp (other than a legitimately
// zero enqueue on the simulator's clock) means the stage was never
// observed — e.g. the wire stage on a deployment with no transport hook.
type Sample struct {
	Client msg.NodeID `json:"client"`
	Seq    uint64     `json:"seq"`
	// Virtual stamps are the runtime's Context.Now values: global
	// virtual time on the simulator, per-node time-since-start on the
	// real runtimes.
	Virtual [NumStages]time.Duration `json:"virtual_ns"`
	// Wall stamps are time since the tracer's construction on the
	// tracer's own monotonic clock — one clock for all nodes of an
	// in-process deployment.
	Wall [NumStages]time.Duration `json:"wall_ns"`
}

// Bounds for the tracer's state. ActiveCap bounds commands in flight
// between Begin and Finish (beyond it new spans are dropped and
// counted); RingCap bounds the completed samples kept for /debug.
const (
	ActiveCap = 1024
	RingCap   = 256
)

type spanKey struct {
	client msg.NodeID
	seq    uint64
}

// Tracer records sampled command lifecycles. One tracer is shared by
// every node of a deployment (all shards of a KV, all replicas of a
// simulated cluster); all methods are safe for concurrent use. The nil
// tracer is valid and permanently off.
type Tracer struct {
	interval atomic.Int64 // sampling interval; 0 = off
	start    time.Time    // wall epoch for Wall stamps
	virtual  bool         // histograms from Virtual stamps instead of Wall

	mu       sync.Mutex
	active   map[spanKey]*Sample
	free     []*Sample // recycled spans, bounded by ActiveCap
	ring     [RingCap]Sample
	ringLen  int
	ringPos  int
	started  int64
	finished int64
	dropped  int64 // Begins refused because the active table was full

	stages [NumStages]metrics.Histogram // per-stage deltas (stage i minus previous observed stage)
	total  metrics.Histogram            // reply minus enqueue
}

// Option configures a Tracer.
type Option func(*Tracer)

// VirtualClock makes the tracer compute its histograms from the Virtual
// stamps instead of its own wall clock — correct only where one global
// clock stamps every stage (the deterministic simulator).
func VirtualClock() Option { return func(t *Tracer) { t.virtual = true } }

// New builds a tracer sampling one command in every interval (by the
// seq % interval == 0 rule). Interval 0 builds the tracer switched off;
// SetInterval can turn it on later.
func New(interval int, opts ...Option) *Tracer {
	t := &Tracer{start: time.Now(), active: make(map[spanKey]*Sample)}
	t.interval.Store(int64(interval))
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether any sampling is on. Nil-safe; this is the
// cheap guard every hook checks first.
func (t *Tracer) Enabled() bool { return t != nil && t.interval.Load() > 0 }

// Sampled reports whether the command with sequence number seq is
// traced. Nil-safe; one atomic load and one modulo.
func (t *Tracer) Sampled(seq uint64) bool {
	if t == nil {
		return false
	}
	n := t.interval.Load()
	return n > 0 && seq%uint64(n) == 0
}

// SetInterval changes the sampling interval (0 switches tracing off).
func (t *Tracer) SetInterval(n int) {
	if t != nil {
		t.interval.Store(int64(n))
	}
}

// Interval reports the current sampling interval.
func (t *Tracer) Interval() int {
	if t == nil {
		return 0
	}
	return int(t.interval.Load())
}

// Clock reports the tracer's wall clock: monotonic time since New.
// Callers that observe a stage before they know the command's seq (the
// bridge stamps enqueue at queue entry, admission happens later) stamp
// with Clock and hand the value to Begin.
func (t *Tracer) Clock() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Begin opens a span for a sampled command, recording its enqueue
// stamps (observed earlier, at queue entry) and its propose stamps
// (now). Callers check Sampled first. If the same key is already
// active (a client restarted its sequence space), the existing span
// absorbs the stamps first-wins.
func (t *Tracer) Begin(client msg.NodeID, seq uint64, enqVirtual, enqWall, nowVirtual time.Duration) {
	if !t.Sampled(seq) {
		return
	}
	wall := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	k := spanKey{client, seq}
	s := t.active[k]
	if s == nil {
		if len(t.active) >= ActiveCap {
			t.dropped++
			return
		}
		if n := len(t.free); n > 0 {
			s = t.free[n-1]
			t.free = t.free[:n-1]
			*s = Sample{}
		} else {
			s = new(Sample)
		}
		s.Client, s.Seq = client, seq
		t.active[k] = s
		t.started++
	}
	if enqWall == 0 {
		enqWall = wall // caller had no wall stamp at queue entry
	}
	stamp(s, StageEnqueue, enqVirtual, enqWall)
	stamp(s, StagePropose, nowVirtual, wall)
}

// Mark stamps one stage of a sampled command with the caller's virtual
// clock reading; the wall stamp is taken here on the tracer's clock.
// Unknown commands (not sampled, span dropped, or already finished) are
// ignored. First stamp per stage wins.
func (t *Tracer) Mark(client msg.NodeID, seq uint64, st Stage, virtual time.Duration) {
	if !t.Sampled(seq) {
		return
	}
	wall := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.active[spanKey{client, seq}]; s != nil {
		stamp(s, st, virtual, wall)
	}
}

// MarkWire stamps the wire-send stage for every sampled command an
// outgoing client request carries — the hook both transports' send
// paths call.
func (t *Tracer) MarkWire(req *msg.ClientRequest, virtual time.Duration) {
	if len(req.Batch) == 0 {
		t.Mark(req.Client, req.Seq, StageWire, virtual)
		return
	}
	for _, be := range req.Batch {
		t.Mark(req.Client, be.Seq, StageWire, virtual)
	}
}

// Finish stamps the reply stage and completes the span: stage-delta and
// end-to-end histograms absorb it and the sample enters the completed
// ring. Unknown commands are ignored.
func (t *Tracer) Finish(client msg.NodeID, seq uint64, virtual time.Duration) {
	if !t.Sampled(seq) {
		return
	}
	wall := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	k := spanKey{client, seq}
	s := t.active[k]
	if s == nil {
		return
	}
	stamp(s, StageReply, virtual, wall)
	delete(t.active, k)
	t.finished++

	stamps := &s.Wall
	if t.virtual {
		stamps = &s.Virtual
	}
	// Each observed stage's delta is measured against the previous
	// observed stage (unobserved stages are skipped, so e.g. a
	// deployment with no wire hook attributes the gap to decide). Wall
	// stamps are strictly positive whenever a stage was stamped, so a
	// zero wall stamp marks the stage unobserved.
	prev, havePrev := time.Duration(0), false
	for st := StageEnqueue; st < NumStages; st++ {
		if s.Wall[st] == 0 {
			continue
		}
		v := stamps[st]
		if havePrev {
			d := v - prev
			if d < 0 {
				d = 0
			}
			t.stages[st].Record(d)
		}
		prev, havePrev = v, true
	}
	if e, r := stamps[StageEnqueue], stamps[StageReply]; r >= e {
		t.total.Record(r - e)
	}

	t.ring[t.ringPos] = *s
	t.ringPos = (t.ringPos + 1) % RingCap
	if t.ringLen < RingCap {
		t.ringLen++
	}
	if len(t.free) < ActiveCap {
		t.free = append(t.free, s)
	}
}

func stamp(s *Sample, st Stage, virtual, wall time.Duration) {
	if s.Virtual[st] == 0 {
		s.Virtual[st] = virtual
	}
	if s.Wall[st] == 0 {
		s.Wall[st] = wall
	}
}

// StageStats summarizes one stage's delta histogram.
type StageStats struct {
	Stage string        `json:"stage"`
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Snapshot is a point-in-time copy of the tracer's aggregates: span
// accounting, per-stage breakdowns, and the most recent completed
// samples (oldest first).
type Snapshot struct {
	Interval int          `json:"interval"`
	Started  int64        `json:"started"`
	Finished int64        `json:"finished"`
	Dropped  int64        `json:"dropped"`
	Active   int          `json:"active"`
	Stages   []StageStats `json:"stages"`
	Total    StageStats   `json:"total"`
	Samples  []Sample     `json:"samples"`
}

func summarize(name string, h *metrics.Histogram) StageStats {
	return StageStats{
		Stage: name,
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}

// Snapshot captures the tracer's current state. Nil-safe (reports a
// zero snapshot).
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := Snapshot{
		Interval: int(t.interval.Load()),
		Started:  t.started,
		Finished: t.finished,
		Dropped:  t.dropped,
		Active:   len(t.active),
		Total:    summarize("total", &t.total),
	}
	for st := StageEnqueue; st < NumStages; st++ {
		out.Stages = append(out.Stages, summarize(st.String(), &t.stages[st]))
	}
	out.Samples = make([]Sample, 0, t.ringLen)
	for i := 0; i < t.ringLen; i++ {
		out.Samples = append(out.Samples, t.ring[(t.ringPos-t.ringLen+i+RingCap*2)%RingCap])
	}
	return out
}

// Histograms returns independent clones of the per-stage delta
// histograms and the end-to-end histogram, for aggregation into a
// metrics registry. Nil-safe (returns empty histograms).
func (t *Tracer) Histograms() (stages [NumStages]*metrics.Histogram, total *metrics.Histogram) {
	if t == nil {
		for st := range stages {
			stages[st] = &metrics.Histogram{}
		}
		return stages, &metrics.Histogram{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for st := range stages {
		stages[st] = t.stages[st].Clone()
	}
	return stages, t.total.Clone()
}
