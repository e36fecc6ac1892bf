// Package obs is the one stats surface: named counters and histograms
// in a Snapshot that merges, plus a bounded event log for rare events
// (leader changes, lease grants and expiries, recovery episodes,
// injected faults).
//
// The registry owns no counter. A subsystem records into whatever its
// hot path wants (the transport's and the snapshot manager's atomics,
// the read path's mutex-guarded struct, a client's occupancy counts)
// and has one Collect(*Snapshot) method that adds its current values
// under its own names; a deployment registers collectors as sources.
// Taking a snapshot is the only moment the registry touches a
// subsystem, and a subsystem's names are spelled in one place — beside
// its fields.
//
// Names are dot-separated, owner first: "wire.frames_out"
// (internal/transport), "read.local_reads" (internal/readpath),
// "snap.restores" (internal/snapshot), "session.ring_growths"
// (internal/replica), "batch.commands" and "bridge.*" (the clients),
// "trace.stage.decide" (AddTracer here, because internal/trace sits
// below this package), "go.sched_p99_us" (AddGoRuntime here: the
// process's Go runtime, once per deployment). Collect must be safe from
// any goroutine and must Add, never set: a deployment calls it once per
// replica, node or client and the values sum to service totals.
// Merging snapshots (per-shard, per-client, or per-process) adds
// counters, adds histograms' bucket counts and concatenates event
// tails — so a fleet of registries aggregates to the same totals, and
// the same percentiles, one global registry would have reported.
//
// The go.* names are the one exception: two percentiles and a
// process-wide total, which do not sum. They are right in one
// deployment's snapshot; a merge of snapshots taken in one process
// adds each process's value once per snapshot.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/trace"
)

// DefaultEventCap bounds an EventLog's ring.
const DefaultEventCap = 256

// Event is one rare, discrete occurrence worth a timeline entry.
type Event struct {
	// Virtual is the emitting node's Context.Now reading: global
	// virtual time on the simulator, time since node start on the real
	// runtimes.
	Virtual time.Duration `json:"virtual_ns"`
	// Wall is the host clock at emission (zero on the simulator if the
	// emitter chose to suppress it; kept for real deployments).
	Wall time.Time `json:"wall"`
	// Node is the emitting node.
	Node msg.NodeID `json:"node"`
	// Kind classifies the event ("leader-change", "lease-grant",
	// "lease-expiry", "recovery", "fault", ...).
	Kind string `json:"kind"`
	// Detail is a one-line human-readable elaboration.
	Detail string `json:"detail"`
}

// String renders the event as one timeline line.
func (e Event) String() string {
	return fmt.Sprintf("%12s node=%d %-12s %s", e.Virtual, e.Node, e.Kind, e.Detail)
}

// EventLog is a bounded, concurrency-safe ring of Events. The zero
// value is not ready; use NewEventLog. A nil *EventLog swallows emits,
// so emitters never need nil checks.
type EventLog struct {
	mu    sync.Mutex
	ring  []Event
	pos   int
	count int64 // total emitted, including overwritten
}

// NewEventLog builds a log keeping the last cap events (cap <= 0 means
// DefaultEventCap).
func NewEventLog(cap int) *EventLog {
	if cap <= 0 {
		cap = DefaultEventCap
	}
	return &EventLog{ring: make([]Event, 0, cap)}
}

// Emit appends one event, stamping the wall clock here.
func (l *EventLog) Emit(virtual time.Duration, node msg.NodeID, kind, detail string) {
	if l == nil {
		return
	}
	e := Event{Virtual: virtual, Wall: time.Now(), Node: node, Kind: kind, Detail: detail}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.pos] = e
		l.pos = (l.pos + 1) % cap(l.ring)
	}
	l.count++
}

// Emitf is Emit with a formatted detail line.
func (l *EventLog) Emitf(virtual time.Duration, node msg.NodeID, kind, format string, args ...any) {
	if l == nil {
		return
	}
	l.Emit(virtual, node, kind, fmt.Sprintf(format, args...))
}

// Total reports how many events were ever emitted (the ring may hold
// fewer).
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Tail returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained.
func (l *EventLog) Tail(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := len(l.ring)
	if n <= 0 || n > kept {
		n = kept
	}
	out := make([]Event, 0, n)
	for i := kept - n; i < kept; i++ {
		out = append(out, l.ring[(l.pos+i)%kept])
	}
	return out
}

// Registry is a deployment's list of collectors plus its event log.
type Registry struct {
	mu      sync.Mutex
	sources []func(*Snapshot)
	events  *EventLog
}

// NewRegistry builds an empty registry with an event log of
// DefaultEventCap.
func NewRegistry() *Registry {
	return &Registry{events: NewEventLog(0)}
}

// AddSource registers a collector that adds a subsystem's current
// values to the snapshot being captured. Sources run outside the
// registry lock, in registration order.
func (r *Registry) AddSource(fn func(*Snapshot)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, fn)
}

// Events exposes the registry's event log.
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Snapshot captures the registry's current state: every source's
// contribution and the event tail.
func (r *Registry) Snapshot() Snapshot {
	s := NewSnapshot()
	r.mu.Lock()
	sources := slices.Clone(r.sources)
	r.mu.Unlock()
	for _, fn := range sources {
		fn(&s)
	}
	s.Events = r.events.Tail(0)
	return s
}

// Snapshot is a point-in-time capture of a registry (or a merge of
// several). It is plain data: safe to marshal, safe to Merge without
// touching any live recorder.
type Snapshot struct {
	Counters map[string]int64              `json:"counters"`
	Hists    map[string]*metrics.Histogram `json:"-"`
	Events   []Event                       `json:"events,omitempty"`
}

// NewSnapshot builds an empty snapshot ready for Add/AddHist.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters: make(map[string]int64),
		Hists:    make(map[string]*metrics.Histogram),
	}
}

// Add adds d to the named counter.
func (s *Snapshot) Add(name string, d int64) { s.Counters[name] += d }

// AddHist folds h into the named histogram. The snapshot clones on
// first contact, so the caller's histogram is never retained or
// mutated.
func (s *Snapshot) AddHist(name string, h *metrics.Histogram) {
	if h != nil && s.Hists[name] == nil && h.Count() > 0 {
		h = h.Clone()
	}
	s.adoptHist(name, h)
}

// adoptHist folds h into the named histogram, keeping h itself on first
// contact: the caller hands over a copy it owns.
func (s *Snapshot) adoptHist(name string, h *metrics.Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	if have := s.Hists[name]; have != nil {
		have.Merge(h)
	} else {
		s.Hists[name] = h
	}
}

// Merge folds other into s: counters add, histograms add their bucket
// counts, events concatenate (ordered by virtual time).
func (s *Snapshot) Merge(other Snapshot) {
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, h := range other.Hists {
		s.AddHist(name, h)
	}
	if len(other.Events) > 0 {
		s.Events = append(s.Events, other.Events...)
		sort.SliceStable(s.Events, func(i, j int) bool {
			return s.Events[i].Virtual < s.Events[j].Virtual
		})
	}
}

// HistStats summarizes every histogram in the snapshot (histograms are
// excluded from direct JSON marshalling; this is their serializable
// face).
func (s Snapshot) HistStats() map[string]metrics.Summary {
	out := make(map[string]metrics.Summary, len(s.Hists))
	for name, h := range s.Hists {
		out[name] = h.Summarize()
	}
	return out
}

// Flatten renders the snapshot as one flat name → value map — the
// uniform shape every -json dump shares. Counters keep their names;
// each histogram contributes <name>.count and
// <name>.{mean,p50,p90,p99,max}_us in microseconds.
func (s Snapshot) Flatten() map[string]float64 {
	out := make(map[string]float64, len(s.Counters)+6*len(s.Hists))
	for name, v := range s.Counters {
		out[name] = float64(v)
	}
	for name, st := range s.HistStats() {
		out[name+".count"] = float64(st.Count)
		out[name+".mean_us"] = us(st.Mean)
		out[name+".p50_us"] = us(st.P50)
		out[name+".p90_us"] = us(st.P90)
		out[name+".p99_us"] = us(st.P99)
		out[name+".max_us"] = us(st.Max)
	}
	return out
}

// Names reports the sorted union of counter and histogram names — the
// naming scheme's directory listing.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s.Counters)+len(s.Hists))
	for name := range s.Counters {
		out = append(out, name)
	}
	for name := range s.Hists {
		if _, dup := s.Counters[name]; !dup {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// AddBatchOccupancy contributes a batch-occupancy histogram under the
// given prefix: <prefix>.batches, <prefix>.commands, and one
// <prefix>.le_N (or .gt_N overflow) counter per bucket.
func (s *Snapshot) AddBatchOccupancy(prefix string, b *metrics.BatchOccupancy) {
	s.Add(prefix+".batches", b.Batches())
	s.Add(prefix+".commands", b.Commands())
	for i, bound := range metrics.BatchOccupancyBuckets {
		s.Add(fmt.Sprintf("%s.le_%d", prefix, bound), b.Bucket(i))
	}
	last := metrics.BatchOccupancyBuckets[len(metrics.BatchOccupancyBuckets)-1]
	s.Add(fmt.Sprintf("%s.gt_%d", prefix, last), b.Bucket(len(metrics.BatchOccupancyBuckets)))
}

// AddTracer contributes a command tracer's span accounting and
// per-stage latency histograms under the "trace." prefix. Nil-safe.
func (s *Snapshot) AddTracer(t *trace.Tracer) {
	if t == nil {
		return
	}
	tot := t.Totals()
	s.Add("trace.started", tot.Started)
	s.Add("trace.finished", tot.Finished)
	s.Add("trace.dropped", tot.Dropped)
	for st, h := range tot.Stages {
		s.adoptHist("trace.stage."+trace.Stage(st).String(), h)
	}
	s.adoptHist("trace.total", tot.Total)
}
