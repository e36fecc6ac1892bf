package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark itself timed around a call into the
// program: its name, start and end on the run's clock, the span that caused
// it (-1 for a root) and the operation it belongs to (0 when none).
type span struct {
	StartNs int64
	EndNs   int64
	Op      int64
	Parent  int32
	Name    spanName // an index, so the log holds no pointers for the collector to scan
}

type spanName uint8

const (
	spanRun spanName = iota
	spanStartKV
	spanPrepopulate
	spanMeasure
	spanPut
	spanGet
	spanVerify
	spanCrash
	spanRestart
	spanClose
	spanLadder
	// The ladder's rungs, in the order runLadder calls them.
	spanRungQueue
	spanRungRuntime
	spanRungCodec
	spanRungTransport
	spanRungEngines
	spanRungRSM
	spanRungSnapshot
	spanRungSim
)

var spanNames = [...]string{"run", "StartKV", "prepopulate", "measure", "Put", "Get",
	"verify", "CrashReplica", "RestartReplica", "Close", "ladder",
	"ladder.queue", "ladder.runtime", "ladder.codec", "ladder.transport", "ladder.engines",
	"ladder.rsm", "ladder.snapshot", "ladder.sim"}

// spanLog keeps a traced run's spans in memory that is allocated before the
// run starts; add claims a slot with one atomic increment, so callers share
// the log without a lock and nothing is written out until the run has
// ended. A nil *spanLog records nothing (the untraced runs pass nil).
type spanLog struct {
	base  time.Time
	next  atomic.Int64
	spans []span
}

// spanCap holds every 64th operation of the busiest workload for 14 s
// (600 k op/s / 64 * 14 s = 131 k) in 4 MB; spans beyond it are counted as
// dropped, not stored.
const spanCap = 1 << 17

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, spanCap)}
}

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.base))
}

// add stores one finished span and returns its id (-1 when dropped or off).
func (l *spanLog) add(name spanName, start, end int64, parent int32, op int64) int32 {
	if l == nil {
		return -1
	}
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		return -1
	}
	l.spans[i] = span{Name: name, StartNs: start, EndNs: end, Parent: parent, Op: op}
	return int32(i)
}

// open reserves a parent span whose end is set by close, so children can
// name it while it is still running.
func (l *spanLog) open(name spanName, parent int32) int32 {
	if l == nil {
		return -1
	}
	return l.add(name, l.now(), 0, parent, 0)
}

func (l *spanLog) close(id int32) {
	if l != nil && id >= 0 {
		l.spans[id].EndNs = l.now()
	}
}

// time runs fn inside a span.
func (l *spanLog) time(name spanName, parent int32, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := l.now()
	fn()
	l.add(name, start, l.now(), parent, 0)
}

func (l *spanLog) stored() (kept []span, dropped int64) {
	n := l.next.Load()
	if n > int64(len(l.spans)) {
		return l.spans, n - int64(len(l.spans))
	}
	return l.spans[:n], 0
}

// write dumps the log to <dir>/spans-<workload>.json.
func (l *spanLog) write(dir, workload string) error {
	kept, dropped := l.stored()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type jsonSpan struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Op      int64  `json:"op,omitempty"`
	}
	out := make([]jsonSpan, len(kept))
	for i, s := range kept {
		out[i] = jsonSpan{i, spanNames[s.Name], s.StartNs, s.EndNs, s.Parent, s.Op}
	}
	data, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Dropped  int64      `json:"dropped"`
		Spans    []jsonSpan `json:"spans"`
	}{workload, dropped, out})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), data, 0o644)
}
