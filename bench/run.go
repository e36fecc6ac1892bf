package main

import (
	"fmt"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	ci "consensusinside"
	"consensusinside/internal/metrics"
)

// runOpts is how one run of one workload is taken. A number is the median
// over Windows windows of WindowDur each, after Warmup of unmeasured load;
// whole-run rates wander 20-50 % on a shared 2-core host where window
// medians hold a few percent.
type runOpts struct {
	Seed      int64
	Windows   int
	WindowDur time.Duration
	Warmup    time.Duration
	// Setups is how many times the service is started and prepopulated;
	// setup_s is their median and the last one is the service measured.
	Setups int
	// TraceInterval is KVConfig.TraceInterval (0: tracing off); a traced run
	// also records the benchmark's own spans into Spans.
	TraceInterval int
	Spans         *spanLog
}

// mark is what the coordinator reads at a window boundary. Rates and CPU per
// operation are differences between adjacent marks, so a coordinator that
// wakes late stretches one window and shortens the next without corrupting
// either.
type mark struct {
	t        int64   // run clock, ns
	cpu      float64 // process user+sys seconds (getrusage)
	ops      int64   // operations completed by all callers
	heapLive uint64  // live heap: what a collection forced at the mark found reachable
}

// caller is one goroutine blocking in KV.Put / KV.Get — what a client of an
// in-process library is. Its fields are written by that goroutine only and
// read after it has exited, except done.
type caller struct {
	id   int
	puts []hist // per window
	gets []hist // per window; nil on Put-only workloads
	// last is the value this caller last had acknowledged for each key it
	// owns; unsure marks a key whose latest Put failed (it may or may not
	// have taken effect).
	last   []string
	unsure []bool

	attempted, failed, wrong int64

	_    [64]byte
	done atomic.Int64 // completed operations, read by the coordinator
	_    [64]byte
}

func (c *caller) acked(slot int32, val string, err error) {
	if err == nil {
		c.last[slot], c.unsure[slot] = val, false
	} else {
		c.unsure[slot] = true
	}
}

// runData is the raw outcome of one run, before metrics are derived.
type runData struct {
	w    workload
	opts runOpts

	setupS []float64
	marks  []mark // Windows+1

	putP50, putP99 []float64 // per window, us (windows without a sample are skipped)
	getP50, getP99 []float64
	putN, getN     int64 // samples inside the windows

	attempted, failed, wrong int64
	heapBase                 uint64 // bytes of the live heap that are the driver's own

	// Read at the first and last mark.
	mallocs, pauseNs uint64
	batches, cmds    int64

	maxInFlight int
	obs         map[string]float64 // KV.Obs().Flatten() before Close
	callP50Us   float64            // median of the benchmark's own sampled Put spans (traced runs)
	shardOps    []int64            // operations completed per shard
	getsDone    int64              // Gets completed, the read-back included
	fault       *faultData         // open loop only
	faultVals   map[string]float64 // fault.* and linearize.*, open loop only
	notes       []string
}

// run is the live state shared by the coordinator and the callers.
type run struct {
	w       workload
	opts    runOpts
	in      *inputs
	kv      *ci.KV
	base    time.Time
	start   int64 // run-clock time of the first window's start
	callers []*caller
	stop    atomic.Bool
	spans   *spanLog
	parent  int32 // the measure span sampled operations hang under
}

func (r *run) now() int64 { return int64(time.Since(r.base)) }

// window maps a run-clock time to its window index, -1 outside the windows.
func (r *run) window(t int64) int {
	if t < r.start {
		return -1
	}
	w := int((t - r.start) / int64(r.opts.WindowDur))
	if w >= r.opts.Windows {
		return -1
	}
	return w
}

func (r *run) sleepUntil(t int64) {
	if d := t - r.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

var heapLiveSample = []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}

func heapLive() uint64 {
	rtmetrics.Read(heapLiveSample)
	return heapLiveSample[0].Value.Uint64()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// takeMark reads the clock, the CPU time and the operation counters, and
// only then forces a collection to read the live heap: the collection's
// cost (a millisecond or two a second on heaps this small) lands in the
// window that follows, the same for every window.
func (r *run) takeMark() mark {
	m := mark{t: r.now(), cpu: cpuSeconds()}
	for _, c := range r.callers {
		m.ops += c.done.Load()
	}
	goruntime.GC()
	m.heapLive = heapLive()
	return m
}

// measure runs workload w once and returns the raw data. It fails only when
// the service cannot be started; failed or wrong operations are counted in
// the result.
func measure(w workload, opts runOpts) (*runData, error) {
	total := opts.Warmup + time.Duration(opts.Windows)*opts.WindowDur
	openOps := 0
	if w.Open {
		openOps = int(total.Seconds() * openRate)
	}
	// What the driver itself holds is measured as the live heap's growth
	// across its allocation, and taken off every later reading: heap_mb is
	// the process's live heap less the benchmark's own buffers.
	goruntime.GC()
	before := heapLive()
	in := genInputs(w, opts.Seed, openOps)
	r := &run{w: w, opts: opts, in: in, base: time.Now(), spans: opts.Spans, parent: -1}
	if r.spans != nil {
		r.base = r.spans.base // one clock for the run and its spans
	}
	d := &runData{w: w, opts: opts, marks: make([]mark, 0, opts.Windows+1)}
	for i := 0; i < w.Callers; i++ {
		c := &caller{id: i, puts: make([]hist, opts.Windows)}
		if w.GetPct > 0 {
			c.gets = make([]hist, opts.Windows)
		}
		n := len(in.callers[i].owned)
		c.last, c.unsure = make([]string, n), make([]bool, n)
		r.callers = append(r.callers, c)
	}
	if w.Open {
		d.fault = newFaultData(openOps)
	}

	goruntime.GC()
	if after := heapLive(); after > before {
		d.heapBase = after - before
	}

	cfg := w.Config
	cfg.TraceInterval = opts.TraceInterval
	root := r.spans.open(spanRun, -1)
	for s := 0; s < opts.Setups; s++ {
		t0 := r.now()
		kv, err := ci.StartKV(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: StartKV: %w", w.Name, err)
		}
		t1 := r.now()
		r.spans.add(spanStartKV, t0, t1, root, 0)
		r.kv = kv
		r.prepopulate()
		t2 := r.now()
		r.spans.add(spanPrepopulate, t1, t2, root, 0)
		d.setupS = append(d.setupS, float64(t2-t0)/1e9)
		if s < opts.Setups-1 {
			kv.Close()
		}
	}
	defer func() {
		r.spans.time(spanClose, root, r.kv.Close)
		r.spans.close(root)
	}()

	r.start = r.now() + int64(opts.Warmup)
	r.parent = r.spans.open(spanMeasure, root)
	var wg sync.WaitGroup
	for _, c := range r.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			if w.Open {
				r.openCaller(c, d.fault)
			} else {
				r.closedCaller(c)
			}
		}(c)
	}
	var faults sync.WaitGroup
	if w.Open {
		faults.Add(1)
		go func() {
			defer faults.Done()
			r.injectFaults(d.fault, total)
		}()
	}

	var ms0, ms1 goruntime.MemStats
	var occ0, occ1 metrics.BatchOccupancy
	for k := 0; k <= opts.Windows; k++ {
		r.sleepUntil(r.start + int64(k)*int64(opts.WindowDur))
		if k == 0 {
			goruntime.ReadMemStats(&ms0)
			occ0 = r.kv.BatchStats()
		}
		d.marks = append(d.marks, r.takeMark())
	}
	goruntime.ReadMemStats(&ms1)
	occ1 = r.kv.BatchStats()
	r.stop.Store(true)
	wg.Wait()
	faults.Wait()
	r.spans.close(r.parent)

	d.mallocs, d.pauseNs = ms1.Mallocs-ms0.Mallocs, ms1.PauseTotalNs-ms0.PauseTotalNs
	d.batches, d.cmds = occ1.Batches()-occ0.Batches(), occ1.Commands()-occ0.Commands()

	r.spans.time(spanVerify, root, func() { r.verify(d) })
	r.collect(d)
	if w.Open {
		d.faultVals = d.faultMetrics(in, func() string {
			var b strings.Builder
			for _, e := range r.kv.Events().Tail(12) {
				fmt.Fprintf(&b, "#   %s\n", e)
			}
			return b.String()
		})
	}
	return d, nil
}

// prepopulate writes every key's initial value, each caller its own keys.
func (r *run) prepopulate() {
	var wg sync.WaitGroup
	for _, c := range r.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			cin := &r.in.callers[c.id]
			for slot, key := range cin.owned {
				c.attempted++
				err := r.kv.Put(r.in.keys[key], cin.init[slot])
				if err != nil {
					c.failed++
				}
				c.acked(int32(slot), cin.init[slot], err)
			}
		}(c)
	}
	wg.Wait()
}

// closedCaller issues the caller's ring of operations back to back until
// the coordinator stops it: the next operation starts when the previous one
// returns, so one clock reading per operation is both an end and a start.
func (r *run) closedCaller(c *caller) {
	in, kv := r.in, r.kv
	cin := &in.callers[c.id]
	next, nextVal := 0, 0
	t0 := r.now()
	for !r.stop.Load() {
		o := cin.ops[next&(ringLen-1)]
		next++
		key := in.keys[o.key]
		var err error
		if o.slot < 0 {
			var v string
			v, err = kv.Get(key)
			if err == nil && !in.issuedBy(o.key, v) {
				c.wrong++
			}
		} else {
			val := cin.vals[nextVal]
			if nextVal++; nextVal == len(cin.vals) {
				nextVal = 0
			}
			err = kv.Put(key, val)
			c.acked(o.slot, val, err)
		}
		t1 := r.now()
		if err != nil {
			c.failed++
		}
		if w := r.window(t1); w >= 0 {
			name := spanPut
			if o.slot < 0 {
				c.gets[w].record(t1 - t0)
				name = spanGet
			} else {
				c.puts[w].record(t1 - t0)
			}
			if r.spans != nil && next%64 == 0 {
				r.spans.add(name, t0, t1, r.parent, int64(c.id)<<32|int64(next))
			}
		}
		c.done.Add(1)
		t0 = t1
	}
	c.attempted += int64(next)
}

// verify reads every key back once after the last window: the value must be
// the last one the key's owner had acknowledged (any value the owner issued,
// if the owner's latest Put to it failed).
func (r *run) verify(d *runData) {
	for k, key := range r.in.keys {
		c := r.callers[r.in.owner[k]]
		slot := r.in.slot[k]
		t0 := r.now()
		v, err := r.kv.Get(key)
		c.attempted++
		switch {
		case err != nil:
			c.failed++
		case c.unsure[slot]:
			if !r.in.issuedBy(int32(k), v) {
				c.wrong++
			}
		case v != c.last[slot]:
			c.wrong++
			if len(d.notes) < 4 {
				d.notes = append(d.notes, fmt.Sprintf("read-back of %s: got %.16q, last acknowledged %.16q", key, v, c.last[slot]))
			}
		}
		if d.fault != nil && err == nil {
			d.fault.finalRead(c.id, key, v, t0, r.now())
		}
	}
}

// collect folds the callers' windows and the service's own counters into d.
func (r *run) collect(d *runData) {
	for w := 0; w < r.opts.Windows; w++ {
		var puts, gets hist
		for _, c := range r.callers {
			puts.merge(&c.puts[w])
			if c.gets != nil {
				gets.merge(&c.gets[w])
			}
		}
		if puts.n > 0 {
			d.putP50 = append(d.putP50, puts.quantile(0.50)/1e3)
			d.putP99 = append(d.putP99, puts.quantile(0.99)/1e3)
			d.putN += puts.n
		}
		if gets.n > 0 {
			d.getP50 = append(d.getP50, gets.quantile(0.50)/1e3)
			d.getP99 = append(d.getP99, gets.quantile(0.99)/1e3)
			d.getN += gets.n
		}
	}
	d.shardOps = make([]int64, r.kv.Shards())
	for _, c := range r.callers {
		d.attempted += c.attempted
		d.failed += c.failed
		d.wrong += c.wrong
		// A caller walks its operations in order (a closed loop cycling
		// through them), so its operations per key — and so per shard —
		// follow from how far it got.
		cin := &r.in.callers[c.id]
		n, ring := c.done.Load(), int64(len(cin.ops))
		for i, o := range cin.ops {
			times := n / ring
			if int64(i) < n%ring {
				times++
			}
			d.shardOps[r.kv.ShardFor(r.in.keys[o.key])] += times
			if o.slot < 0 {
				d.getsDone += times
			}
		}
	}
	d.getsDone += numKeys
	d.maxInFlight = r.kv.MaxInFlight()
	d.obs = r.kv.Obs().Flatten()
	if r.spans != nil {
		var calls []float64
		kept, _ := r.spans.stored()
		for _, s := range kept {
			if s.Name == spanPut {
				calls = append(calls, float64(s.EndNs-s.StartNs)/1e3)
			}
		}
		d.callP50Us = median(calls)
	}
}
