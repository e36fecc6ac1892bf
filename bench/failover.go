package main

import (
	"fmt"
	"strings"
	"time"

	"consensusinside/internal/linearize"
)

// Fault schedule of the open-loop workload, on the schedule's own clock
// (which starts with the warm-up): the leader is crashed at 2, 8, 14, ... s,
// restarted 1 s later, and the last crash leaves 4 s for recovery and a
// quiet tail. A crash disturbs its own window and now and then the one or
// two after it (an outage runs from 0.1 s to the whole downtime, and which
// crashes stall differs from run to run), so crashes are spaced to keep the
// disturbed windows a minority: the median window, which every end-to-end
// value is, is then one in which all replicas were up, and what the faults
// cost is reported apart, in fault.*.
const (
	firstCrash  = 2 * time.Second
	crashEvery  = 6 * time.Second
	downFor     = time.Second
	quietTail   = 4 * time.Second
	stalledOver = time.Second
)

// crashRec is one crash/restart cycle.
type crashRec struct {
	replica            int
	crashAt, restartAt int64   // run clock, ns
	rejoinMs           float64 // RestartReplica call to the replica's recovery-complete event; 0 if never seen
}

// faultData is the open loop's recorded history, indexed by position in the
// schedule and allocated before the run.
type faultData struct {
	due, sent, ret []int64 // run clock, ns
	ok             []bool
	crashes        []crashRec
	finals         []linearize.Op // the read-back after the last window
}

func newFaultData(ops int) *faultData {
	return &faultData{
		due: make([]int64, ops), sent: make([]int64, ops), ret: make([]int64, ops),
		ok:      make([]bool, ops),
		crashes: make([]crashRec, 0, 32),
		finals:  make([]linearize.Op, 0, numKeys),
	}
}

func (fd *faultData) finalRead(client int, key, v string, t0, t1 int64) {
	fd.finals = append(fd.finals, linearize.Op{Client: client, Kind: linearize.Read, Key: key, Value: v,
		Invoke: time.Duration(t0), Return: time.Duration(t1), Done: true})
}

// openCaller issues the caller's share of the schedule: operation j is due
// at j/openRate seconds whether or not earlier operations have returned, and
// its latency counts from the due time, so the wait a stall imposes on the
// operations queued behind it is measured, not hidden.
//
// One thing is taken out: the generator's own oversleep. A Go timer on an
// otherwise idle process fires up to a millisecond late (the runtime parks
// in epoll_wait, which counts in milliseconds), ten times what a Put takes
// here, so a latency that included it would measure the timer. When the
// caller was free at the due time, the clock therefore starts when the Put
// is sent; when it was still blocked in its previous Put, it starts at the
// due time. How late the generator ran is reported as fault.gen_lag_p99_us.
func (r *run) openCaller(c *caller, fd *faultData) {
	in, kv := r.in, r.kv
	cin := &in.callers[c.id]
	sched0 := r.start - int64(r.opts.Warmup)
	period := int64(time.Second) / openRate
	prevRet := int64(0)
	for i, o := range cin.ops {
		j := i*r.w.Callers + c.id
		due := sched0 + int64(j)*period
		r.sleepUntil(due)
		sent := r.now()
		from := due
		if prevRet <= due {
			from = sent
		}
		err := kv.Put(in.keys[o.key], cin.vals[i])
		ret := r.now()
		c.acked(o.slot, cin.vals[i], err)
		if err != nil {
			c.failed++
		}
		fd.due[j], fd.sent[j], fd.ret[j], fd.ok[j] = due, sent, ret, err == nil
		prevRet = ret
		if w := r.window(due); w >= 0 {
			c.puts[w].record(ret - from)
			if r.spans != nil && i%64 == 0 {
				r.spans.add(spanPut, sent, ret, r.parent, int64(c.id)<<32|int64(i))
			}
		}
		c.done.Add(1)
	}
	c.attempted += int64(len(cin.ops))
}

// leader reports the replica the newest leader-change event names, replica 0
// (the boot leader) before any.
func (r *run) leader() int {
	events := r.kv.Events().Tail(0)
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Kind == "leader-change" {
			return int(events[i].Node)
		}
	}
	return 0
}

// injectFaults crashes the current leader on the fault schedule and restarts
// it downFor later, timing how long the restarted replica takes to rejoin.
func (r *run) injectFaults(fd *faultData, total time.Duration) {
	sched0 := r.start - int64(r.opts.Warmup)
	for at := firstCrash; at <= total-quietTail; at += crashEvery {
		r.sleepUntil(sched0 + int64(at))
		rec := crashRec{replica: r.leader(), crashAt: r.now()}
		if err := r.kv.CrashReplica(rec.replica); err != nil {
			fmt.Printf("# %s: %v\n", r.w.Name, err)
			continue
		}
		r.spans.add(spanCrash, rec.crashAt, r.now(), r.parent, 0)
		r.sleepUntil(sched0 + int64(at+downFor))
		rec.restartAt = r.now()
		restartWall := time.Now()
		if err := r.kv.RestartReplica(rec.replica); err != nil {
			fmt.Printf("# %s: %v\n", r.w.Name, err)
			fd.crashes = append(fd.crashes, rec)
			continue
		}
		r.spans.add(spanRestart, rec.restartAt, r.now(), r.parent, 0)
		deadline := sched0 + int64(at+crashEvery) - int64(100*time.Millisecond)
		for rec.rejoinMs == 0 && r.now() < deadline {
			time.Sleep(2 * time.Millisecond)
			events := r.kv.Events().Tail(16)
			for i := len(events) - 1; i >= 0; i-- {
				e := events[i]
				if e.Kind == "recovery" && int(e.Node) == rec.replica && e.Wall.After(restartWall) &&
					(strings.HasPrefix(e.Detail, "recovery complete") || strings.HasPrefix(e.Detail, "recovery converged")) {
					rec.rejoinMs = float64(e.Wall.Sub(restartWall)) / 1e6
					break
				}
			}
		}
		fd.crashes = append(fd.crashes, rec)
	}
}

// faultMetrics derives the fault.* and linearize.* values from the history.
func (d *runData) faultMetrics(in *inputs, tail func() string) map[string]float64 {
	fd := d.fault
	out := map[string]float64{}
	var outages, rejoins []float64
	for _, c := range fd.crashes {
		worst := int64(0)
		for j, due := range fd.due {
			if due >= c.crashAt && due <= c.restartAt && fd.ret[j]-due > worst {
				worst = fd.ret[j] - due
			}
		}
		outages = append(outages, float64(worst)/1e6)
		if c.rejoinMs > 0 {
			rejoins = append(rejoins, c.rejoinMs)
		}
	}
	for _, o := range outages {
		if o > out["fault.outage_max_ms"] {
			out["fault.outage_max_ms"] = o
		}
	}
	out["fault.outage_p50_ms"] = median(outages)
	out["fault.rejoin_p50_ms"] = median(rejoins)

	// The generator's own lateness: how long after its due time an
	// operation was sent when its caller was free (the previous operation
	// of the same caller had returned), so waiting behind a stalled
	// operation is not counted as generator lag.
	var lag hist
	stalled := 0
	for j, due := range fd.due {
		if fd.ret[j]-due > int64(stalledOver) {
			stalled++
		}
		if prev := j - d.w.Callers; prev < 0 || fd.ret[prev] <= due {
			lag.record(fd.sent[j] - due)
		}
	}
	out["fault.stalled_ops"] = float64(stalled)
	out["fault.gen_lag_p99_us"] = lag.quantile(0.99) / 1e3

	// One history per key (linearizability composes over keys): the
	// prepopulating write, every scheduled Put with the times it was sent
	// and returned (a failed Put stays pending: it may have taken effect),
	// and the read-back.
	perKey := make(map[string][]linearize.Op, numKeys)
	for k, key := range in.keys {
		owner := int(in.owner[k])
		perKey[key] = append(perKey[key], linearize.Op{Client: owner, Kind: linearize.Write, Key: key,
			Value: in.callers[owner].init[in.slot[k]], Invoke: 0, Return: 1, Done: true})
	}
	for j := range fd.due {
		c, i := j%d.w.Callers, j/d.w.Callers
		cin := &in.callers[c]
		key := in.keys[cin.ops[i].key]
		perKey[key] = append(perKey[key], linearize.Op{Client: c, Kind: linearize.Write, Key: key, Value: cin.vals[i],
			Invoke: time.Duration(fd.sent[j]), Return: time.Duration(fd.ret[j]), Done: fd.ok[j]})
	}
	for _, op := range fd.finals {
		perKey[op.Key] = append(perKey[op.Key], op)
	}
	t0, violations := time.Now(), 0
	for _, key := range in.keys {
		if err := linearize.Check(perKey[key], linearize.Options{}); err != nil {
			if violations++; violations == 1 {
				// A defect of the program, not of the benchmark: reported
				// with what is needed to replay it, and the run goes on.
				fmt.Printf("# %s: seed %d: %v\n# event log tail:\n%s", d.w.Name, d.opts.Seed, err, tail())
			}
		}
	}
	out["linearize.violations"] = float64(violations)
	out["linearize.check_ms"] = float64(time.Since(t0)) / 1e6
	return out
}
