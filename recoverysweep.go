package consensusinside

// The recovery sweep: the experiment behind the snapshotting/catch-up
// subsystem (internal/snapshot). It kills one replica of a sharded
// deployment mid-load, restarts it, and measures what the paper's
// in-machine agreement service must survive for an OS lifetime: the
// throughput dip while the core is gone (quorum engines shrug, blocking
// engines stall their shard), the time until the restarted replica has
// streamed a snapshot + log suffix from a peer and converged
// (time-to-rejoin), and the recovered throughput afterwards.
//
// cmd/consensusbench exposes this as the recovery-sweep experiment and
// records it to BENCH_recovery_sweep.json; docs/BENCHMARKS.md is the
// runbook.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/shard"
)

// RecoverySweepOptions parameterizes RecoverySweep. Zero values select
// the defaults noted on each field.
type RecoverySweepOptions struct {
	// Protocols to sweep (default: every registered engine).
	Protocols []Protocol
	// Transports to sweep (default InProc then TCP).
	Transports []TransportKind
	// Shards is the group count (default 2 — one shard takes the fault,
	// the other proves isolation).
	Shards int
	// Replicas per group (default 3).
	Replicas int
	// SnapshotInterval for every replica (default 64 — snapshots exist
	// before the fault, so recovery takes the snapshot+suffix path).
	SnapshotInterval int
	// Pipeline is the bridge window (default 8).
	Pipeline int
	// Phase is the measured wall-clock window for each of the three
	// throughput phases: steady, crashed, recovered (default 400ms).
	Phase time.Duration
	// Workers is the closed-loop worker count, split across shards
	// (default 16).
	Workers int
	// RejoinTimeout bounds how long the sweep waits for the restarted
	// replica to converge (default 30s).
	RejoinTimeout time.Duration
}

func (o RecoverySweepOptions) withDefaults() RecoverySweepOptions {
	if len(o.Protocols) == 0 {
		o.Protocols = Protocols()
	}
	if len(o.Transports) == 0 {
		o.Transports = []TransportKind{InProc, TCP}
	}
	if o.Shards == 0 {
		o.Shards = 2
	}
	if o.Replicas == 0 {
		o.Replicas = 3
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = 64
	}
	if o.Pipeline == 0 {
		o.Pipeline = 8
	}
	if o.Phase == 0 {
		o.Phase = 400 * time.Millisecond
	}
	if o.Workers == 0 {
		o.Workers = 16
	}
	if o.RejoinTimeout == 0 {
		o.RejoinTimeout = 30 * time.Second
	}
	return o
}

// RecoveryPoint is one (protocol, transport) cell's result.
type RecoveryPoint struct {
	Protocol  Protocol
	Transport TransportKind
	// SteadyOps, CrashedOps and RecoveredOps are the committed-op
	// throughputs (op/s, both shards together) before the crash, while
	// the replica is down, and after it rejoined.
	SteadyOps    float64
	CrashedOps   float64
	RecoveredOps float64
	// Rejoin is how long the restarted replica took to stream its
	// snapshot + suffix and converge, measured from RestartReplica.
	Rejoin time.Duration
	// Snap is the service's recovery-subsystem counters at the end of
	// the cell, folded across the surviving and restarted replicas (the
	// crashed incarnation's counters die with it — that loss is part of
	// the crash).
	Snap metrics.SnapshotStats
}

// DipFraction reports the crashed-phase throughput as a fraction of
// steady (1.0 = no dip; a blocking engine with half its workers parked
// on the faulted shard sits near 0.5).
func (p RecoveryPoint) DipFraction() float64 {
	if p.SteadyOps == 0 {
		return 0
	}
	return p.CrashedOps / p.SteadyOps
}

// RecoverySweep runs the crash→restart→rejoin experiment for every
// (protocol, transport) combination in opts, in that nesting order.
func RecoverySweep(opts RecoverySweepOptions) ([]RecoveryPoint, error) {
	opts = opts.withDefaults()
	var out []RecoveryPoint
	for _, p := range opts.Protocols {
		for _, tr := range opts.Transports {
			pt, err := recoverySweepOne(opts, p, tr)
			if err != nil {
				return nil, fmt.Errorf("consensusinside: recovery sweep %v/%v: %w", p, tr, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

func recoverySweepOne(opts RecoverySweepOptions, p Protocol, tr TransportKind) (RecoveryPoint, error) {
	kv, err := StartKV(KVConfig{
		Protocol:         p,
		Transport:        tr,
		Shards:           opts.Shards,
		Replicas:         opts.Replicas,
		SnapshotInterval: opts.SnapshotInterval,
		Pipeline:         opts.Pipeline,
		AcceptTimeout:    50 * time.Millisecond,
		RequestTimeout:   2 * opts.RejoinTimeout,
	})
	if err != nil {
		return RecoveryPoint{}, err
	}
	defer kv.Close()

	// Closed-loop workers, pinned per shard, counting completions. Ops
	// that straddle a phase boundary are charged to the phase they
	// complete in — exactly what a throughput-over-time plot would show.
	var (
		completed atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
		loadErr   atomic.Value
	)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := shard.KeyFor(fmt.Sprintf("rsw%d", w), w%opts.Shards, opts.Shards)
			for i := 0; !stop.Load(); i++ {
				if err := kv.Put(key, fmt.Sprintf("v%d", i)); err != nil {
					if !stop.Load() {
						loadErr.Store(err)
					}
					return
				}
				completed.Add(1)
			}
		}(w)
	}
	stopLoad := func() {
		stop.Store(true)
		wg.Wait()
	}

	phase := func() int64 {
		before := completed.Load()
		time.Sleep(opts.Phase)
		return completed.Load() - before
	}
	perSec := func(n int64) float64 { return float64(n) / opts.Phase.Seconds() }

	time.Sleep(opts.Phase / 2) // warm the leader paths and first snapshots
	steady := phase()

	const victim = 1 // a follower of shard 0
	if err := kv.CrashReplica(victim); err != nil {
		stopLoad()
		return RecoveryPoint{}, err
	}
	crashed := phase()

	restartAt := time.Now()
	if err := kv.RestartReplica(victim); err != nil {
		stopLoad()
		return RecoveryPoint{}, err
	}
	var rejoin time.Duration
	for {
		if kv.shards[0].engines[victim].Recovered() {
			rejoin = time.Since(restartAt)
			break
		}
		if time.Since(restartAt) > opts.RejoinTimeout {
			stopLoad()
			return RecoveryPoint{}, fmt.Errorf("replica %d did not rejoin within %v", victim, opts.RejoinTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	recovered := phase()

	stopLoad()
	if err, ok := loadErr.Load().(error); ok && err != nil {
		return RecoveryPoint{}, err
	}
	return RecoveryPoint{
		Protocol:     p,
		Transport:    tr,
		SteadyOps:    perSec(steady),
		CrashedOps:   perSec(crashed),
		RecoveredOps: perSec(recovered),
		Rejoin:       rejoin,
		Snap:         kv.SnapshotStats(),
	}, nil
}
