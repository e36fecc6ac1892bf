package experiments

// Scenario fuzzing: one seeded adversarial run of a simulated cluster.
// A scenarioFuzz run builds a deployment on the deterministic sim
// runtime, arms a faultsched schedule generated from the seed (crash
// storms, link cuts, isolation, slowdowns, clock skew, message
// delay/loss), drives recorded client traffic through the fault window
// plus a calm tail, and checks the observed history for per-key
// linearizability (internal/linearize). Everything downstream of the
// (seed, config) pair is deterministic, so any violation is a one-line
// reproduction:
//
//	go test -run 'TestScenarioFuzzSeed$' -seed=N -proto=onepaxos ... ./internal/experiments
//
// The Registry's scenario-fuzz stanza (fuzzRows) and the
// TestScenarioFuzzMatrix sweep both drive this entry point.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/faultsched"
	"consensusinside/internal/linearize"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

// fuzzConfig selects one seeded adversarial run.
type fuzzConfig struct {
	// Protocol is the engine under test; Seed drives both the fault
	// schedule and the simulator's RNG.
	Protocol protocol.ID
	Seed     int64

	// Shards, SnapshotInterval and ReadMode are the deployment knobs
	// the matrix sweeps (defaults: 1 shard, no snapshots, consensus
	// reads).
	Shards           int
	SnapshotInterval int
	ReadMode         readpath.Mode

	// BatchAdaptive turns the clients' adaptive batcher on (default off,
	// the static paper behavior) — the matrix fuzzes it because batch
	// re-timing changes which commands share an instance, and instance
	// composition under faults is exactly what the checker audits.
	BatchAdaptive bool

	// Clients and RequestsPerClient bound the recorded history (defaults
	// 2 and 40). All clients share keys — contention is what gives the
	// checker something to disprove.
	Clients           int
	RequestsPerClient int

	// Total is the virtual run length (default 80ms): a short warm
	// start, a 20ms fault window starting at 2ms, and a calm tail long
	// enough for every retry to land. Clients pace themselves with a
	// think time so the recorded traffic spans the fault window instead
	// of finishing before the first fault lands.
	Total time.Duration

	// LeaseDuration overrides the lease under readpath.Lease (0 = the
	// fuzzLease default). The revert-guard needs a lease longer than the
	// fault window, so an isolation episode overlaps a lease that is
	// still valid when the challenger commits behind it.
	LeaseDuration time.Duration

	// Profile overrides the default fault storm (nil = the default:
	// crashes, cuts, isolation, slowdowns, light message loss/delay,
	// and — under readpath.Lease — bounded clock skew).
	Profile *faultsched.Profile

	// LegacyLeaseBug restores the historical lease-serving behavior on
	// every replica (readpath.SetLegacyGranterSelfExemption): granters
	// exempt their own prepares from the lease hold, and holders serve
	// local reads without the applied-frontier gate. The revert-guard
	// uses it to prove the checker catches the historical stale-read
	// hole. Tests only.
	LegacyLeaseBug bool
}

func (c fuzzConfig) withDefaults() fuzzConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 40
	}
	if c.Total <= 0 {
		c.Total = 80 * time.Millisecond
	}
	return c
}

// fuzzResult reports one run's outcome. Violation is non-nil when the
// history (or the replicas' logs) failed the safety check — the signal
// the fuzz matrix exists for; the separate error return of scenarioFuzz
// covers malformed configurations only.
type fuzzResult struct {
	Ops       int // operations recorded (invokes)
	Completed int // operations that returned
	Pending   int // still in flight at the end of the run
	Events    int // fault events in the applied schedule
	Schedule  string
	Violation error
	// EventTail is the cluster event-log ring at run end — fault
	// episodes interleaved with the protocol events (leader changes,
	// lease grants/expiries, recoveries) they provoked, in virtual-time
	// order. Failure reports dump it alongside the history verdict via
	// eventDump.
	EventTail []obs.Event
}

// eventDump renders the event-log tail one line per event, for failure
// reports. Empty tail renders a one-line placeholder so a dump is never
// silently absent.
func (r fuzzResult) eventDump() string {
	if len(r.EventTail) == 0 {
		return "  (event log empty)"
	}
	var b strings.Builder
	for _, e := range r.EventTail {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return strings.TrimRight(b.String(), "\n")
}

// fuzzLease is the lease duration fuzz runs use under readpath.Lease:
// long enough that isolation episodes (default max duration window/4 =
// 5ms) overlap a valid lease, short enough that runs renew several times
// inside the fault window.
const fuzzLease = 6 * time.Millisecond

// fuzzThink paces each client lane: one command per think tick, so the
// recorded traffic stretches across the whole fault window (without
// pacing, the default workload drains in the first ~3ms of virtual time
// and every fault lands on an idle cluster).
const fuzzThink = time.Millisecond

// defaultFuzzProfile is the storm a seed generates when the config
// does not override it. Skew stays well under the lease safety margin
// (duration/4): bounded drift is the lease's documented operating
// assumption, and a schedule violating it would "find" by-design
// staleness, not bugs.
func defaultFuzzProfile(mode readpath.Mode) faultsched.Profile {
	p := faultsched.Profile{
		CrashWeight:   3,
		CutWeight:     3,
		IsolateWeight: 2,
		SlowWeight:    2,
		Episodes:      6,
		MaxSlow:       12,
		DropPermille:  30,
		MaxExtraDelay: 200 * time.Microsecond,
	}
	if mode == readpath.Lease {
		p.SkewWeight = 1
		p.MaxSkew = fuzzLease / 10
	}
	return p
}

// fuzzArm builds the run's cluster and arms its seeded fault schedule on
// it, ready to Start: every replica gets the legacy lease behavior when
// the config asks for it, and every Skew event lands on its node's
// read-path clock — whatever the engine.
func fuzzArm(cfg fuzzConfig, rec *linearize.Recorder) (*cluster.Cluster, *faultsched.Schedule, error) {
	spec := cluster.Spec{
		Protocol:          cfg.Protocol,
		Machine:           topology.Opteron48(),
		Cost:              simnet.ManyCore(),
		Seed:              cfg.Seed,
		Replicas:          3,
		Clients:           cfg.Clients,
		Shards:            cfg.Shards,
		SnapshotInterval:  cfg.SnapshotInterval,
		ReadMode:          cfg.ReadMode,
		ReadPercent:       50,
		Window:            2,
		BatchAdaptive:     cfg.BatchAdaptive,
		RequestsPerClient: cfg.RequestsPerClient,
		ThinkTime:         fuzzThink,
		RetryTimeout:      1500 * time.Microsecond,
		AcceptTimeout:     time.Millisecond,
		TxRetryTimeout:    time.Millisecond,
		SharedKey:         "fz",
		Record:            rec,
	}
	if spec.ReadMode == readpath.Lease {
		spec.LeaseDuration = fuzzLease
		if cfg.LeaseDuration > 0 {
			spec.LeaseDuration = cfg.LeaseDuration
		}
	}
	c, err := cluster.Build(spec)
	if err != nil {
		return nil, nil, err
	}

	if cfg.LegacyLeaseBug {
		for _, s := range c.Servers {
			s.ReadPath().SetLegacyGranterSelfExemption(true)
		}
	}

	profile := defaultFuzzProfile(cfg.ReadMode)
	if cfg.Profile != nil {
		profile = *cfg.Profile
	}
	sched := faultsched.Generate(cfg.Seed, faultsched.Options{
		Nodes:   c.ServerIDs,
		Start:   2 * time.Millisecond,
		Window:  20 * time.Millisecond,
		Profile: profile,
	})
	byID := make(map[msg.NodeID]*readpath.Server, len(c.Servers))
	for i, s := range c.Servers {
		byID[c.ServerIDs[i]] = s.ReadPath()
	}
	// Faults land in the cluster's event log as they fire, so the ring
	// interleaves each episode with the leader changes, lease expiries
	// and recoveries it provokes — the timeline a violation dump needs.
	sched.ApplyObserved(c.Net, func(id msg.NodeID, off time.Duration) {
		byID[id].SkewClock(off)
	}, func(ev faultsched.Event) {
		c.Events.Emitf(ev.At, ev.Node, "fault", "%s", ev)
	})
	return c, sched, nil
}

// scenarioFuzz runs one seeded adversarial scenario and checks the
// recorded history. The returned error covers configuration problems;
// safety verdicts land in fuzzResult.Violation.
func scenarioFuzz(cfg fuzzConfig) (fuzzResult, error) {
	cfg = cfg.withDefaults()
	rec := linearize.NewRecorder()
	c, sched, err := fuzzArm(cfg, rec)
	if err != nil {
		return fuzzResult{}, err
	}
	c.Start()
	c.RunFor(cfg.Total)

	res := fuzzResult{
		Events:    len(sched.Events),
		Schedule:  sched.String(),
		EventTail: c.Events.Tail(0),
	}
	ops := rec.Ops()
	res.Ops = len(ops)
	for _, op := range ops {
		if op.Done {
			res.Completed++
		} else {
			res.Pending++
		}
	}
	res.Violation = linearize.Check(ops, linearize.Options{
		// Follower reads are stale-bounded by contract, not
		// linearizable: check read validity and write linearizability.
		WeakReads: cfg.ReadMode == readpath.Follower,
		// 2PC locks across the whole store; single-key checking is
		// equivalent for single-key ops but whole-history is the honest
		// granularity for an engine whose atomicity spans keys.
		WholeHistory: cfg.Protocol == protocol.TwoPC,
	})
	if res.Violation == nil {
		res.Violation = c.CheckConsistency()
	}
	return res, nil
}

// fuzzRepro renders the one-line reproduction command for a failing
// (seed, config) pair.
func fuzzRepro(cfg fuzzConfig) string {
	cfg = cfg.withDefaults()
	repro := fmt.Sprintf("go test -run 'TestScenarioFuzzSeed$' -seed=%d -proto=%s -shards=%d -snap=%d -readmode=%v",
		cfg.Seed, protoToken(cfg.Protocol), cfg.Shards, cfg.SnapshotInterval, cfg.ReadMode)
	if cfg.BatchAdaptive {
		repro += " -batchadaptive"
	}
	return repro + " ./internal/experiments"
}

// protoToken is a protocol's lowercase token: the -proto flag value of
// the reproduction command and the stem of scenario-fuzz's metric keys.
func protoToken(p protocol.ID) string {
	switch p {
	case protocol.OnePaxos:
		return "onepaxos"
	case protocol.MultiPaxos:
		return "multipaxos"
	case protocol.TwoPC:
		return "twopc"
	case protocol.Mencius:
		return "mencius"
	case protocol.BasicPaxos:
		return "basicpaxos"
	}
	return fmt.Sprintf("protocol-%d", int(p))
}

// fuzzRows is the scenario-fuzz experiment: seeded fault schedules
// against every engine over four deployment cells, one row of totals per
// engine. A run that fails the check is reported on w as it happens —
// the violation, its reproduction command and its event dump.
func fuzzRows(w io.Writer, opts Opts) []Row {
	perCell := 10
	if opts.Quick {
		perCell = 3
	}
	cells := []struct {
		shards, snap int
		read         readpath.Mode
	}{
		{1, 0, readpath.Consensus},
		{1, 0, readpath.Lease},
		{1, 16, readpath.Index},
		{2, 16, readpath.Follower},
	}
	var rows []Row
	for _, proto := range protocol.IDs() {
		r := Row{Key: protoToken(proto)}
		for ci, cell := range cells {
			for i := 0; i < perCell; i++ {
				cfg := fuzzConfig{
					Protocol:         proto,
					Seed:             opts.Seed*1_000_000 + int64(ci)*1000 + int64(i),
					Shards:           cell.shards,
					SnapshotInterval: cell.snap,
					ReadMode:         cell.read,
				}
				res, err := scenarioFuzz(cfg)
				if err != nil {
					fmt.Fprintf(w, "scenario fuzz %s: %v\n", r.Key, err)
					continue
				}
				r.Runs++
				r.Ops += res.Ops
				r.Completed += res.Completed
				r.Faults += res.Events
				if res.Violation != nil {
					r.Violations++
					fmt.Fprintf(w, "VIOLATION (%s): %v\n  reproduce: %s\n  event log:\n%s\n",
						r.Key, res.Violation, fuzzRepro(cfg), res.eventDump())
				}
			}
		}
		rows = append(rows, r)
	}
	return rows
}
