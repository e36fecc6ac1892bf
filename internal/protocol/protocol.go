// Package protocol is the seam between deployments and agreement
// protocols: a protocol is written once against the message-passing
// contract (runtime.Handler) and registered here; the simulator harness
// (internal/cluster), the in-process runtime and the TCP transport all
// construct engines through this registry without naming any protocol
// package. This is the paper's portability claim turned into an
// interface: any protocol × any runtime.
package protocol

import (
	"fmt"
	"sort"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/trace"
)

// ID selects an agreement protocol.
type ID int

// Registered protocols: the paper's contribution (1Paxos), its two
// baselines, and the two related-work extensions (Section 8).
const (
	OnePaxos ID = iota + 1
	MultiPaxos
	TwoPC
	Mencius
	BasicPaxos
)

// String implements fmt.Stringer. Registered protocols print their
// registered name; unregistered values print a diagnostic placeholder
// (the engine packages own the names — no second copy lives here).
func (p ID) String() string {
	if info, ok := Lookup(p); ok {
		return info.Name
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// Config is the protocol-independent construction contract. Engines take
// the knobs they understand and ignore the rest; zero values mean the
// engine's own defaults.
type Config struct {
	// ID is this node; Replicas is the agreement group in a fixed order
	// shared by all nodes.
	ID       msg.NodeID
	Replicas []msg.NodeID

	// Applier is the replicated state machine; nil means a fresh KV.
	Applier rsm.Applier

	// AcceptTimeout tunes the failure detector of timeout-driven engines
	// (how long to wait for an accept/learn before suspecting a peer).
	// Every engine's recovery watchdog, 2PC's included, runs at twice it.
	AcceptTimeout time.Duration

	// TakeoverBackoff delays a retry after a lost takeover/prepare duel.
	TakeoverBackoff time.Duration

	// UtilRetryTimeout overrides the side-consensus retry timeout of
	// engines that embed one (1Paxos's PaxosUtility).
	UtilRetryTimeout time.Duration

	// ForwardToLeader makes non-leader replicas forward client requests
	// to the current leader (the Joint deployment of Section 7.4) instead
	// of competing for leadership.
	ForwardToLeader bool

	// LearnBatching coalesces learner broadcasts where the engine
	// supports it (1Paxos acceptor-side batching, DESIGN.md ablation).
	LearnBatching bool

	// LocalReads serves reads from the local replica where the engine
	// supports it (2PC joint-mode local reads, Section 7.5).
	LocalReads bool

	// SnapshotInterval makes the engine compact its log every this many
	// applied instances (internal/snapshot); an engine without an
	// instance log has nothing to compact and ignores it. A snapshot is
	// captured only when a peer needs state the log cannot supply. Zero
	// — the default — is the paper's unbounded-memory behavior.
	SnapshotInterval int

	// Recover makes the engine stream a snapshot and log suffix from a
	// live peer before serving clients — the restarted-replica mode
	// (KV.RestartReplica builds engines with this set).
	Recover bool

	// TxRetryTimeout enables coordinator-side retransmission of pending
	// transaction phases in engines that have them (2PC), so a restarted
	// participant can unblock a transaction stalled by its crash. Zero
	// disables retransmission — the paper's strictly blocking 2PC.
	TxRetryTimeout time.Duration

	// ReadMode selects the read fast path (internal/readpath): reads
	// served without an agreement instance under a leader lease, a
	// read-index quorum round, or from any caught-up follower. The zero
	// value is the paper's read-through-consensus behavior. Engines
	// whose structure cannot support a mode degrade it as documented in
	// DESIGN.md (leases degrade to read-index on leaderless engines).
	ReadMode readpath.Mode

	// LeaseDuration overrides readpath.DefaultLeaseDuration for
	// ReadMode == readpath.Lease.
	LeaseDuration time.Duration

	// Tracer, when non-nil, receives decide/apply stage stamps for
	// sampled commands (internal/trace): from the learner log the
	// replica shell builds, or, for an engine without one, from its own
	// commit path.
	Tracer *trace.Tracer

	// Events, when non-nil, receives rare-event timeline entries
	// (internal/obs): leader changes, lease grants and expiries,
	// recovery episodes.
	Events *obs.EventLog
}

// Engine is the face a running protocol replica shows to a deployment:
// the message-passing contract, the applied-command counter every
// experiment reads, and the shared subsystems' counters and test hooks.
// Engines get everything but the Handler methods from the replica shell
// they embed (internal/replica), so deployments never probe for them.
type Engine interface {
	runtime.Handler
	// Commits reports how many instances (commands, for engines without
	// an instance log) this replica has applied.
	Commits() int64
	// Collect adds the replica's counters (snap.*, read.*, session.*)
	// to a snapshot; deployments call it once per replica and the
	// values add up to service totals. Safe from any goroutine.
	Collect(*obs.Snapshot)
	// Recovered reports whether a replica built with Config.Recover has
	// caught up (trivially true otherwise). Safe from any goroutine.
	Recovered() bool
	// ReadPath exposes the read-path server for its test hooks (clock
	// skew, the scenario fuzzer's revert guard).
	ReadPath() *readpath.Server
	// Log is the instance-indexed learner log; deployments use it for
	// cross-replica consistency checks. It is nil for an engine without
	// a total order (2PC).
	Log() *rsm.Log
}

// Info describes one registered protocol.
type Info struct {
	// Name is the display name ("1Paxos").
	Name string
	// MinReplicas is the smallest legal agreement group.
	MinReplicas int
	// New constructs a replica engine for one node.
	New func(Config) Engine
}

var registry = map[ID]Info{}

// Register installs a protocol under id. It is called from the engine
// packages' init functions (import consensusinside/internal/protocol/all
// to register every engine) and panics on duplicates — a wiring bug.
func Register(id ID, info Info) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("protocol: duplicate registration of %d (%s)", int(id), info.Name))
	}
	if info.New == nil {
		panic(fmt.Sprintf("protocol: registration of %s lacks a constructor", info.Name))
	}
	if info.MinReplicas < 2 {
		info.MinReplicas = 2
	}
	registry[id] = info
}

// Lookup reports the registration for id.
func Lookup(id ID) (Info, bool) {
	info, ok := registry[id]
	return info, ok
}

// IDs lists every registered protocol in ascending order.
func IDs() []ID {
	out := make([]ID, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Build validates cfg against id's registration and constructs an
// engine. It returns an error for unknown protocols, malformed groups
// and out-of-range snapshot, read-path and retry settings, so every
// deployment that builds engines (StartKV, cluster.Build, bench/'s
// ladder, the engine tests) rejects the same values without repeating
// the checks.
func Build(id ID, cfg Config) (Engine, error) {
	info, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("protocol: unknown protocol %d (missing registration import?)", int(id))
	}
	if len(cfg.Replicas) < info.MinReplicas {
		return nil, fmt.Errorf("protocol: %s needs at least %d replicas, got %d",
			info.Name, info.MinReplicas, len(cfg.Replicas))
	}
	member := false
	for _, r := range cfg.Replicas {
		if r == cfg.ID {
			member = true
			break
		}
	}
	if !member {
		return nil, fmt.Errorf("protocol: node %d not in %s replica set %v", cfg.ID, info.Name, cfg.Replicas)
	}
	if cfg.SnapshotInterval < 0 {
		return nil, fmt.Errorf("protocol: negative snapshot interval %d", cfg.SnapshotInterval)
	}
	if !cfg.ReadMode.Valid() {
		return nil, fmt.Errorf("protocol: unknown read mode %d", int(cfg.ReadMode))
	}
	if cfg.LeaseDuration < 0 {
		return nil, fmt.Errorf("protocol: negative lease duration %v", cfg.LeaseDuration)
	}
	if cfg.TxRetryTimeout < 0 {
		return nil, fmt.Errorf("protocol: negative transaction retry timeout %v", cfg.TxRetryTimeout)
	}
	return info.New(cfg), nil
}
