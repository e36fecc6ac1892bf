package consensusinside

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/protocol"
	_ "consensusinside/internal/protocol/all" // register every engine
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/seqwin"
	"consensusinside/internal/shard"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
	"consensusinside/internal/trace"
	"consensusinside/internal/transport"
)

// Protocol selects an agreement protocol, for simulated clusters and for
// StartKV alike.
type Protocol = cluster.Protocol

// Protocols under study: the paper's contribution, its two baselines, and
// the two related-work extensions (Section 8).
const (
	OnePaxos   = cluster.OnePaxos
	MultiPaxos = cluster.MultiPaxos
	TwoPC      = cluster.TwoPC
	Mencius    = cluster.Mencius
	BasicPaxos = cluster.BasicPaxos
)

// Protocols lists every registered protocol in ascending order, for
// sweeping the full protocol × runtime matrix.
func Protocols() []Protocol { return protocol.IDs() }

// SimSpec describes a simulated deployment (see cluster.Spec).
type SimSpec = cluster.Spec

// SimCluster is a runnable simulated deployment.
type SimCluster = cluster.Cluster

// NewSimCluster builds a simulated many-core deployment. Use the Machine*
// and Costs* helpers for the paper's configurations. It returns an error
// on malformed specs (nil machine, unknown protocol, too-small group).
func NewSimCluster(spec SimSpec) (*SimCluster, error) { return cluster.Build(spec) }

// Machine48 is the paper's 48-core evaluation machine (8 × 6-core AMD
// Opteron, Section 7.1).
func Machine48() *topology.Machine { return topology.Opteron48() }

// Machine8 is the paper's 8-core slow-core-experiment machine (4 × 2-core
// Opteron, Sections 2.2 and 7.6).
func Machine8() *topology.Machine { return topology.Opteron8() }

// CostsManyCore is the calibrated many-core cost model (Section 3).
func CostsManyCore() simnet.CostModel { return simnet.ManyCore() }

// CostsLAN is the calibrated LAN cost model (Section 3).
func CostsLAN() simnet.CostModel { return simnet.LAN() }

// TransportKind selects how a real (non-simulated) KV cluster
// communicates.
type TransportKind int

// Transports for StartKV.
const (
	// InProc runs replicas on goroutines connected by lock-free SPSC slot
	// queues — QC-libtask's design, in Go.
	InProc TransportKind = iota + 1
	// TCP runs each replica on a loopback TCP endpoint; the same protocol
	// code over length-prefixed binary frames (the paper's portability
	// claim).
	TCP
)

// String implements fmt.Stringer for test names and tables.
func (t TransportKind) String() string {
	switch t {
	case InProc:
		return "inproc"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// ReadMode selects how Get is served. The default, ReadConsensus, is
// the paper's strong-consistency mode: every read is a consensus
// command ordered in the replicated log like a write. The other modes
// trade consensus work on the read path for leases, quorum
// confirmation rounds, or bounded staleness — see DESIGN.md, "The read
// path".
type ReadMode int

// Read modes for StartKV (and cluster.Spec). The values are defined by
// conversion from the internal enum, so the public knob can never
// silently diverge from what the engines run.
const (
	// ReadConsensus orders every read through the replicated log (the
	// default, and the only mode the paper measures).
	ReadConsensus = ReadMode(readpath.Consensus)
	// ReadLease lets a stable leader serve reads from its local state
	// machine under a time-bound lease granted by the protocol's
	// serialization point (the active acceptor for 1Paxos, a quorum of
	// promise-withholding peers for Multi-Paxos). Linearizable while
	// clocks drift less than a quarter of the lease duration. Leaderless
	// engines degrade to ReadIndex.
	ReadLease = ReadMode(readpath.Lease)
	// ReadIndex serves linearizable reads without leases or clocks: the
	// serving replica captures its commit frontier, confirms it is still
	// current with one lightweight quorum round, waits for its state
	// machine to apply past the frontier, then reads locally. All reads
	// arriving during the round share it.
	ReadIndex = ReadMode(readpath.Index)
	// ReadFollower serves reads from any caught-up replica's local state
	// machine with no confirmation at all — monotonic per replica but
	// stale-bounded, not linearizable.
	ReadFollower = ReadMode(readpath.Follower)
)

// String implements fmt.Stringer for test names and tables.
func (m ReadMode) String() string { return readpath.Mode(m).String() }

// DefaultPipeline is the bridge's default window of in-flight commands.
// Concurrent Put/Get callers beyond this depth queue behind the window.
const DefaultPipeline = 16

// MaxShards bounds KVConfig.Shards (the sequence-tag width; see
// internal/shard).
const MaxShards = shard.MaxShards

// KVConfig configures a replicated key-value service.
type KVConfig struct {
	// Protocol selects the agreement engine (default OnePaxos). Any
	// registered protocol runs over either transport.
	Protocol Protocol
	// Replicas is the agreement group size — per shard (minimum and
	// default 3; 2PC accepts 2).
	Replicas int
	// Shards partitions the keyspace across that many independent
	// agreement groups of Replicas replicas each (default 1 — the
	// paper's single group). Each key hash-routes to one group; disjoint
	// keys in different groups commit in parallel with no coordination.
	Shards int
	// Transport selects InProc (default) or TCP.
	Transport TransportKind
	// Pipeline is the maximum number of commands the service keeps in
	// flight at once per shard (default DefaultPipeline; 1 restores the
	// paper's closed loop). Commands beyond the window queue in order.
	Pipeline int
	// BatchSize is the largest number of queued commands the service
	// coalesces into one consensus instance per shard (default 1 — the
	// paper's one-command-per-instance behavior). Batches are drawn from
	// the outstanding pipeline window, so BatchSize must not exceed
	// Pipeline (validated like Shards).
	BatchSize int
	// BatchDelay, when positive, holds a partial batch back up to this
	// long waiting for more commands before proposing it — the
	// group-commit latency/occupancy trade. Zero proposes partial
	// batches immediately; replicas answer a batch in one message, so
	// freed window slots refill as full batches under load either way.
	BatchDelay time.Duration
	// BatchAdaptive replaces the static batcher with an adaptive
	// controller (default off — the paper's static-knob behavior): each
	// pump proposes everything the pipeline window admits, so batches
	// grow with queue depth — single commands at low load (no added
	// latency), full-window batches under saturation (maximum
	// amortization) — with no BatchSize/BatchDelay tuning. It needs a
	// Pipeline of at least 2 (a window of 1 has nothing to adapt) and
	// excludes the static knobs: BatchSize above 1 or a positive
	// BatchDelay is a configuration conflict (validated like
	// Shards/BatchSize).
	BatchAdaptive bool
	// SnapshotInterval makes every replica capture a snapshot of its
	// durable state (state-machine image, session frontiers, applied
	// frontier) every this many applied instances and compact its log
	// behind it, keeping memory bounded under sustained load (default 0
	// = off, the paper's unbounded log). Snapshots also serve replica
	// recovery: see RestartReplica. Validated like Shards/BatchSize.
	SnapshotInterval int
	// SnapshotChunkSize is the payload size of one snapshot transfer
	// chunk during catch-up (default 64 KiB; capped well under the
	// transport's frame limit).
	SnapshotChunkSize int
	// ReadMode selects how Get is served (default ReadConsensus, the
	// paper's read-through-the-log behavior). ReadLease, ReadIndex and
	// ReadFollower serve reads from a replica's local state machine,
	// bypassing the proposer-side batcher entirely; see the ReadMode
	// constants and DESIGN.md, "The read path". Validated like
	// Shards/BatchSize.
	ReadMode ReadMode
	// LeaseDuration is the read-lease lifetime under ReadLease (default
	// 5ms). The leader treats the lease as expired a quarter-duration
	// early, which is the clock-drift margin the safety argument assumes.
	LeaseDuration time.Duration
	// RequestTimeout bounds each Put/Get round trip (default 5s).
	RequestTimeout time.Duration
	// AcceptTimeout tunes the protocol's failure detector; the default
	// suits wall-clock deployments (200ms).
	AcceptTimeout time.Duration
	// TraceInterval samples one write command in every this many through
	// the end-to-end lifecycle tracer (internal/trace): enqueue at the
	// bridge, batch admission, wire send, decide, apply, reply. Zero —
	// the default — leaves tracing off; the hooks stay compiled in at
	// the cost of one atomic load per site, so the steady-state path
	// still allocates nothing.
	TraceInterval int
	// DebugAddr, when non-empty, starts the debug HTTP listener on that
	// address at StartKV ("127.0.0.1:0" picks a free port; KV.DebugAddr
	// reports it). The surface serves /debug/metrics (the unified
	// registry as JSON), /debug/trace (recent trace samples and stage
	// breakdowns), /debug/events (the rare-event timeline) and
	// /debug/pprof (net/http/pprof). See KV.ServeDebug.
	DebugAddr string
}

// MaxSnapshotChunk bounds KVConfig.SnapshotChunkSize: chunks must stay
// comfortably under the transport's 16 MiB frame guard. Defined by
// conversion from the cluster package's bound so the two knobs can
// never silently diverge.
const MaxSnapshotChunk = cluster.MaxSnapshotChunk

// KV is a linearizable replicated string map: every operation (reads
// included, per Section 7.5's strong-consistency mode) is a consensus
// command applied by every replica of its key's group in log order,
// under whichever registered protocol the config selects. With
// KVConfig.Shards > 1 the keyspace is hash-partitioned across that many
// independent agreement groups behind the same Put/Get facade;
// linearizability is per key (each key lives in exactly one group's
// log), which is the guarantee an unsharded KV gives too.
type KV struct {
	cfg    KVConfig
	shards []*kvShard

	// tracer and registry are shared by every shard: one clock, one
	// sample ring, one metric namespace for the whole service.
	tracer   *trace.Tracer
	registry *obs.Registry
	debug    *debugServer

	closeOnce sync.Once
}

// kvShard is one agreement group: its engines, its runtime, the bridge
// that turns blocking Put/Get calls into that group's client traffic,
// and everything RestartReplica needs to boot a fresh replica back into
// the group (the engine builder and, over TCP, the fixed address map).
type kvShard struct {
	bridge *kvBridge
	inproc *runtime.InProcCluster

	build  func(id msg.NodeID, recover bool) (protocol.Engine, error)
	addrs  map[msg.NodeID]string // TCP listen addresses, stable across restarts
	tracer *trace.Tracer         // installed on restarted TCP nodes before they serve

	// mu guards the per-replica slots RestartReplica swaps out while
	// collect walks them from other goroutines.
	mu      sync.Mutex
	tcp     []*transport.TCPNode
	engines []protocol.Engine
	crashed []bool
}

func (s *kvShard) close() {
	if s.inproc != nil {
		s.inproc.Stop()
	}
	s.mu.Lock()
	nodes := append([]*transport.TCPNode(nil), s.tcp...)
	s.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
	s.bridge.close()
}

// collect is the shard's registry source: every counter its current
// TCP nodes, engines and bridge own, added under their own names. A
// crashed replica's counters stay in the totals until RestartReplica
// swaps its slot.
func (s *kvShard) collect(snap *obs.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.tcp {
		n.Collect(snap)
	}
	for _, eng := range s.engines {
		eng.Collect(snap)
	}
	s.bridge.Collect(snap)
}

// StartKV launches a replicated KV service with embedded replicas:
// KVConfig.Shards independent agreement groups (one by default), each
// with its own runtime, log and sessions, behind a single Put/Get
// facade that hash-routes every key to its group.
func StartKV(cfg KVConfig) (*KV, error) {
	if cfg.Protocol == 0 {
		cfg.Protocol = OnePaxos
	}
	info, ok := protocol.Lookup(cfg.Protocol)
	if !ok {
		return nil, fmt.Errorf("consensusinside: unknown protocol %d", int(cfg.Protocol))
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.Replicas < info.MinReplicas {
		return nil, fmt.Errorf("consensusinside: a %s group needs at least %d replicas",
			info.Name, info.MinReplicas)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("consensusinside: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > MaxShards {
		return nil, fmt.Errorf("consensusinside: %d shards exceeds the maximum %d",
			cfg.Shards, MaxShards)
	}
	if cfg.Transport == 0 {
		cfg.Transport = InProc
	}
	if cfg.Pipeline == 0 {
		cfg.Pipeline = DefaultPipeline
	}
	if cfg.Pipeline < 1 {
		cfg.Pipeline = 1
	}
	if err := rsm.CheckPipeline("consensusinside", cfg.Pipeline, cfg.BatchSize, cfg.BatchDelay, cfg.BatchAdaptive); err != nil {
		return nil, err
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 1
	}
	if cfg.SnapshotInterval < 0 {
		return nil, fmt.Errorf("consensusinside: negative snapshot interval %d", cfg.SnapshotInterval)
	}
	if cfg.SnapshotChunkSize < 0 {
		return nil, fmt.Errorf("consensusinside: negative snapshot chunk size %d", cfg.SnapshotChunkSize)
	}
	if cfg.SnapshotChunkSize > MaxSnapshotChunk {
		return nil, fmt.Errorf("consensusinside: snapshot chunk size %d exceeds the maximum %d",
			cfg.SnapshotChunkSize, MaxSnapshotChunk)
	}
	if !readpath.Mode(cfg.ReadMode).Valid() {
		return nil, fmt.Errorf("consensusinside: unknown read mode %d", int(cfg.ReadMode))
	}
	if cfg.LeaseDuration < 0 {
		return nil, fmt.Errorf("consensusinside: negative lease duration %v", cfg.LeaseDuration)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = 200 * time.Millisecond
	}
	if cfg.TraceInterval < 0 {
		return nil, fmt.Errorf("consensusinside: negative trace interval %d", cfg.TraceInterval)
	}

	kv := &KV{cfg: cfg, tracer: trace.New(cfg.TraceInterval), registry: obs.NewRegistry()}
	for s := 0; s < cfg.Shards; s++ {
		sh, err := startKVShard(cfg, s, kv.tracer, kv.registry.Events())
		if err != nil {
			kv.Close()
			return nil, err
		}
		kv.shards = append(kv.shards, sh)
		// The registry owns no counter (see internal/obs): each shard's
		// subsystems add their totals at Snapshot time only.
		kv.registry.AddSource(sh.collect)
	}
	kv.registry.AddSource(func(s *obs.Snapshot) { s.AddTracer(kv.tracer) })
	if cfg.DebugAddr != "" {
		if err := kv.ServeDebug(cfg.DebugAddr); err != nil {
			kv.Close()
			return nil, err
		}
	}
	return kv, nil
}

// startKVShard builds one agreement group on its own runtime. Every
// group's node ids run 0..Replicas-1 with the bridge at Replicas —
// groups never exchange messages, so their id spaces are independent;
// the bridge's sequence numbers carry the shard tag instead.
func startKVShard(cfg KVConfig, shardIdx int, tracer *trace.Tracer, events *obs.EventLog) (*kvShard, error) {
	ids := make([]msg.NodeID, cfg.Replicas)
	for i := range ids {
		ids[i] = msg.NodeID(i)
	}
	clientID := msg.NodeID(cfg.Replicas)

	sh := &kvShard{crashed: make([]bool, cfg.Replicas), tracer: tracer}
	sh.build = func(id msg.NodeID, recover bool) (protocol.Engine, error) {
		return protocol.Build(cfg.Protocol, protocol.Config{
			ID:                id,
			Replicas:          ids,
			AcceptTimeout:     cfg.AcceptTimeout,
			TakeoverBackoff:   cfg.AcceptTimeout / 2,
			UtilRetryTimeout:  cfg.AcceptTimeout,
			SnapshotInterval:  cfg.SnapshotInterval,
			SnapshotChunkSize: cfg.SnapshotChunkSize,
			TxRetryTimeout:    cfg.AcceptTimeout,
			Recover:           recover,
			ReadMode:          readpath.Mode(cfg.ReadMode),
			LeaseDuration:     cfg.LeaseDuration,
			Tracer:            tracer,
			Events:            events,
		})
	}
	handlers := make([]runtime.Handler, 0, cfg.Replicas+1)
	for _, id := range ids {
		eng, err := sh.build(id, false)
		if err != nil {
			return nil, fmt.Errorf("consensusinside: build shard %d replica %d: %w", shardIdx, id, err)
		}
		sh.engines = append(sh.engines, eng)
		handlers = append(handlers, eng)
	}
	// Clients should suspect a server a little after the servers' own
	// failure detector would, so takeovers settle before the retry lands.
	sh.bridge = newKVBridge(clientID, ids, 2*cfg.AcceptTimeout, cfg.Pipeline, shardIdx,
		cfg.BatchSize, cfg.BatchDelay, cfg.BatchAdaptive, readpath.Mode(cfg.ReadMode))
	sh.bridge.tracer = tracer
	handlers = append(handlers, sh.bridge)

	switch cfg.Transport {
	case InProc:
		sh.inproc = runtime.NewInProcCluster(handlers, runtime.WithTracer(tracer))
		sh.bridge.inject = func(m msg.Message) {
			sh.inproc.Inject(clientID, clientID, m)
		}
	case TCP:
		nodes, err := transport.BuildLocalClusterTraced(handlers, tracer)
		if err != nil {
			return nil, fmt.Errorf("consensusinside: start shard %d tcp cluster: %w", shardIdx, err)
		}
		sh.tcp = nodes
		sh.addrs = make(map[msg.NodeID]string, len(nodes))
		for i, n := range nodes {
			sh.addrs[msg.NodeID(i)] = n.Addr()
		}
		sh.bridge.inject = func(m msg.Message) {
			nodes[clientID].Inject(clientID, m)
		}
	default:
		return nil, fmt.Errorf("consensusinside: unknown transport %d", cfg.Transport)
	}
	return sh, nil
}

// shardFor routes a key to its agreement group — the stable hash
// routing every layer shares (internal/shard.ForKey).
func (kv *KV) shardFor(key string) *kvShard {
	return kv.shards[shard.ForKey(key, len(kv.shards))]
}

// Put replicates key=value in the key's group and waits for commitment.
func (kv *KV) Put(key, value string) error {
	_, err := kv.shardFor(key).bridge.do(msg.Command{Op: msg.OpPut, Key: key, Val: value}, kv.cfg.RequestTimeout)
	return err
}

// Get reads key in the key's group. Under the default ReadConsensus
// mode the read is a consensus command ordered in the log (Section
// 7.5's strongly-consistent read path); under the other modes it takes
// the read fast path — a separate queue on the bridge that coalesces
// reads into ReadRequest messages and lets a replica answer from its
// local state machine (see KVConfig.ReadMode).
func (kv *KV) Get(key string) (string, error) {
	sh := kv.shardFor(key)
	if kv.cfg.ReadMode != ReadConsensus {
		return sh.bridge.doRead(msg.Command{Op: msg.OpGet, Key: key}, kv.cfg.RequestTimeout)
	}
	return sh.bridge.do(msg.Command{Op: msg.OpGet, Key: key}, kv.cfg.RequestTimeout)
}

// Shards reports how many independent agreement groups serve the
// keyspace.
func (kv *KV) Shards() int { return len(kv.shards) }

// ShardFor reports which group serves key — the stable hash routing
// every layer shares (internal/shard.ForKey). Useful for pinning
// benchmark keys to groups and for reasoning about fault domains.
func (kv *KV) ShardFor(key string) int { return shard.ForKey(key, len(kv.shards)) }

// MaxInFlight reports the deepest any shard's command pipeline ever got
// — 1 under a closed loop, up to KVConfig.Pipeline with concurrent
// callers.
func (kv *KV) MaxInFlight() int {
	max := 0
	for _, sh := range kv.shards {
		sh.bridge.mu.Lock()
		if sh.bridge.maxInflight > max {
			max = sh.bridge.maxInflight
		}
		sh.bridge.mu.Unlock()
	}
	return max
}

// BatchStats reports the service's proposed-batch occupancy counters,
// folded across shards: how many batches (consensus instances carrying
// client commands) the bridges proposed and how full they ran. With
// BatchSize 1 every batch holds exactly one command.
func (kv *KV) BatchStats() metrics.BatchOccupancy {
	var occ metrics.BatchOccupancy
	for _, sh := range kv.shards {
		sh.bridge.mu.Lock()
		occ.Merge(&sh.bridge.occ)
		sh.bridge.mu.Unlock()
	}
	return occ
}

// CrashReplica stops a replica's node, simulating a failed core, on
// either transport. Replicas are indexed globally, group by group:
// id = shard*Replicas + replica-within-group, so 0 is the first shard's
// boot leader. Operations on that shard keep succeeding as long as the
// protocol's availability condition holds (for 1Paxos: a majority plus
// either the leader or the active acceptor; 2PC blocks until the
// replica returns); other shards are untouched.
//
// Errors are pinned: an id outside [0, Shards*Replicas) and a replica
// that is already crashed both fail — crashing is not idempotent, so a
// test harness that double-faults the same core hears about it. A
// crashed replica's state is gone for good; RestartReplica boots a
// fresh one that rejoins by catch-up.
func (kv *KV) CrashReplica(id int) error {
	sh, idx, err := kv.replicaAt(id)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.crashed[idx] {
		return fmt.Errorf("consensusinside: replica %d is already crashed", id)
	}
	if sh.inproc != nil {
		if err := sh.inproc.StopNode(msg.NodeID(idx)); err != nil {
			return err
		}
	} else {
		if err := sh.tcp[idx].Close(); err != nil {
			return err
		}
	}
	sh.crashed[idx] = true
	return nil
}

// RestartReplica boots a fresh replica in place of a crashed one — the
// missing counterpart of CrashReplica. The new replica starts empty, in
// recovery mode: it streams a snapshot (state image + session
// frontiers) and the retained log suffix from a live peer
// (internal/snapshot), rejoins agreement, and only then serves
// traffic. Over TCP it re-listens on the crashed replica's address, so
// peers reconnect lazily on their next send. It fails for an id outside
// the replica range and for a replica that is not crashed.
func (kv *KV) RestartReplica(id int) error {
	sh, idx, err := kv.replicaAt(id)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.crashed[idx] {
		return fmt.Errorf("consensusinside: replica %d is not crashed", id)
	}
	eng, err := sh.build(msg.NodeID(idx), true)
	if err != nil {
		return fmt.Errorf("consensusinside: rebuild replica %d: %w", id, err)
	}
	if sh.inproc != nil {
		if err := sh.inproc.RestartNode(msg.NodeID(idx), eng); err != nil {
			return err
		}
	} else {
		node, err := transport.NewTCPNode(msg.NodeID(idx), eng, sh.addrs)
		if err != nil {
			return fmt.Errorf("consensusinside: relisten replica %d: %w", id, err)
		}
		node.SetTracer(sh.tracer)
		if err := node.Start(); err != nil {
			node.Close()
			return fmt.Errorf("consensusinside: restart replica %d: %w", id, err)
		}
		sh.tcp[idx] = node
	}
	sh.engines[idx] = eng
	sh.crashed[idx] = false
	return nil
}

// replicaAt resolves a global replica id to its shard and in-group
// index.
func (kv *KV) replicaAt(id int) (*kvShard, int, error) {
	if id < 0 || id >= len(kv.shards)*kv.cfg.Replicas {
		return nil, 0, fmt.Errorf("consensusinside: no replica %d", id)
	}
	return kv.shards[id/kv.cfg.Replicas], id % kv.cfg.Replicas, nil
}

// Obs captures the service's metrics snapshot — the one stats surface:
// every named counter and histogram its subsystems report (wire.*,
// read.*, snap.*, session.*, batch.*, bridge.* and trace.*, summed
// across replicas and shards), plus the rare-event tail. wire.* is all
// zeros under InProc, which never touches a socket; read.* under
// ReadConsensus, where reads travel the write path; snap.* with
// SnapshotInterval off and no restarts. Snapshots from several
// services (or simulated clusters) Merge into fleet totals.
func (kv *KV) Obs() obs.Snapshot { return kv.registry.Snapshot() }

// Trace reports the tracer's snapshot: per-stage latency breakdowns
// and the ring of recently completed command lifecycles.
func (kv *KV) Trace() trace.Snapshot { return kv.tracer.Snapshot() }

// Events exposes the service's rare-event timeline: leader changes,
// lease grants and expiries, recovery episodes, across all shards.
func (kv *KV) Events() *obs.EventLog { return kv.registry.Events() }

// Close shuts the service down.
func (kv *KV) Close() {
	kv.closeOnce.Do(func() {
		if kv.debug != nil {
			kv.debug.close()
		}
		for _, sh := range kv.shards {
			sh.close()
		}
	})
}

// --- bridge: blocking API <-> message passing ---

// submitMsg wakes the bridge node to drain its pending queue.
type submitMsg struct{}

// Kind implements msg.Message.
func (submitMsg) Kind() string { return "kv_submit" }

type kvOp struct {
	cmd  msg.Command
	done chan kvResult
	// timeout/deadline drive the bridge-side deadline on both lanes
	// (the lanes' scan timers fail overdue ops — queued and in flight
	// alike — so do/doRead callers wait on a bare channel receive with
	// no timer of their own). timeout is set by do/doRead; the pumps
	// convert it to a deadline on the runtime clock as soon as they
	// first see the op, whether or not the window has room. A redirect
	// requeue carries the original deadline forward.
	timeout  time.Duration
	deadline time.Duration
	// enqWall is the tracer's wall clock at queue entry (zero with
	// tracing off); pump hands it to trace.Begin at admission, when the
	// command's sequence number — and so its sampling fate — is known.
	enqWall time.Duration
}

// kvFlight is one in-flight write command — the value the in-flight
// window holds. It is a plain value (no per-op pointer, no per-op
// timer): the write lane's scan timer sweeps the whole window,
// resending overdue flights and failing those past their deadline, so
// admitting a command to the window allocates nothing.
type kvFlight struct {
	cmd      msg.Command
	done     chan kvResult
	timeout  time.Duration
	deadline time.Duration // 0 = no deadline
	sentAt   time.Duration // last transmission (ctx.Now); the scan timer retries stale ones
}

// kvDonePool recycles the one-shot result channels do/doRead block on.
// Every op's channel receives exactly one send (the owning map or
// queue entry is removed before sending, on every path), so after the
// caller's receive the channel is empty and safe to reuse.
var kvDonePool = sync.Pool{New: func() any { return make(chan kvResult, 1) }}

func getKVDone() chan kvResult   { return kvDonePool.Get().(chan kvResult) }
func putKVDone(ch chan kvResult) { kvDonePool.Put(ch) }

type kvResult struct {
	value string
	err   error
}

// kvReadOp is one in-flight fast-path read — like kvFlight a plain
// value in its lane's window; batch names the coalesced ReadRequest it
// travelled in, and its deadline is when the scan timer gives up on it.
type kvReadOp struct {
	cmd      msg.Command
	done     chan kvResult
	batch    uint64        // kvReadBatch.id
	deadline time.Duration // 0 = no deadline
}

// kvReadBatch is the retry unit of the read path: one coalesced
// ReadRequest's worth of reads, which hold the consecutive read seqs
// [first, first+n). No timer is armed per batch — a single
// self-rearming scan timer (kvTimerReadRetry) sweeps all outstanding
// batches and resends the overdue ones, so the per-read hot path does
// zero runtime-timer operations.
type kvReadBatch struct {
	id     uint64
	first  uint64
	n      int
	live   int           // reads of this batch still in flight
	sentAt time.Duration // last transmission (ctx.Now); the scan timer retries stale ones
}

// Bridge timer kinds (the workload package's client kinds live at 900+
// too; the bridge is never co-located with one, so reuse is safe).
const (
	kvTimerRetry     = 900 // the write lane's scan timer: resend overdue flights, fail expired ones
	kvTimerFlush     = 901 // a held-back partial batch is due
	kvTimerReadRetry = 902 // the read lane's scan timer: resend overdue batches
)

// maxReadCoalesce caps how many queued reads one ReadRequest carries;
// maxReadRequests caps how many ReadRequests are outstanding at once.
// Reads never occupy a consensus instance, so the window is not for
// correctness — it creates backpressure: while the window is full,
// arriving reads pool in the queue and leave as a few large requests
// instead of a stream of tiny ones, amortizing the per-message cost on
// both the bridge and the serving replica (the same mechanism that
// batches writes, where the pipeline window does the pooling).
const (
	maxReadCoalesce = 128
	maxReadRequests = 2
)

// kvBridge is a Handler that converts synchronous Put/Get calls into
// client requests: external goroutines enqueue operations and poke the
// node; all protocol interaction happens on the node's own goroutine.
//
// Up to window commands are in flight at once (a pipelined client, each
// command with its own sequence number; one scan timer per lane sweeps
// the window for overdue and expired ones); the replicas' windowed
// per-(client, seq) session tracking keeps retries exactly-once
// even when pipelined commands commit out of order. The batcher sits
// between the queue and the window: each pump moves up to batch queued
// commands into the window as ONE request — one consensus instance —
// and delay optionally holds a partial batch back for stragglers.
//
// In a sharded service each shard has its own bridge; its sequence
// numbers carry the shard index in the high bits (shard.TagSeq), so no
// (client, seq) pair can ever alias across groups and the groups'
// session tables each see a dense per-lane sequence space.
type kvBridge struct {
	id       msg.NodeID
	servers  []msg.NodeID
	retry    time.Duration
	window   int
	batch    int
	delay    time.Duration
	adaptive bool   // KVConfig.BatchAdaptive: the pump sizes batches from load
	seqBase  uint64 // shard tag: every seq is seqBase + local count
	inject   func(msg.Message)
	tracer   *trace.Tracer // shared command tracer; nil or interval 0 = off

	// readMode is the service's KVConfig.ReadMode; when it is not
	// Consensus, Get calls flow through doRead into the read queue — a
	// lane of their own, bypassing the proposer-side batcher. Reads
	// never enter the replicated log, so they get their own sequence
	// space, in-flight window and scan timer; the write lane's session
	// tracking never sees them.
	readMode readpath.Mode

	// writeGrows and readGrows count doublings of the two in-flight
	// rings (the "bridge.*_ring_growths" metrics). Both rings start at
	// their lane's full depth, so a growth means one command stayed
	// outstanding while a ring's worth of newer ones retired past it.
	writeGrows atomic.Int64
	readGrows  atomic.Int64

	mu             sync.Mutex
	wakePending    bool // a submitMsg is already in flight toward the bridge node
	queue          []kvOp
	seq            uint64
	inflight       seqwin.Window[kvFlight] // by seq; Low is the lowest outstanding seq
	maxInflight    int
	target         int
	delayArmed     bool // a flush timer guards a held-back partial batch
	writeScanArmed bool // the write lane's scan timer is ticking
	closed         bool // close ran; new calls on either lane fail fast
	occ            metrics.BatchOccupancy

	readQueue     []kvOp
	readSeq       uint64
	readInflight  seqwin.Window[kvReadOp] // by read seq
	readBatches   []kvReadBatch           // outstanding requests, oldest first (at most maxReadRequests)
	readBatchID   uint64
	readTarget    int
	readScanArmed bool // the read lane's scan timer is ticking

	// Scratch for adapting bare single replies to the batch finish
	// paths without allocating; only touched on the bridge node's own
	// goroutine (Receive).
	oneReply [1]msg.ClientReply
	oneRead  [1]msg.ReadReply
}

var _ runtime.Handler = (*kvBridge)(nil)

func newKVBridge(id msg.NodeID, servers []msg.NodeID, retry time.Duration, window, shardIdx, batch int, delay time.Duration, adaptive bool, readMode readpath.Mode) *kvBridge {
	if retry <= 0 {
		retry = 250 * time.Millisecond
	}
	if window < 1 {
		window = 1
	}
	if batch < 1 {
		batch = 1
	}
	if batch > window {
		batch = window
	}
	base := shard.TagSeq(shardIdx, 0)
	b := &kvBridge{
		id:       id,
		servers:  append([]msg.NodeID(nil), servers...),
		retry:    retry,
		window:   window,
		batch:    batch,
		delay:    delay,
		adaptive: adaptive,
		readMode: readMode,
		seqBase:  base,
		seq:      base,
		readSeq:  base,
	}
	b.inflight = seqwin.New[kvFlight](base+1, window, &b.writeGrows)
	b.readInflight = seqwin.New[kvReadOp](base+1, maxReadCoalesce*maxReadRequests, &b.readGrows)
	return b
}

// Collect adds the bridge's counters to s: the proposed-batch occupancy
// ("batch.") and how often its two in-flight rings had to double
// ("bridge.*_ring_growths" — both rings start at their lane's full
// depth, so a count that keeps rising under steady load means a command
// is pinned outstanding while newer ones retire past it). Safe from any
// goroutine.
func (b *kvBridge) Collect(s *obs.Snapshot) {
	s.Add("bridge.write_ring_growths", b.writeGrows.Load())
	s.Add("bridge.read_ring_growths", b.readGrows.Load())
	b.mu.Lock()
	defer b.mu.Unlock()
	s.AddBatchOccupancy("batch", &b.occ)
}

// do enqueues a write-lane command and blocks until a replica answers
// (or the lane's scan timer fails it at its deadline).
func (b *kvBridge) do(cmd msg.Command, timeout time.Duration) (string, error) {
	return b.enqueue(&b.queue, true, cmd, timeout)
}

// doRead enqueues a fast-path read (any ReadMode but Consensus) and
// blocks until a replica answers from its local state machine. Reads
// ride their own queue — they never touch the write batcher or the
// pipeline window.
func (b *kvBridge) doRead(cmd msg.Command, timeout time.Duration) (string, error) {
	return b.enqueue(&b.readQueue, false, cmd, timeout)
}

// enqueue appends the command to one lane's queue (write says which),
// wakes the bridge node and waits for the result. The wait is a bare
// receive on a pooled one-shot channel: no caller-side timer, no
// allocation — the hottest per-op caller path does nothing but
// queue-append, channel receive, and channel recycle. The lock is taken
// and released in here, around nothing but the append: with 32 callers
// contending, holding it across the call from do/doRead measured 5 %
// off the read-heavy mix.
func (b *kvBridge) enqueue(q *[]kvOp, write bool, cmd msg.Command, timeout time.Duration) (string, error) {
	done := getKVDone()
	op := kvOp{cmd: cmd, done: done, timeout: timeout}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		putKVDone(done)
		return "", errors.New("consensusinside: service closed")
	}
	// Stamp the queue-entry clock only for ops the tracer will sample.
	// Seqs are handed out FIFO from the write queue, so under the lock
	// the op's future seq is b.seq + queue length + 1 — exactly, unless
	// a queued op ahead of it expires first (then the span just loses
	// its enqueue stamp and Begin substitutes propose time). The
	// predicate is an atomic load and a modulo; the clock read it guards
	// is a nanotime call per op, which is real money on the hot path.
	if write && b.tracer.Sampled(b.seq+uint64(len(b.queue))+1) {
		op.enqWall = b.tracer.Clock()
	}
	*q = append(*q, op)
	wake := !b.wakePending
	b.wakePending = true
	b.mu.Unlock()
	if wake {
		b.inject(submitMsg{})
	}
	res := <-done
	putKVDone(done)
	return res.value, res.err
}

// close fails every pending command on both lanes and every later one.
// The shard calls it after stopping its runtime: with the bridge node
// gone nothing else would ever deliver, and do/doRead callers hold no
// timer of their own.
func (b *kvBridge) close() {
	b.mu.Lock()
	b.closed = true
	pending := make([]chan kvResult, 0, len(b.queue)+b.inflight.Len()+len(b.readQueue)+b.readInflight.Len())
	for _, op := range b.queue {
		pending = append(pending, op.done)
	}
	b.queue = nil
	for _, fl := range b.inflight.All() {
		pending = append(pending, fl.done)
	}
	b.inflight.Advance(b.inflight.Next())
	for _, op := range b.readQueue {
		pending = append(pending, op.done)
	}
	b.readQueue = nil
	for _, op := range b.readInflight.All() {
		pending = append(pending, op.done)
	}
	b.readInflight.Advance(b.readInflight.Next())
	b.readBatches = nil
	b.mu.Unlock()
	for _, done := range pending {
		done <- kvResult{err: errors.New("consensusinside: service closed")}
	}
}

// Start implements runtime.Handler.
func (b *kvBridge) Start(runtime.Context) {}

// Receive implements runtime.Handler. A batched reply retires every
// answered command before the pump runs, so the freed window slots are
// refilled by one full batch instead of one command at a time.
func (b *kvBridge) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case submitMsg:
		// One wakeup drains everything enqueued since it was sent;
		// callers arriving after this point inject a fresh one.
		b.mu.Lock()
		b.wakePending = false
		b.mu.Unlock()
		b.pumpReads(ctx)
		b.pump(ctx, false)
	case msg.ClientReply:
		b.oneReply[0] = mm
		b.finishBatch(ctx, b.oneReply[:])
		b.pump(ctx, false)
	case msg.ClientReplyBatch:
		b.finishBatch(ctx, mm.Replies)
		// The batch's backing array came from the engine's reply pool
		// (transports deliver exactly once, and the bridge is the sole
		// receiver); hand it back now that every reply is consumed.
		msg.RecycleReplies(m)
		b.pump(ctx, false)
	case msg.ReadReply:
		b.oneRead[0] = mm
		b.finishReads(b.oneRead[:])
		b.pumpReads(ctx)
	case msg.ReadReplyBatch:
		b.finishReads(mm.Replies)
		msg.RecycleReadReplies(m)
		b.pumpReads(ctx)
	}
}

// finishBatch retires a batch of write replies under one lock,
// delivering each result to its blocked caller. The sends cannot
// block: every done channel has capacity 1 and receives exactly one
// send (the in-flight entry is removed first, so a duplicate or stale
// reply is ignored).
func (b *kvBridge) finishBatch(ctx runtime.Context, replies []msg.ClientReply) {
	traceOn := b.tracer.Enabled()
	var traceNow time.Duration
	if traceOn {
		traceNow = ctx.Now()
	}
	b.mu.Lock()
	for _, reply := range replies {
		p := b.inflight.Ptr(reply.Seq)
		if p == nil {
			continue // stale reply from a retried request
		}
		fl := *p
		b.inflight.Delete(reply.Seq)
		if traceOn {
			b.tracer.Finish(b.id, reply.Seq, traceNow)
		}
		if reply.OK {
			fl.done <- kvResult{value: reply.Result}
		} else {
			fl.done <- kvResult{err: errors.New("consensusinside: request rejected")}
		}
	}
	b.mu.Unlock()
}

// finishReads retires a batch of fast-path read replies under one
// lock. A redirect (the serving replica is not the leader, or is still
// recovering) re-queues the read at the front of the read queue aimed
// at the replica the reply named; the caller's pumpReads resends it.
// Redirect chases are bounded bridge-side: the requeued read keeps its
// original deadline and the read lane's scan timer fails it there.
func (b *kvBridge) finishReads(replies []msg.ReadReply) {
	type delivery struct {
		done chan kvResult
		res  kvResult
	}
	var deliveries []delivery
	var requeued []kvOp
	b.mu.Lock()
	for _, reply := range replies {
		p := b.readInflight.Ptr(reply.Seq)
		if p == nil {
			continue // stale reply from a retried read
		}
		op := *p
		b.readInflight.Delete(reply.Seq)
		for i := range b.readBatches {
			if batch := &b.readBatches[i]; batch.id == op.batch {
				if batch.live--; batch.live == 0 {
					b.readBatches = append(b.readBatches[:i], b.readBatches[i+1:]...)
				}
				break
			}
		}
		switch {
		case reply.OK:
			deliveries = append(deliveries, delivery{op.done, kvResult{value: reply.Result}})
		case reply.Redirect != msg.Nobody:
			for i, id := range b.servers {
				if id == reply.Redirect {
					b.readTarget = i
					break
				}
			}
			requeued = append(requeued, kvOp{cmd: op.cmd, done: op.done, deadline: op.deadline})
		default:
			deliveries = append(deliveries, delivery{op.done, kvResult{err: errors.New("consensusinside: read rejected")}})
		}
	}
	if len(requeued) > 0 {
		b.readQueue = append(requeued, b.readQueue...)
	}
	b.mu.Unlock()
	for _, d := range deliveries {
		d.done <- d.res
	}
}

// Timer implements runtime.Handler: the two lanes' scan timers (retry
// with server rotation — the paper's client failover behaviour: "once
// the clients detect the slow leader, they send their requests to
// other nodes") plus the batch flush deadline.
func (b *kvBridge) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	switch tag.Kind {
	case kvTimerRetry:
		// The write lane's scan tick, mirroring the read lane's: one
		// self-rearming timer sweeps the whole window, so admitting a
		// command costs no runtime-timer traffic. Overdue flights are
		// resent together as ONE batched request (their original seqs
		// ride along; the replicas' session dedupe reconciles them with
		// any still-live copy of the batches they first travelled in),
		// and flights or queued writes past their deadline fail with
		// the caller's timeout error. The window is walked in seq order,
		// so the sim runtime replays resends deterministically and a tick
		// that finds nothing overdue allocates nothing.
		now := ctx.Now()
		var expired []kvFlight
		var entries []msg.BatchEntry
		b.mu.Lock()
		for seq, fl := range b.inflight.All() {
			if fl.deadline > 0 && now >= fl.deadline {
				expired = append(expired, *fl)
				b.inflight.Delete(seq)
				continue
			}
			if now-fl.sentAt < b.retry {
				continue
			}
			fl.sentAt = now
			entries = append(entries, msg.BatchEntry{Seq: seq, Cmd: fl.cmd})
		}
		// Queued writes the saturated window has not admitted yet
		// carry deadlines too (stamped by pump): expire them here, so
		// a caller's total wait is bounded by its own timeout no
		// matter how long the window sits against an unresponsive
		// cluster.
		if len(b.queue) > 0 {
			kept := b.queue[:0]
			for _, op := range b.queue {
				if op.deadline > 0 && now >= op.deadline {
					expired = append(expired, kvFlight{cmd: op.cmd, done: op.done, timeout: op.timeout})
					continue
				}
				kept = append(kept, op)
			}
			b.queue = kept
		}
		var target msg.NodeID
		var ack uint64
		if len(entries) > 0 {
			b.target = (b.target + 1) % len(b.servers)
			target = b.servers[b.target]
			ack = b.inflight.Low() // the resent flights are outstanding, so Low is the lowest of them
		}
		rearm := b.inflight.Len() > 0 || len(b.queue) > 0
		b.writeScanArmed = rearm
		b.mu.Unlock()
		for _, fl := range expired {
			fl.done <- kvResult{err: fmt.Errorf("consensusinside: %s %q timed out after %v", fl.cmd.Op, fl.cmd.Key, fl.timeout)}
		}
		if len(entries) > 0 {
			ctx.Send(target, msg.NewRequest(b.id, ack, entries))
		}
		if rearm {
			ctx.After(b.retry, runtime.TimerTag{Kind: kvTimerRetry})
		}
		// Expired flights may have freed window slots.
		b.pump(ctx, false)
	case kvTimerFlush:
		// The held-back partial batch is due: propose what is queued.
		b.mu.Lock()
		b.delayArmed = false
		b.mu.Unlock()
		b.pump(ctx, true)
	case kvTimerReadRetry:
		// The read lane's scan tick: sweep outstanding batches, fail
		// reads past their deadline, resend the overdue rest — suspect
		// their server, rotate. One ticker serves every batch, so the
		// per-read hot path never touches a runtime timer. Batches are
		// kept oldest first, so the sim runtime replays resends
		// deterministically and a tick that finds nothing overdue
		// allocates nothing.
		now := ctx.Now()
		var resends [][]msg.BatchEntry
		var expired []chan kvResult
		b.mu.Lock()
		kept := b.readBatches[:0]
		for _, batch := range b.readBatches {
			if now-batch.sentAt < b.retry {
				kept = append(kept, batch)
				continue
			}
			entries := make([]msg.BatchEntry, 0, batch.live)
			for seq := batch.first; seq < batch.first+uint64(batch.n); seq++ {
				op := b.readInflight.Ptr(seq)
				if op == nil {
					continue
				}
				if op.deadline > 0 && now >= op.deadline {
					expired = append(expired, op.done)
					b.readInflight.Delete(seq)
					batch.live--
					continue
				}
				entries = append(entries, msg.BatchEntry{Seq: seq, Cmd: op.cmd})
			}
			if len(entries) == 0 {
				continue
			}
			batch.sentAt = now
			kept = append(kept, batch)
			resends = append(resends, entries)
		}
		b.readBatches = kept
		// Queued reads the saturated window has not admitted yet carry
		// deadlines too (stamped by pumpReads): expire them here, so a
		// caller's total wait is bounded by its own timeout no matter
		// how long earlier batches sit against an unresponsive cluster.
		if len(b.readQueue) > 0 {
			kept := b.readQueue[:0]
			for _, op := range b.readQueue {
				if op.deadline > 0 && now >= op.deadline {
					expired = append(expired, op.done)
					continue
				}
				kept = append(kept, op)
			}
			b.readQueue = kept
		}
		if len(resends) > 0 {
			b.readTarget = (b.readTarget + 1) % len(b.servers)
		}
		target := b.servers[b.readTarget]
		rearm := len(b.readBatches) > 0 || len(b.readQueue) > 0
		b.readScanArmed = rearm
		b.mu.Unlock()
		for _, done := range expired {
			done <- kvResult{err: errors.New("consensusinside: read timed out")}
		}
		for _, entries := range resends {
			ctx.Send(target, msg.ReadRequest{Client: b.id, Mode: int(b.readMode), Entries: entries})
		}
		if rearm {
			ctx.After(b.retry, runtime.TimerTag{Kind: kvTimerReadRetry})
		}
		// Expired batches may have freed read-window slots.
		b.pumpReads(ctx)
	}
}

// pumpReads drains the read queue: each pass coalesces every queued
// read (up to maxReadCoalesce) into one ReadRequest, which the read
// lane's scan timer resends if it goes overdue. Under ReadFollower the
// target rotates per request, spreading reads across all replicas —
// that load spread is the mode's whole point; the confirmed modes stay
// sticky on the replica that last answered (redirects re-aim them).
func (b *kvBridge) pumpReads(ctx runtime.Context) {
	now := ctx.Now()
	for {
		b.mu.Lock()
		// Stamp deadlines before the window check: a read's timeout runs
		// from when the bridge first sees it, not from when a window slot
		// frees up, so a saturated read window cannot leave queued Gets
		// deadline-less (the scan timer sweeps the queue too).
		stampDeadlines(b.readQueue, now)
		if len(b.readQueue) == 0 || len(b.readBatches) >= maxReadRequests {
			b.mu.Unlock()
			return
		}
		n := len(b.readQueue)
		if n > maxReadCoalesce {
			n = maxReadCoalesce
		}
		b.readBatchID++
		b.readBatches = append(b.readBatches, kvReadBatch{id: b.readBatchID, first: b.readSeq + 1, n: n, live: n, sentAt: now})
		entries := make([]msg.BatchEntry, n)
		for i := 0; i < n; i++ {
			op := b.readQueue[i]
			b.readSeq++
			*b.readInflight.Slot(b.readSeq) = kvReadOp{cmd: op.cmd, done: op.done, batch: b.readBatchID, deadline: op.deadline}
			entries[i] = msg.BatchEntry{Seq: b.readSeq, Cmd: op.cmd}
		}
		b.readQueue = b.readQueue[n:]
		if b.readMode == readpath.Follower {
			b.readTarget = (b.readTarget + 1) % len(b.servers)
		}
		target := b.servers[b.readTarget]
		arm := !b.readScanArmed
		b.readScanArmed = true
		b.mu.Unlock()
		ctx.Send(target, msg.ReadRequest{Client: b.id, Mode: int(b.readMode), Entries: entries})
		if arm {
			ctx.After(b.retry, runtime.TimerTag{Kind: kvTimerReadRetry})
		}
	}
}

// stampDeadlines starts the timeout clock of the queued ops a pump has
// not seen yet. Ops join a queue at its tail and every pump stamps all
// it finds, so the unseen ones are the trailing run without a deadline
// — the walk stops at the first stamped op instead of covering the
// whole backlog on every call.
func stampDeadlines(queue []kvOp, now time.Duration) {
	for i := len(queue) - 1; i >= 0 && queue[i].deadline == 0; i-- {
		if op := &queue[i]; op.timeout > 0 {
			op.deadline = now + op.timeout
		}
	}
}

// pump moves queued commands into the pipeline window, up to batch of
// them per request — one consensus instance each. With a positive
// delay, a batch that cannot fill (too few queued commands or free
// slots) is held back until the flush timer forces it out. Under
// BatchAdaptive the static knobs are ignored entirely: each pass takes
// everything the window admits, so the effective batch size follows
// the offered load (the queue depth) with no holds and no flush timer.
func (b *kvBridge) pump(ctx runtime.Context, force bool) {
	now := ctx.Now()
	for {
		b.mu.Lock()
		// Stamp deadlines before the window check (mirroring pumpReads):
		// a write's timeout runs from when the bridge first sees it, not
		// from when a window slot frees up, so a saturated window cannot
		// leave queued Puts deadline-less (the scan timer sweeps the
		// queue too).
		stampDeadlines(b.queue, now)
		free := b.window - b.inflight.Len()
		if free <= 0 || len(b.queue) == 0 {
			b.mu.Unlock()
			return
		}
		n := free
		if n > len(b.queue) {
			n = len(b.queue)
		}
		if b.adaptive {
			// The adaptive controller sizes each batch from the queue
			// depth (the offered load) and the window occupancy, under
			// two rules. First: never the whole window in one instance —
			// capping a batch at half the window keeps at least two
			// instances pipelined under saturation, so one batch is in
			// the accept phase while the previous applies and replies
			// (greedy whole-window batches serialize those round trips
			// and throughput collapses to batch/RTT). Second: when more
			// load is queued than the free slots admit, wait for
			// completions instead of fragmenting instances — replies
			// arrive batched, so held slots free together and the next
			// pass proposes a full half-window. Without this hold one
			// single-command instance begets one freed slot begets the
			// next single, and the controller never escapes
			// single-command batches. Light load (queue no deeper than
			// the free window) always goes out immediately, whole — the
			// batch-1 latency profile.
			limit := (b.window + 1) / 2
			if n > limit {
				n = limit
			}
			if n < limit && len(b.queue) > n {
				b.mu.Unlock()
				return
			}
		} else {
			if n > b.batch {
				n = b.batch
			}
			if n < b.batch && len(b.queue) >= b.batch {
				// A full batch is queued but the window lacks the slots:
				// wait for completions instead of fragmenting instances.
				// Replies arrive batched, so the slots free together and the
				// very next pump proposes a full batch — without this hold,
				// one single-command instance begets one freed slot begets
				// the next single, and the batcher never recovers from a
				// single-command cold start.
				b.mu.Unlock()
				return
			}
			if b.delay > 0 && !force && n < b.batch {
				// The queue itself is short of a batch: hold it back for
				// stragglers, at most delay.
				armed := b.delayArmed
				b.delayArmed = true
				b.mu.Unlock()
				if !armed {
					ctx.After(b.delay, runtime.TimerTag{Kind: kvTimerFlush})
				}
				return
			}
		}
		// The entries slice is the one per-batch allocation left on this
		// path; it cannot be pooled — it becomes Value.Batch and is
		// retained in every replica's log history.
		traceOn := b.tracer.Enabled()
		entries := make([]msg.BatchEntry, n)
		for i := 0; i < n; i++ {
			op := b.queue[i]
			b.seq++
			*b.inflight.Slot(b.seq) = kvFlight{cmd: op.cmd, done: op.done, timeout: op.timeout, deadline: op.deadline, sentAt: now}
			entries[i] = msg.BatchEntry{Seq: b.seq, Cmd: op.cmd}
			if traceOn {
				b.tracer.Begin(b.id, b.seq, now, op.enqWall, now)
			}
		}
		b.queue = b.queue[n:]
		if b.inflight.Len() > b.maxInflight {
			b.maxInflight = b.inflight.Len()
		}
		target := b.servers[b.target]
		// The ack floor every request carries, so replicas can discard
		// older stored results: the lowest outstanding seq, which the
		// window keeps as its Low.
		ack := b.inflight.Low()
		b.occ.Record(n)
		arm := !b.writeScanArmed
		b.writeScanArmed = true
		b.mu.Unlock()

		ctx.Send(target, msg.NewRequest(b.id, ack, entries))
		if arm {
			ctx.After(b.retry, runtime.TimerTag{Kind: kvTimerRetry})
		}
	}
}
