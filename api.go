package consensusinside

import (
	"fmt"
	stdruntime "runtime"
	"sync"
	"time"

	"consensusinside/internal/client"
	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/protocol"
	_ "consensusinside/internal/protocol/all" // register every engine
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/shard"
	"consensusinside/internal/trace"
	"consensusinside/internal/transport"
)

// Protocol selects the agreement engine StartKV runs.
type Protocol = protocol.ID

// Protocols under study: the paper's contribution, its two baselines, and
// the two related-work extensions (Section 8).
const (
	OnePaxos   = protocol.OnePaxos
	MultiPaxos = protocol.MultiPaxos
	TwoPC      = protocol.TwoPC
	Mencius    = protocol.Mencius
	BasicPaxos = protocol.BasicPaxos
)

// Protocols lists every registered protocol in ascending order, for
// sweeping the full protocol × runtime matrix.
func Protocols() []Protocol { return protocol.IDs() }

// TransportKind selects how a real (non-simulated) KV cluster
// communicates.
type TransportKind int

// Transports for StartKV.
const (
	// InProc runs replicas on cores — at most GOMAXPROCS goroutines, each
	// multiplexing several replicas — connected by lock-free SPSC slot
	// queues: QC-libtask's design, in Go.
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

// Read modes for StartKV. The values are defined by conversion from the
// internal enum, so the public knob can never silently diverge from what
// the engines run.
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
	// paper's closed loop; negative is rejected). Commands beyond the
	// window queue in order.
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
	// SnapshotInterval makes every replica compact its log every this
	// many applied instances, keeping between one and two intervals of
	// entries and so bounding memory under sustained load (default 0 =
	// off, the paper's unbounded log). Nothing is encoded on that
	// cadence: a snapshot of a replica's durable state (state-machine
	// image, session frontiers, applied frontier) is captured only when
	// a peer asks for state the log no longer holds — see
	// RestartReplica. Validated like Shards/BatchSize.
	SnapshotInterval int
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
	// RequestTimeout bounds each Put/Get round trip (default 5s;
	// negative is rejected — there is no "never time out").
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
	// inproc runs every shard's replicas and bridge on one set of cores
	// (nil over TCP).
	inproc *runtime.InProcCluster

	// tracer and registry are shared by every shard: one clock, one
	// sample ring, one metric namespace for the whole service.
	tracer   *trace.Tracer
	registry *obs.Registry
	debug    *debugServer

	closeOnce sync.Once
}

// kvShard is one agreement group: its engines, its nodes, the bridge
// that turns blocking Put/Get calls into that group's client traffic,
// and everything RestartReplica needs to boot a fresh replica back into
// the group (the engine builder and, over TCP, the fixed address map).
type kvShard struct {
	bridge *kvBridge
	inproc *runtime.InProcGroup

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

// close stops the shard's TCP nodes and fails its pending calls; the
// InProc runtime must already be stopped, since the bridge's lane is
// node-private.
func (s *kvShard) close() {
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
// with its own nodes, log and sessions, behind a single Put/Get facade
// that hash-routes every key to its group. Over InProc the groups share
// one runtime's cores; over TCP every replica is its own endpoint.
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
	if cfg.Transport != InProc && cfg.Transport != TCP {
		return nil, fmt.Errorf("consensusinside: unknown transport %d", cfg.Transport)
	}
	if cfg.Pipeline == 0 {
		cfg.Pipeline = DefaultPipeline
	}
	if err := rsm.CheckPipeline("consensusinside", cfg.Pipeline, cfg.BatchSize, cfg.BatchDelay, cfg.BatchAdaptive); err != nil {
		return nil, err
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 1
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("consensusinside: negative request timeout %v", cfg.RequestTimeout)
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
	groups := make([][]runtime.Handler, 0, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		sh, handlers, err := newKVShard(cfg, s, kv.tracer, kv.registry.Events())
		if err == nil && cfg.Transport == TCP {
			err = sh.startTCP(handlers, s)
		}
		if err != nil {
			kv.Close()
			return nil, err
		}
		kv.shards = append(kv.shards, sh)
		groups = append(groups, handlers)
		// The registry owns no counter (see internal/obs): each shard's
		// subsystems add their totals at Snapshot time only.
		kv.registry.AddSource(sh.collect)
	}
	if cfg.Transport == InProc {
		kv.startInProc(groups)
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

// newKVShard builds one agreement group: its engines and bridge, as
// handlers for a runtime to run. Every group's node ids run
// 0..Replicas-1 with the bridge at Replicas — groups never exchange
// messages, so their id spaces are independent; the bridge's sequence
// numbers carry the shard tag instead.
func newKVShard(cfg KVConfig, shardIdx int, tracer *trace.Tracer, events *obs.EventLog) (*kvShard, []runtime.Handler, error) {
	ids := make([]msg.NodeID, cfg.Replicas)
	for i := range ids {
		ids[i] = msg.NodeID(i)
	}
	clientID := msg.NodeID(cfg.Replicas)

	sh := &kvShard{crashed: make([]bool, cfg.Replicas), tracer: tracer}
	sh.build = func(id msg.NodeID, recover bool) (protocol.Engine, error) {
		return protocol.Build(cfg.Protocol, protocol.Config{
			ID:               id,
			Replicas:         ids,
			AcceptTimeout:    cfg.AcceptTimeout,
			TakeoverBackoff:  cfg.AcceptTimeout / 2,
			UtilRetryTimeout: cfg.AcceptTimeout,
			SnapshotInterval: cfg.SnapshotInterval,
			TxRetryTimeout:   cfg.AcceptTimeout,
			Recover:          recover,
			ReadMode:         readpath.Mode(cfg.ReadMode),
			LeaseDuration:    cfg.LeaseDuration,
			Tracer:           tracer,
			Events:           events,
		})
	}
	handlers := make([]runtime.Handler, 0, cfg.Replicas+1)
	for _, id := range ids {
		eng, err := sh.build(id, false)
		if err != nil {
			return nil, nil, fmt.Errorf("consensusinside: build shard %d replica %d: %w", shardIdx, id, err)
		}
		sh.engines = append(sh.engines, eng)
		handlers = append(handlers, eng)
	}
	// Clients should suspect a server a little after the servers' own
	// failure detector would, so takeovers settle before the retry lands.
	sh.bridge = newKVBridge(client.Config{
		ID:       clientID,
		Servers:  ids,
		Shard:    shardIdx,
		Retry:    2 * cfg.AcceptTimeout,
		Window:   cfg.Pipeline,
		Batch:    cfg.BatchSize,
		Delay:    cfg.BatchDelay,
		Adaptive: cfg.BatchAdaptive,
		ReadMode: readpath.Mode(cfg.ReadMode),
		Tracer:   tracer,
	}, cfg.RequestTimeout)
	handlers = append(handlers, sh.bridge)
	return sh, handlers, nil
}

// startTCP runs the shard's handlers on loopback TCP nodes, one per
// handler, the bridge last.
func (s *kvShard) startTCP(handlers []runtime.Handler, shardIdx int) error {
	nodes, err := transport.BuildLocalClusterTraced(handlers, s.tracer)
	if err != nil {
		return fmt.Errorf("consensusinside: start shard %d tcp cluster: %w", shardIdx, err)
	}
	s.tcp = nodes
	s.addrs = make(map[msg.NodeID]string, len(nodes))
	for i, n := range nodes {
		s.addrs[msg.NodeID(i)] = n.Addr()
	}
	bridgeID := msg.NodeID(len(nodes) - 1)
	s.bridge.inject = func(m msg.Message) { nodes[bridgeID].Inject(bridgeID, m) }
	return nil
}

// startInProc runs every shard on one in-process runtime of
// min(Shards·(Replicas+1), GOMAXPROCS) cores — a node per core where the
// host has them, as the paper places replicas. Its placement keeps each
// group's leader and acceptor on different cores whenever there are two.
func (kv *KV) startInProc(groups [][]runtime.Handler) {
	cores := min(kv.cfg.Shards*(kv.cfg.Replicas+1), stdruntime.GOMAXPROCS(0))
	kv.inproc = runtime.NewInProcGroups(groups, cores, runtime.WithTracer(kv.tracer))
	bridgeID := msg.NodeID(kv.cfg.Replicas)
	for s, sh := range kv.shards {
		grp := kv.inproc.Group(s)
		sh.inproc = grp
		sh.bridge.inject = func(m msg.Message) { grp.Inject(bridgeID, bridgeID, m) }
	}
}

// shardFor routes a key to its agreement group — the stable hash
// routing every layer shares (internal/shard.ForKey).
func (kv *KV) shardFor(key string) *kvShard {
	return kv.shards[shard.ForKey(key, len(kv.shards))]
}

// Put replicates key=value in the key's group and waits for commitment.
func (kv *KV) Put(key, value string) error {
	_, err := kv.shardFor(key).bridge.enqueue(msg.Command{Op: msg.OpPut, Key: key, Val: value})
	return err
}

// Get reads key in the key's group. Under the default ReadConsensus
// mode the read is a consensus command ordered in the log (Section
// 7.5's strongly-consistent read path); under the other modes it takes
// the read fast path — a separate queue on the bridge that coalesces
// reads into ReadRequest messages and lets a replica answer from its
// local state machine (see KVConfig.ReadMode).
func (kv *KV) Get(key string) (string, error) {
	return kv.shardFor(key).bridge.enqueue(msg.Command{Op: msg.OpGet, Key: key})
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
	deepest := 0
	for _, sh := range kv.shards {
		deepest = max(deepest, int(sh.bridge.lane.MaxInFlight.Load()))
	}
	return deepest
}

// BatchStats reports the service's proposed-batch occupancy counters,
// folded across shards: how many batches (consensus instances carrying
// client commands) the bridges proposed and how full they ran. With
// BatchSize 1 every batch holds exactly one command.
func (kv *KV) BatchStats() metrics.BatchOccupancy {
	var occ metrics.BatchOccupancy
	for _, sh := range kv.shards {
		occ.Merge(&sh.bridge.lane.Occ)
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
		if kv.inproc != nil {
			kv.inproc.Stop()
		}
		for _, sh := range kv.shards {
			sh.close()
		}
	})
}
