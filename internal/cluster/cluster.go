// Package cluster wires protocols, clients and the many-core simulator
// into runnable deployments: the paper's base mode (three server replicas
// on dedicated cores, clients on the remaining cores, Section 7.1), the
// Joint mode (every client is also a replica, Section 7.4), and sharded
// deployments (Spec.Shards) that partition the keyspace across several
// independent agreement groups on disjoint core ranges — with
// failure-schedule injection for the slow-core experiments.
//
// Protocols are constructed through the internal/protocol registry, so
// any registered engine runs on this harness unchanged. This package
// registers none of them: a binary imports the engines it runs (or
// internal/protocol/all), which lets an engine's own tests build
// deployments here.
package cluster

import (
	"cmp"
	"fmt"
	"time"

	"consensusinside/internal/client"
	"consensusinside/internal/linearize"
	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/shard"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
	"consensusinside/internal/trace"
	"consensusinside/internal/workload"
)

// Spec describes a deployment.
type Spec struct {
	Protocol protocol.ID
	Machine  *topology.Machine
	Cost     simnet.CostModel
	Seed     int64

	// Replicas is the server-group size (3 in the paper's base mode; the
	// node count in Joint mode). Clients is ignored in Joint mode, where
	// every replica node also hosts a client.
	Replicas int
	Clients  int
	Joint    bool

	// Shards partitions the keyspace across that many independent
	// agreement groups of Replicas cores each, on disjoint core ranges
	// (internal/shard owns the key routing and core-to-group
	// assignment). Each client keeps a pipelined window per group on
	// disjoint keys. 0 or 1 is the paper's single-group deployment;
	// Joint mode supports only one group.
	Shards int

	// Workload shape.
	ThinkTime         time.Duration
	RetryTimeout      time.Duration
	RequestsPerClient int
	Warmup            time.Duration
	SeriesBucket      time.Duration

	// SharedKey, when non-empty, puts every client on the same key (or,
	// sharded, the same per-lane key prefix) instead of the default
	// per-client keys. Contention is what makes linearizability checks
	// bite: distinct keys give each client a private register nothing
	// else ever observes.
	SharedKey string

	// Record, when set, captures every client command's invoke/return
	// pair for linearizability checking (see workload.Config.Record;
	// recording switches Puts to per-client-unique values).
	Record *linearize.Recorder

	// TxRetryTimeout makes 2PC participants re-propose an undecided
	// transaction after this long — the retry that lets a transaction
	// blocked by a crashed coordinator finish after recovery. 0 keeps
	// the engine default (no retry); other engines ignore it.
	TxRetryTimeout time.Duration

	// ReadPercent in [0,100] is the percentage of client commands that
	// are reads (Section 7.5's read workloads; Figure 10 uses 0/10/75).
	// Validated like Shards.
	ReadPercent int

	// ReadMode selects the read path (readpath.Consensus by default —
	// the paper's read-through-the-log behavior). Any other mode makes
	// clients send reads as ReadRequest messages served from a replica's
	// local state machine; see internal/readpath and DESIGN.md, "The
	// read path". Validated by protocol.Build.
	ReadMode readpath.Mode

	// LeaseDuration is the read-lease lifetime under readpath.Lease
	// (0 = the readpath default).
	LeaseDuration time.Duration

	// Window is each client's pipeline depth: how many commands it keeps
	// in flight at once. 0 or 1 is the paper's closed loop.
	Window int

	// BatchAdaptive turns on each client's load-driven batcher (see
	// workload.Config.BatchAdaptive): batches grow with accumulated
	// demand up to half the window. Unset is the paper's one command per
	// instance. Requires Window >= 2.
	BatchAdaptive bool

	// Protocol tuning.
	AcceptTimeout time.Duration // paxos-family failure detection
	LearnBatching bool          // 1Paxos acceptor-broadcast batching
	LocalReads    bool          // 2PC joint-mode local reads

	// SnapshotInterval makes every replica compact its log every this
	// many applied instances (internal/snapshot), bounding a long
	// simulated run's memory; a snapshot is captured only for a peer
	// that asks from below the compaction floor. 0 — the default — is
	// the paper's unbounded-log behavior. Validated by protocol.Build.
	SnapshotInterval int

	// RecoverNodes lists replica indices (within each group) that boot
	// in recovery mode: empty state, streaming a snapshot and log
	// suffix from their peers before serving (internal/snapshot). The
	// sim-runtime analogue of a restarted replica rejoining — until
	// caught up such a replica refuses every fast-path read. Indices
	// are validated against Replicas.
	RecoverNodes []int

	// TraceInterval samples one write command in every this many through
	// the end-to-end lifecycle tracer (internal/trace), shared by every
	// node of the deployment. The simulator has one global virtual
	// clock, so the tracer runs in virtual-clock mode and its stage
	// breakdowns are deterministic. The simulator passes messages by
	// value with no transport send path, so the wire stage is never
	// stamped (the decide delta absorbs it). 0 — the default — is off.
	TraceInterval int
}

// Cluster is a built deployment, ready to run.
type Cluster struct {
	Spec      Spec
	Net       *simnet.Network
	Servers   []protocol.Engine // all replicas, group by group
	ServerIDs []msg.NodeID
	Groups    [][]msg.NodeID // per-shard replica sets (one entry when unsharded)
	Clients   []*workload.Client
	ClientIDs []msg.NodeID

	// Tracer is the deployment-wide command tracer (virtual-clock mode;
	// off unless Spec.TraceInterval is set). Events is the rare-event
	// timeline every replica emits into.
	Tracer *trace.Tracer
	Events *obs.EventLog
}

// Build constructs the deployment described by spec. It returns an error
// on malformed specs (nil machine, too-small groups, unknown protocols);
// use MustBuild where a malformed spec is a programming error.
func Build(spec Spec) (*Cluster, error) {
	if spec.Machine == nil {
		return nil, fmt.Errorf("cluster: spec needs a machine")
	}
	if spec.Replicas < 2 {
		return nil, fmt.Errorf("cluster: need at least two replicas, got %d", spec.Replicas)
	}
	info, ok := protocol.Lookup(spec.Protocol)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown protocol %d", int(spec.Protocol))
	}
	if spec.Replicas < info.MinReplicas {
		return nil, fmt.Errorf("cluster: %s needs at least %d replicas, got %d",
			info.Name, info.MinReplicas, spec.Replicas)
	}
	if err := rsm.CheckPipeline("cluster", cmp.Or(spec.Window, 1), spec.BatchAdaptive); err != nil {
		return nil, err
	}
	if spec.ReadPercent < 0 || spec.ReadPercent > 100 {
		return nil, fmt.Errorf("cluster: read percent %d outside [0,100]", spec.ReadPercent)
	}
	for _, i := range spec.RecoverNodes {
		if i < 0 || i >= spec.Replicas {
			return nil, fmt.Errorf("cluster: recover node %d outside the group [0,%d)", i, spec.Replicas)
		}
	}
	if spec.Shards < 0 {
		return nil, fmt.Errorf("cluster: negative shard count %d", spec.Shards)
	}
	if spec.Shards == 0 {
		spec.Shards = 1
	}
	if spec.Shards > shard.MaxShards {
		return nil, fmt.Errorf("cluster: %d shards exceeds the maximum %d (sequence-tag width)",
			spec.Shards, shard.MaxShards)
	}
	if spec.TraceInterval < 0 {
		return nil, fmt.Errorf("cluster: negative trace interval %d", spec.TraceInterval)
	}
	if spec.Joint && spec.Shards > 1 {
		return nil, fmt.Errorf("cluster: Joint mode supports a single group, got %d shards", spec.Shards)
	}
	// Core-to-group assignment must fit the machine: every group gets
	// Replicas dedicated cores, clients get the rest.
	need := spec.Shards*spec.Replicas + spec.Clients
	if spec.Joint {
		need = spec.Replicas
	}
	if need > spec.Machine.Cores() {
		return nil, fmt.Errorf("cluster: %d shards x %d replicas + %d clients needs %d cores, machine %q has %d",
			spec.Shards, spec.Replicas, spec.Clients, need, spec.Machine.Name(), spec.Machine.Cores())
	}
	net := simnet.New(spec.Machine, spec.Cost, spec.Seed)
	c := &Cluster{
		Spec:   spec,
		Net:    net,
		Tracer: trace.New(spec.TraceInterval, trace.VirtualClock()),
		Events: obs.NewEventLog(0),
	}

	c.Groups = shard.Groups(0, spec.Shards, spec.Replicas)
	for _, g := range c.Groups {
		c.ServerIDs = append(c.ServerIDs, g...)
	}

	if spec.Joint {
		// Every node hosts a replica and a client (Section 7.4).
		serverIDs := c.Groups[0]
		for i := 0; i < spec.Replicas; i++ {
			id := msg.NodeID(i)
			server, err := c.newServer(id, serverIDs, true, recoverIndex(spec.RecoverNodes, i))
			if err != nil {
				return nil, err
			}
			client, err := workload.NewClient(c.clientConfig(id, i))
			if err != nil {
				return nil, err
			}
			c.Servers = append(c.Servers, server)
			c.Clients = append(c.Clients, client)
			c.ClientIDs = append(c.ClientIDs, id)
			net.AddNode(&jointHandler{server: server, client: client})
		}
		return c, nil
	}

	for _, group := range c.Groups {
		for gi, id := range group {
			server, err := c.newServer(id, group, false, recoverIndex(spec.RecoverNodes, gi))
			if err != nil {
				return nil, err
			}
			c.Servers = append(c.Servers, server)
			net.AddNode(server)
		}
	}
	for i := 0; i < spec.Clients; i++ {
		id := msg.NodeID(spec.Shards*spec.Replicas + i)
		client, err := workload.NewClient(c.clientConfig(id, i))
		if err != nil {
			return nil, err
		}
		c.Clients = append(c.Clients, client)
		c.ClientIDs = append(c.ClientIDs, id)
		net.AddNode(client)
	}
	return c, nil
}

// MustBuild is Build for specs that are wired by code, not input: it
// panics on error.
func MustBuild(spec Spec) *Cluster {
	c, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// clientConfig derives client i's workload config. Single-group
// deployments keep the paper's shape (one server list, one key);
// sharded ones hand the client every group so it runs one pipelined
// lane per shard on disjoint keys.
func (c *Cluster) clientConfig(id msg.NodeID, i int) workload.Config {
	spec := c.Spec
	cfg := workload.Config{
		ID:            id,
		Requests:      spec.RequestsPerClient,
		ThinkTime:     spec.ThinkTime,
		RetryTimeout:  spec.RetryTimeout,
		ReadPercent:   spec.ReadPercent,
		ReadMode:      spec.ReadMode,
		Window:        spec.Window,
		BatchAdaptive: spec.BatchAdaptive,
		StartDelay:    time.Duration(i) * time.Microsecond,
		Warmup:        spec.Warmup,
		SeriesBucket:  spec.SeriesBucket,
		Key:           spec.SharedKey,
		Record:        spec.Record,
		Tracer:        c.Tracer,
	}
	if len(c.Groups) > 1 {
		cfg.Groups = c.Groups
	} else {
		cfg.Servers = c.Groups[0]
	}
	return cfg
}

func (c *Cluster) newServer(id msg.NodeID, serverIDs []msg.NodeID, joint, recover bool) (protocol.Engine, error) {
	spec := c.Spec
	return protocol.Build(spec.Protocol, protocol.Config{
		ID:               id,
		Replicas:         serverIDs,
		Applier:          rsm.NewKV(),
		AcceptTimeout:    spec.AcceptTimeout,
		ForwardToLeader:  joint,
		LearnBatching:    spec.LearnBatching,
		LocalReads:       spec.LocalReads,
		SnapshotInterval: spec.SnapshotInterval,
		Recover:          recover,
		ReadMode:         spec.ReadMode,
		LeaseDuration:    spec.LeaseDuration,
		TxRetryTimeout:   spec.TxRetryTimeout,
		Tracer:           c.Tracer,
		Events:           c.Events,
	})
}

// recoverIndex reports whether group index gi is listed in recover.
func recoverIndex(recover []int, gi int) bool {
	for _, i := range recover {
		if i == gi {
			return true
		}
	}
	return false
}

// Start launches all nodes.
func (c *Cluster) Start() { c.Net.Start() }

// RunFor advances virtual time to t.
func (c *Cluster) RunFor(t time.Duration) { c.Net.RunFor(t) }

// CPUHogSlowdown models the paper's slow-core injection: 8 CPU-intensive
// processes sharing the core (Sections 2.2, 7.6). The protocol process
// gets ~1/9 of the cycles, but it gets them in whole scheduler quanta, so
// the latency visible to the protocol between two of its time slices is
// two orders of magnitude worse than the 1/9 throughput share suggests —
// 9 × ~100 ≈ 900. The factor folds both effects into the simulator's
// linear cost scaling, pushing the slowed core's per-message service time
// into the tens of milliseconds the paper observes, well past any client
// detection timeout.
const CPUHogSlowdown = 900.0

// SlowAt schedules core node to slow down by factor at virtual time t
// (use CPUHogSlowdown for the paper's 8-CPU-hog injection).
func (c *Cluster) SlowAt(t time.Duration, node msg.NodeID, factor float64) {
	c.Net.At(t, func() { c.Net.SetSlow(node, factor) })
}

// CrashAt schedules a crash of node at virtual time t.
func (c *Cluster) CrashAt(t time.Duration, node msg.NodeID) {
	c.Net.At(t, func() { c.Net.Crash(node) })
}

// RunStats aggregates client-side measurements.
type RunStats struct {
	Completed  int // total completions (including warmup)
	Measured   int // completions after warmup
	Throughput float64
	Latency    metrics.Summary
	Retries    int
}

// ClientStats folds all clients' post-warmup measurements; throughput is
// measured ops over the [warmup, now] window.
func (c *Cluster) ClientStats() RunStats {
	var stats RunStats
	var hist metrics.Histogram
	for _, cl := range c.Clients {
		stats.Completed += cl.Completed()
		stats.Retries += cl.Retries()
		n, _, _ := cl.MeasuredOps()
		stats.Measured += n
		hist.Merge(cl.Latencies())
	}
	window := c.Net.Now() - c.Spec.Warmup
	stats.Throughput = metrics.Throughput(stats.Measured, window)
	stats.Latency = hist.Summarize()
	return stats
}

// Obs captures the deployment's metrics snapshot: every replica's and
// every client's counters, the trace families, and the rare-event tail
// — the same namespace a real KV deployment's registry reports (minus
// wire.* and bridge.*: the simulator has no sockets and no bridge), so
// per-run snapshots Merge across runtimes.
func (c *Cluster) Obs() obs.Snapshot {
	s := obs.NewSnapshot()
	for _, srv := range c.Servers {
		srv.Collect(&s)
	}
	for _, cl := range c.Clients {
		cl.Collect(&s)
	}
	s.AddTracer(c.Tracer)
	s.Events = c.Events.Tail(0)
	return s
}

// SeriesSum sums all clients' completion time series into one bucket
// vector (Figure 11's proposals-per-10ms plot).
func (c *Cluster) SeriesSum() []int {
	var out []int
	for _, cl := range c.Clients {
		b := cl.Series()
		if len(b) > len(out) {
			grown := make([]int, len(b))
			copy(grown, out)
			out = grown
		}
		for i, v := range b {
			out[i] += v
		}
	}
	return out
}

// ServerCommits reports each server's applied-command count, in
// ServerIDs order (group by group when sharded).
func (c *Cluster) ServerCommits() []int64 {
	out := make([]int64, len(c.Servers))
	for i, s := range c.Servers {
		out[i] = s.Commits()
	}
	return out
}

// GroupCommits sums each group's applied-command counts — the
// per-shard share of the aggregate work.
func (c *Cluster) GroupCommits() []int64 {
	out := make([]int64, len(c.Groups))
	for i, s := range c.Servers {
		out[i/c.Spec.Replicas] += s.Commits()
	}
	return out
}

// CheckConsistency verifies that no two replicas of the same group
// disagree on any log instance — the paper's consistency safety
// property ("two different learners cannot learn two different
// values"). Each shard's group has its own log with its own instance
// numbering, so the check runs group by group. An engine without a
// total order (2PC, whose Log is nil) is vacuously consistent here.
func (c *Cluster) CheckConsistency() error {
	for g, group := range c.Groups {
		chosen := make(map[int64]msg.Value)
		who := make(map[int64]msg.NodeID)
		for i, id := range group {
			log := c.Servers[g*c.Spec.Replicas+i].Log()
			if log == nil {
				return nil
			}
			for _, e := range log.History() {
				if prev, ok := chosen[e.Instance]; ok {
					if !prev.Equal(e.Value) {
						return fmt.Errorf("group %d instance %d: replica %d learned %+v, replica %d learned %+v",
							g, e.Instance, who[e.Instance], prev, id, e.Value)
					}
					continue
				}
				chosen[e.Instance] = e.Value
				who[e.Instance] = id
			}
		}
	}
	return nil
}

// jointHandler co-locates a replica and a client on one node (Joint mode).
// Message routing is by type (replies to the client, everything else to
// the replica); timer routing is by kind (every client timer's kind is
// at or above client.TimerRetry).
type jointHandler struct {
	server protocol.Engine
	client *workload.Client
}

var _ runtime.Handler = (*jointHandler)(nil)

func (j *jointHandler) Start(ctx runtime.Context) {
	j.server.Start(ctx)
	j.client.Start(ctx)
}

func (j *jointHandler) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	switch m.(type) {
	case msg.ClientReply, *msg.ClientReplyBatch, *msg.ReadReplyBatch:
		j.client.Receive(ctx, from, m)
	default:
		j.server.Receive(ctx, from, m)
	}
}

func (j *jointHandler) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	if tag.Kind >= client.TimerRetry {
		j.client.Timer(ctx, tag)
		return
	}
	j.server.Timer(ctx, tag)
}
