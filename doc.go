// Package consensusinside is a Go reproduction of "Consensus Inside"
// (David, Guerraoui, Yabandeh — Middleware 2014): message-passing
// agreement among the cores of a many-core machine, and 1Paxos, a
// non-blocking consensus protocol with a single active acceptor designed
// for that environment.
//
// The package's one public layer is a replicated key-value service
// (StartKV, KVConfig and their enums) running any registered agreement
// engine — 1Paxos, Multi-Paxos, 2PC, Mencius, or the single-decree
// BasicPaxos baseline (KVConfig.Protocol) — over an in-process
// QC-libtask-style runtime or real TCP sockets, with a pipelined window
// of in-flight commands (KVConfig.Pipeline), command batching that packs
// several of them into one consensus instance (KVConfig.BatchSize/
// BatchDelay, or load-driven via KVConfig.BatchAdaptive), and optional
// keyspace sharding across independent consensus groups
// (KVConfig.Shards; each key hash-routes to one group's log). Replicas
// can crash and rejoin: CrashReplica / RestartReplica on either
// transport, with recovery (and bounded replica memory,
// KVConfig.SnapshotInterval) provided by internal/snapshot's
// durable-state snapshots, log compaction and catch-up protocol. Reads
// can leave the consensus path (KVConfig.ReadMode): leader leases
// (ReadLease, KVConfig.LeaseDuration), batched quorum-confirmed
// read-index rounds (ReadIndex) or stale-bounded follower reads
// (ReadFollower), all served from a replica's local state machine by
// internal/readpath. Every deployment is observable:
// KVConfig.TraceInterval samples commands through a per-stage lifecycle
// tracer (internal/trace), KV.Obs is the one stats surface — a named
// snapshot every subsystem adds its wire, read, snapshot, session and
// batching counters to — plus a rare-event timeline (internal/obs), and
// KVConfig.DebugAddr attaches a /debug HTTP surface (metrics JSON, trace
// samples, event tail, net/http/pprof).
//
// The simulator is an internal harness, not API: internal/cluster
// (cluster.Spec, cluster.Build) runs the same engines, client window,
// batch cap and shard count on the deterministic many-core simulator,
// and internal/experiments holds the one list of experiments
// (Registry) — every figure of the paper's evaluation plus the seeded
// fault-schedule fuzzer with its linearizability check — which
// cmd/consensusbench runs. There is one client with two front ends:
// internal/client's lane (window, batching, retry with rotation,
// redirects, the fast-read lane) sits under both the KV's blocking
// Put/Get adapter and the simulator's load source, so what the fuzzer
// checks is the client the KV ships. Wall-clock measurement of the real
// runtimes is the separate bench/ module (bash bench/run.sh).
//
// Protocols are written once against the message-passing contract
// (internal/runtime.Handler) and registered in internal/protocol; every
// deployment surface builds them through that registry, which is the
// paper's portability claim turned into an interface. The shard layer
// (internal/shard) composes with all of it: routing, core-to-group
// assignment and sequence tagging are the only shared facts, so any
// engine runs sharded over any runtime.
//
// See DESIGN.md for the architecture tour, docs/BENCHMARKS.md for the
// benchmark runbook, and EXPERIMENTS.md for measured vs published
// results.
package consensusinside
