// Package shard partitions the key-value keyspace across independent
// consensus groups. The paper runs one agreement group per machine, so
// system throughput is capped by a single leader core no matter how many
// cores the topology models; sharding is the next scale axis (DESIGN.md,
// "Sharding"): many small groups whose independent decisions compose
// into one system-level outcome, in the spirit of the multi-agent
// consensus literature (O'Leary; Botan et al., "Let's Agree to Agree").
//
// The package is deliberately tiny and dependency-free (messages only):
// it owns the three facts every layer above must agree on.
//
//   - Key routing: ForKey hashes a key to its group. The hash is
//     deterministic and stable across processes and transports, so the
//     same key always reaches the same group's log — the routing
//     invariant the facade, the workload clients and the tests all rely
//     on. KeyFor inverts it for benchmarks that need a key pinned to a
//     given group.
//
//   - Core-to-group assignment: Groups carves a contiguous node-id range
//     into disjoint per-group replica sets, one small agreement group per
//     keyspace partition (validated by cluster.Build).
//
//   - Sequence tagging: a client that talks to several groups at once
//     keeps an independent pipelined window per group, and TagSeq brands
//     each window's sequence numbers with the group index in the high
//     bits. Per-group session tables then see a dense, contiguous
//     per-lane sequence space (SeqBase strips the tag), so exactly-once
//     dedupe stays exact — no (client, seq) pair can alias across groups
//     even if logs are later merged or keys rebalanced.
package shard

import (
	"hash/fnv"
	"strconv"

	"consensusinside/internal/msg"
)

// SeqTagShift is the bit position where the shard tag starts inside a
// client sequence number: the low 48 bits count commands within one
// lane, the bits above carry the lane's shard index.
const SeqTagShift = 48

// MaxShards bounds the shard count so a tagged sequence number still
// fits a positive int64 (sequence numbers travel as timer args).
const MaxShards = 1<<15 - 1

// ForKey routes key to a shard in [0, shards). The routing is a pure
// function of the key bytes (FNV-1a), so every client, transport and
// replica agrees on it without coordination; shards <= 1 always routes
// to shard 0.
func ForKey(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(shards))
}

// KeyFor returns a deterministic key with the given prefix that ForKey
// routes to shard: the prefix itself when it already routes there,
// otherwise the prefix with the smallest "#n" suffix that does. Callers
// own the prefix namespace, so distinct prefixes yield distinct keys.
// It panics when shard is outside [0, shards) — a wiring bug.
func KeyFor(prefix string, shard, shards int) string {
	if shards < 1 {
		shards = 1
	}
	if shard < 0 || shard >= shards {
		panic("shard: KeyFor target " + strconv.Itoa(shard) + " outside [0," + strconv.Itoa(shards) + ")")
	}
	if ForKey(prefix, shards) == shard {
		return prefix
	}
	for i := 0; ; i++ {
		k := prefix + "#" + strconv.Itoa(i)
		if ForKey(k, shards) == shard {
			return k
		}
	}
}

// TagSeq brands a lane-local sequence number (1, 2, 3, ...) with its
// shard index. Within one lane the tagged numbers stay strictly
// increasing; across lanes they can never collide. It panics when shard
// exceeds MaxShards or seq overflows into the tag bits.
func TagSeq(shard int, seq uint64) uint64 {
	if shard < 0 || shard > MaxShards {
		panic("shard: tag " + strconv.Itoa(shard) + " outside [0," + strconv.Itoa(MaxShards) + "]")
	}
	if seq >= 1<<SeqTagShift {
		panic("shard: lane sequence number overflows the tag boundary")
	}
	return uint64(shard)<<SeqTagShift | seq
}

// SeqBase reports the tag portion of a sequence number: the value TagSeq
// added on top of the lane-local count. Untagged sequence numbers (the
// single-group deployments) have base zero, so SeqBase-aware code is
// backward compatible with them.
func SeqBase(seq uint64) uint64 {
	return seq &^ (1<<SeqTagShift - 1)
}

// SeqShard reports which shard a tagged sequence number belongs to
// (0 for untagged single-group traffic).
func SeqShard(seq uint64) int {
	return int(seq >> SeqTagShift)
}

// Groups carves shards disjoint agreement groups of replicas nodes each
// out of a contiguous id range starting at first: group g holds ids
// [first + g*replicas, first + (g+1)*replicas). This is the canonical
// core-to-group assignment — dense, disjoint, and in AddNode order for
// the simulator.
func Groups(first msg.NodeID, shards, replicas int) [][]msg.NodeID {
	if shards < 1 {
		shards = 1
	}
	out := make([][]msg.NodeID, shards)
	next := first
	for g := range out {
		ids := make([]msg.NodeID, replicas)
		for i := range ids {
			ids[i] = next
			next++
		}
		out[g] = ids
	}
	return out
}
