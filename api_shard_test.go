package consensusinside

// Tests for the sharded KV facade: the routing invariant (a key always
// reaches the same group), cross-transport result equivalence at
// Shards > 1, shard validation, and per-shard fault isolation.

import (
	"fmt"
	"testing"
	"time"

	"consensusinside/internal/shard"
)

// TestKVShardedMatrix runs the deterministic mixed workload at
// Shards = 2 on every registered protocol over both transports — with
// command batching off and on — the results must match each other and
// the sequential oracle, exactly as the unsharded matrix demands. A
// routing bug (the same key reaching two groups on different
// transports, or on different calls) would surface as a divergent read.
func TestKVShardedMatrix(t *testing.T) {
	want := oracle()
	for _, p := range Protocols() {
		for _, batch := range []int{1, 4} {
			p, batch := p, batch
			t.Run(fmt.Sprintf("%v/batch%d", p, batch), func(t *testing.T) {
				inproc := runMatrix(t, p, InProc, 2, batch)
				tcp := runMatrix(t, p, TCP, 2, batch)
				if len(inproc) != len(want) || len(tcp) != len(want) {
					t.Fatalf("result lengths diverge: inproc %d, tcp %d, want %d",
						len(inproc), len(tcp), len(want))
				}
				for i := range want {
					if inproc[i] != want[i] {
						t.Errorf("op %d over InProc: got %q, want %q", i, inproc[i], want[i])
					}
					if tcp[i] != inproc[i] {
						t.Errorf("op %d: TCP result %q != InProc result %q", i, tcp[i], inproc[i])
					}
				}
			})
		}
	}
}

// TestKVShardedRoutingDurability writes across every group and reads
// everything back: a key routed to different groups on write and read
// would come back empty.
func TestKVShardedRoutingDurability(t *testing.T) {
	kv, err := StartKV(KVConfig{Shards: 4, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if kv.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", kv.Shards())
	}
	const n = 48
	hit := make([]bool, 4)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("route-%d", i)
		hit[shard.ForKey(key, 4)] = true
		if err := kv.Put(key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	for s, ok := range hit {
		if !ok {
			t.Fatalf("workload never touched shard %d — test keys too narrow", s)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("route-%d", i)
		got, err := kv.Get(key)
		if err != nil || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s = (%q, %v), want v%d", key, got, err, i)
		}
	}
}

// TestKVShardsValidation pins the Shards knob's error cases.
func TestKVShardsValidation(t *testing.T) {
	if _, err := StartKV(KVConfig{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := StartKV(KVConfig{Shards: MaxShards + 1}); err == nil {
		t.Error("oversized shard count accepted")
	}
}

// TestKVSnapshotValidation pins the snapshot knob's error case,
// mirroring the Shards table.
func TestKVSnapshotValidation(t *testing.T) {
	if _, err := StartKV(KVConfig{SnapshotInterval: -1}); err == nil {
		t.Error("negative snapshot interval accepted")
	}
}

// TestKVShardedCrashIsolation crashes the whole first group over TCP:
// keys of other groups must keep committing (per-shard fault domains),
// and the global replica indexing must address the right group.
func TestKVShardedCrashIsolation(t *testing.T) {
	kv, err := StartKV(KVConfig{
		Shards:         2,
		Transport:      TCP,
		RequestTimeout: 5 * time.Second,
		AcceptTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	key0 := shard.KeyFor("iso", 0, 2)
	key1 := shard.KeyFor("iso", 1, 2)
	for _, k := range []string{key0, key1} {
		if err := kv.Put(k, "before"); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	// Take down every replica of group 0 (global ids 0..2).
	for id := 0; id < 3; id++ {
		if err := kv.CrashReplica(id); err != nil {
			t.Fatalf("crash replica %d: %v", id, err)
		}
	}
	if err := kv.Put(key1, "after"); err != nil {
		t.Fatalf("group 1 blocked by group 0's failure: %v", err)
	}
	if got, err := kv.Get(key1); err != nil || got != "after" {
		t.Fatalf("group 1 read = (%q, %v)", got, err)
	}
	if err := kv.CrashReplica(6); err == nil {
		t.Error("out-of-range replica id accepted")
	}
}
