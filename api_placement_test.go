package consensusinside

import (
	"fmt"
	stdruntime "runtime"
	"testing"
	"time"
)

// startOnTwoCores starts a one-shard 1Paxos KV — three replicas and the
// bridge, node 3 — at GOMAXPROCS 2, so four nodes share two cores.
func startOnTwoCores(t *testing.T, mode ReadMode) *KV {
	t.Helper()
	prev := stdruntime.GOMAXPROCS(2)
	t.Cleanup(func() { stdruntime.GOMAXPROCS(prev) })
	kv, err := StartKV(KVConfig{Protocol: OnePaxos, ReadMode: mode, LeaseDuration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kv.Close)
	return kv
}

// readModes is every read mode with what one sequential Get sends
// between the two cores of the paired layout (nodes 0 and 3 on one
// core, 1 and 2 on the other).
var readModes = []struct {
	mode   ReadMode
	perGet float64
}{
	// A log command, like a Put: the accept and its learn back.
	{ReadConsensus, 2},
	// The leader serves the read on the bridge's core.
	{ReadLease, 0},
	// The leader's confirming round to the acceptor and its answer.
	{ReadIndex, 2},
	// Rotates over the replicas: 0 on node 0, request and reply on
	// nodes 1 and 2.
	{ReadFollower, 4.0 / 3},
}

// TestKVPairsBridgeWithLeader pins the KV's placement on one shard and
// two cores in every read mode: the bridge shares the leader's core and
// the boot acceptor gets the other with node 1.
func TestKVPairsBridgeWithLeader(t *testing.T) {
	for _, tc := range readModes {
		t.Run(tc.mode.String(), func(t *testing.T) {
			grp := startOnTwoCores(t, tc.mode).shards[0].inproc
			if !grp.SameCore(0, 3) {
				t.Error("bridge off the leader's core")
			}
			if !grp.SameCore(1, 2) {
				t.Error("nodes 1 and 2 on two cores")
			}
			if grp.SameCore(0, 2) {
				t.Error("leader and acceptor share a core")
			}
		})
	}
}

// crossCoreMsgsPerOp runs n sequential ops after one warm-up Put and
// returns the cross-core messages each sent on average.
func crossCoreMsgsPerOp(t *testing.T, kv *KV, n int, op func(i int) error) float64 {
	t.Helper()
	if err := kv.Put("warm", "up"); err != nil {
		t.Fatal(err)
	}
	before := kv.Obs().Counters["runtime.cross_core_msgs"]
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return float64(kv.Obs().Counters["runtime.cross_core_msgs"]-before) / float64(n)
}

// TestKVCrossCoreMsgsPerPut counts what one caller's sequential Puts
// send between the two cores of a one-shard KV. A batch-1 Put crosses
// twice in every read mode: the accept to the acceptor and its learn
// back to the leader; the request, node 1's learn and the reply stay on
// a core. The id order (the bridge with the acceptor) crossed five
// times: the request, the accept, two learns and the reply.
func TestKVCrossCoreMsgsPerPut(t *testing.T) {
	const puts = 200
	for _, tc := range readModes {
		t.Run(tc.mode.String(), func(t *testing.T) {
			kv := startOnTwoCores(t, tc.mode)
			per := crossCoreMsgsPerOp(t, kv, puts, func(i int) error { return kv.Put(fmt.Sprintf("k%d", i), "v") })
			// A lease renewal or a retry only adds messages.
			if per < 2-0.5 || per > 2+1 {
				t.Errorf("%.2f cross-core messages per Put, want ≈ 2", per)
			}
		})
	}
}

// TestKVCrossCoreMsgsPerGet counts what one caller's sequential Gets
// send between the two cores, per read mode (readModes). The id order
// read 2 under ReadLease and 4 under ReadIndex: the bridge's request
// and the reply crossed on top.
func TestKVCrossCoreMsgsPerGet(t *testing.T) {
	const gets = 300
	for _, tc := range readModes {
		t.Run(tc.mode.String(), func(t *testing.T) {
			kv := startOnTwoCores(t, tc.mode)
			per := crossCoreMsgsPerOp(t, kv, gets, func(int) error { _, err := kv.Get("warm"); return err })
			// A lease renewal or a retry only adds messages.
			if per < tc.perGet-0.5 || per > tc.perGet+0.5 {
				t.Errorf("%.2f cross-core messages per Get, want ≈ %.2f", per, tc.perGet)
			}
		})
	}
}
