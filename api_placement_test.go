package consensusinside

import (
	"fmt"
	stdruntime "runtime"
	"testing"
	"time"

	"consensusinside/internal/msg"
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

// TestKVPairsBridgeWhenGetsAreLogged pins the KV's placement policy on
// one shard and two cores: under ReadConsensus every op takes the
// leader's path, so the bridge shares the leader's core and the boot
// acceptor gets the other with node 1; under ReadLease the layout is
// the id order (the bridge with the acceptor), the one the
// inproc-mixed-lease workload has always run.
func TestKVPairsBridgeWhenGetsAreLogged(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode ReadMode
		same [][2]msg.NodeID
	}{
		{"consensus", ReadConsensus, [][2]msg.NodeID{{0, 3}, {1, 2}}},
		{"lease", ReadLease, [][2]msg.NodeID{{0, 1}, {2, 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grp := startOnTwoCores(t, tc.mode).shards[0].inproc
			for _, pair := range tc.same {
				if !grp.SameCore(pair[0], pair[1]) {
					t.Errorf("nodes %v on two cores", pair)
				}
			}
			if grp.SameCore(0, 2) {
				t.Error("leader and acceptor share a core")
			}
		})
	}
}

// TestKVCrossCoreMsgsPerPut counts what one caller's sequential Puts
// send between the two cores of a one-shard KV. Paired (ReadConsensus),
// a batch-1 Put crosses twice: the accept to the acceptor and its learn
// back to the leader; the request, node 1's learn and the reply stay on
// a core. Unpaired (ReadLease), the request, the accept, two learns and
// the reply all cross: five.
func TestKVCrossCoreMsgsPerPut(t *testing.T) {
	const puts = 200
	for _, tc := range []struct {
		name string
		mode ReadMode
		want float64
	}{
		{"consensus", ReadConsensus, 2},
		{"lease", ReadLease, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kv := startOnTwoCores(t, tc.mode)
			if err := kv.Put("warm", "up"); err != nil {
				t.Fatal(err)
			}
			before := kv.Obs().Counters["runtime.cross_core_msgs"]
			for i := 0; i < puts; i++ {
				if err := kv.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			per := float64(kv.Obs().Counters["runtime.cross_core_msgs"]-before) / puts
			// A lease renewal or a retry only adds messages.
			if per < tc.want-0.5 || per > tc.want+1 {
				t.Errorf("%.2f cross-core messages per Put, want ≈ %g", per, tc.want)
			}
		})
	}
}
