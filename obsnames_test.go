package consensusinside

// The metric namespace, pinned. testdata/obs_names.golden lists every
// name KV.Obs() reports on a deployment that exercises all six
// families (TCP wire, lease reads, snapshots and a restore, batching,
// tracing, the ring-growth counters). It was generated at the commit
// before the typed stats structs were deleted, so a passing run proves
// the names bench/report.go looks up (o["wire.frames_out"],
// o["snap.snapshots"], o["read.local_reads"], ...) still resolve.
// -update-obs-names rewrites the file and is only for an intended
// namespace change.

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var updateObsNames = flag.Bool("update-obs-names", false, "rewrite testdata/obs_names.golden from this run")

func TestObsNamesPinned(t *testing.T) {
	kv, err := StartKV(KVConfig{
		Transport:        TCP,
		ReadMode:         ReadLease,
		LeaseDuration:    100 * time.Millisecond,
		SnapshotInterval: 8,
		TraceInterval:    1,
		Pipeline:         8,
		AcceptTimeout:    50 * time.Millisecond,
		RequestTimeout:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	load := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			key := fmt.Sprintf("k%d", i%7)
			if err := kv.Put(key, fmt.Sprintf("v%d", i)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			if _, err := kv.Get(key); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
		}
	}
	// Enough commits that the group snapshots and compacts (interval 8)
	// before the fault, then more while the follower is down, so its
	// replacement has to install a peer snapshot rather than replay.
	load(0, 40)
	if err := kv.CrashReplica(1); err != nil {
		t.Fatal(err)
	}
	load(40, 40)
	if err := kv.RestartReplica(1); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return kv.Obs().Counters[name] }
	for deadline := time.Now().Add(30 * time.Second); counter("snap.restores") == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never restored a snapshot: %v", kv.Obs().Counters)
		}
		load(80, 4)
	}

	snap := kv.Obs()
	got := strings.Join(snap.Names(), "\n") + "\n"
	const golden = "testdata/obs_names.golden"
	if *updateObsNames {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("KV.Obs().Names() drifted from %s\n got:\n%s\nwant:\n%s", golden, got, want)
	}
	for _, name := range []string{"wire.frames_out", "snap.restores", "read.local_reads", "batch.commands"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if v, ok := snap.Counters["session.ring_growths"]; !ok || v < 0 {
		t.Errorf("session.ring_growths = %d (present %v), want >= 0", v, ok)
	}
}
