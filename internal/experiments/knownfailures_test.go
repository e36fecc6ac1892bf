package experiments

import (
	"fmt"
	"strings"
	"testing"

	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
)

// TestOnePaxosKnownFailuresReproduce pins the 1Paxos schedules that a
// scan of seeds 5 000 000–5 000 999 found unsafe (ROADMAP, "1Paxos is
// unsafe on known schedules"): two stale reads under read-index, one at
// two snapshot intervals, and two panics. Each row asserts that its
// failure still reproduces — a linearizability violation, or the named
// panic, recovered — so the repros live in code, not in prose, and that
// a replica installed a regime naming one node leader and acceptor
// (regime.role_collisions > 0), the collision behind every row. The fix
// for that collision flips every row to clean; that change turns these
// rows into assertions that each run is violation-free and
// collision-free.
func TestOnePaxosKnownFailuresReproduce(t *testing.T) {
	cases := []struct {
		cfg   fuzzConfig
		panic string // "" = a linearizability violation
	}{
		{cfg: fuzzConfig{Seed: 5_000_005, Shards: 2, SnapshotInterval: 16, ReadMode: readpath.Index, BatchAdaptive: true}},
		{cfg: fuzzConfig{Seed: 5_000_139, ReadMode: readpath.Index}},
		{cfg: fuzzConfig{Seed: 5_000_139, SnapshotInterval: 16, ReadMode: readpath.Index}},
		{cfg: fuzzConfig{Seed: 5_000_348, ReadMode: readpath.Lease}, panic: "applied instance 15 re-learned different value"},
		{cfg: fuzzConfig{Seed: 5_000_275, ReadMode: readpath.Consensus}, panic: "paxosutil: node 2 already proposing at slot 5"},
	}
	for _, tc := range cases {
		tc.cfg.Protocol = protocol.OnePaxos
		t.Run(fmt.Sprintf("seed=%d/snap=%d/%v", tc.cfg.Seed, tc.cfg.SnapshotInterval, tc.cfg.ReadMode), func(t *testing.T) {
			res, recovered := runRecovered(t, tc.cfg)
			if res.RoleCollisions == 0 {
				t.Errorf("no regime named one node leader and acceptor: the collision behind this row is gone\nreproduce: %s", fuzzRepro(tc.cfg))
			}
			switch {
			case tc.panic != "":
				if !strings.Contains(recovered, tc.panic) {
					t.Fatalf("want the panic %q, got panic %q (violation %v)\nreproduce: %s", tc.panic, recovered, res.Violation, fuzzRepro(tc.cfg))
				}
			case recovered != "":
				t.Fatalf("want a linearizability violation, got panic %q\nreproduce: %s", recovered, fuzzRepro(tc.cfg))
			case res.Violation == nil || !strings.HasPrefix(res.Violation.Error(), "linearize:"):
				t.Fatalf("want a linearizability violation, got %v: if the role-collision fix has landed, make this row assert a clean run\nreproduce: %s", res.Violation, fuzzRepro(tc.cfg))
			}
		})
	}
}

// runRecovered runs one scenario, turning a panic into its message;
// res keeps what the run filled in before it panicked.
func runRecovered(t *testing.T, cfg fuzzConfig) (res fuzzResult, recovered string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			recovered = fmt.Sprint(p)
		}
	}()
	if err := res.run(cfg); err != nil {
		t.Fatalf("scenarioFuzz: %v", err)
	}
	if res.Ops == 0 {
		t.Fatalf("no operations recorded — the workload never ran")
	}
	return res, ""
}
