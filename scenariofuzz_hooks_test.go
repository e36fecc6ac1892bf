package consensusinside

import (
	"testing"
	"time"

	"consensusinside/internal/faultsched"
	"consensusinside/internal/linearize"
	"consensusinside/internal/msg"
)

// TestScenarioFuzzHooksReachEveryEngine pins the wiring between the
// fuzzer and the replicas' read-path servers for all five engines. The
// two hooks used to be found by an anonymous type assertion, and three
// engines did not have the method: every clock-skew episode and the
// LegacyLeaseBug switch were silent no-ops there while the matrix
// reported "all five engines". ReadPath is now part of protocol.Engine,
// so a missing hook is a compile error; this test checks the values
// arrive.
func TestScenarioFuzzHooksReachEveryEngine(t *testing.T) {
	for _, proto := range ScenarioFuzzProtocols() {
		proto := proto
		t.Run(ScenarioFuzzProtoFlag(proto), func(t *testing.T) {
			profile := faultsched.Profile{SkewWeight: 1, MaxSkew: time.Millisecond, Episodes: 6}
			cfg := ScenarioFuzzConfig{
				Protocol:       proto,
				Seed:           1,
				ReadMode:       ReadLease,
				Profile:        &profile,
				LegacyLeaseBug: true,
			}.withDefaults()
			c, sched, err := scenarioFuzzArm(cfg, linearize.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range c.Servers {
				if !s.ReadPath().LegacyGranterSelfExemption() {
					t.Errorf("LegacyLeaseBug did not reach replica %d", c.ServerIDs[i])
				}
			}

			// Replay the schedule one instant at a time: after the
			// simulator has run through an instant, every replica's
			// read-path clock must carry exactly the offset the schedule's
			// skew events up to then left it with.
			c.Start()
			want := make(map[msg.NodeID]time.Duration)
			skewed := 0
			for i := 0; i < len(sched.Events); {
				at := sched.Events[i].At
				for ; i < len(sched.Events) && sched.Events[i].At == at; i++ {
					if ev := sched.Events[i]; ev.Kind == faultsched.Skew {
						want[ev.Node] = ev.Offset
						if ev.Offset != 0 {
							skewed++
						}
					}
				}
				c.RunFor(at)
				for j, s := range c.Servers {
					if got := s.ReadPath().ClockSkew(); got != want[c.ServerIDs[j]] {
						t.Fatalf("at %v replica %d has clock skew %v, schedule says %v",
							at, c.ServerIDs[j], got, want[c.ServerIDs[j]])
					}
				}
			}
			if skewed == 0 {
				t.Fatal("the schedule carried no skew episode; the test checked nothing")
			}
		})
	}
}
