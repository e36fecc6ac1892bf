package experiments

import (
	"flag"
	"fmt"
	"hash/fnv"
	"testing"

	"consensusinside/internal/protocol"
)

var scanSeeds = flag.String("scan", "", "seed range FROM-TO (inclusive) for TestScenarioFuzzScan, e.g. 5000000-5000999")

// TestScenarioFuzzScan is the wide scan: every engine × every matrix
// cell × every seed of the -scan range, each run's panic recovered. Per
// engine it prints the runs with a violation, the recovered panics, the
// pending and completed ops, and one hash over every run's outcome and
// event dump — so two commits that print the same line ran every
// schedule alike. It asserts nothing; without -scan it skips.
//
//	go test -run TestScenarioFuzzScan -v ./internal/experiments -args -scan=5000000-5000999
func TestScenarioFuzzScan(t *testing.T) {
	if *scanSeeds == "" {
		t.Skip("pass -scan=FROM-TO to scan a seed range")
	}
	var from, to int64
	if _, err := fmt.Sscanf(*scanSeeds, "%d-%d", &from, &to); err != nil || from > to {
		t.Fatalf("-scan=%q: want FROM-TO with FROM <= TO", *scanSeeds)
	}
	for _, p := range protocol.IDs() {
		p := p
		t.Run(protoToken(p), func(t *testing.T) {
			t.Parallel()
			var violating, panics, pending, completed int
			h := fnv.New64a()
			for ci, cell := range fuzzCells {
				for seed := from; seed <= to; seed++ {
					cfg := fuzzConfig{
						Protocol:         p,
						Seed:             seed,
						Shards:           cell.shards,
						SnapshotInterval: cell.snap,
						ReadMode:         cell.read,
						BatchAdaptive:    cell.adaptive,
					}
					res, recovered, err := scanRun(cfg)
					if err != nil {
						t.Fatalf("%s: %v", fuzzRepro(cfg), err)
					}
					if recovered != "" {
						panics++
					}
					if res.Violation != nil {
						violating++
					}
					pending += res.Pending
					completed += res.Completed
					fmt.Fprintf(h, "%d/%d ops=%d done=%d pending=%d violation=%v panic=%q\n%s\n",
						ci, seed, res.Ops, res.Completed, res.Pending, res.Violation, recovered, res.eventDump())
				}
			}
			t.Logf("%s: violating=%d panics=%d pending=%d completed=%d hash=%016x",
				protoToken(p), violating, panics, pending, completed, h.Sum64())
		})
	}
}

// scanRun runs one scenario, turning a panic into its message.
func scanRun(cfg fuzzConfig) (res fuzzResult, recovered string, err error) {
	defer func() {
		if p := recover(); p != nil {
			recovered = fmt.Sprint(p)
		}
	}()
	res, err = scenarioFuzz(cfg)
	return res, recovered, err
}
