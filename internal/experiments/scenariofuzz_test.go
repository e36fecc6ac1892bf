package experiments

// Scenario-fuzz tests: seeded fault schedules against every engine, with
// the recorded history checked for linearizability (internal/linearize).
//
// TestScenarioFuzzMatrix sweeps engines × deployment knobs × seeds —
// over 250 distinct fault schedules — and demands zero violations. A
// failure prints a one-line reproduction driving TestScenarioFuzzSeed,
// which replays exactly one (seed, config) cell from flags;
// TestScenarioFuzzReproRoundTrip pins that the line parses back to the
// run that printed it.
//
// TestScenarioFuzzRevertGuard proves the harness has teeth: with the
// historical lease self-prepare exemption re-enabled (the stale-read bug
// the adversarial lease test caught), a small seed budget must produce a
// violation — and the violating seed must run clean on the fixed code.

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"consensusinside/internal/faultsched"
	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
)

// fuzzFlags are the reproduction command's flags. TestScenarioFuzzSeed
// reads them from the command line and TestScenarioFuzzReproRoundTrip
// from a printed reproduction line, both through config.
type fuzzFlags struct {
	seed          *int64
	proto, read   *string
	shards, snap  *int
	batchAdaptive *bool
}

func newFuzzFlags(fs *flag.FlagSet) fuzzFlags {
	return fuzzFlags{
		seed:          fs.Int64("seed", -1, "replay one scenario-fuzz seed (TestScenarioFuzzSeed)"),
		proto:         fs.String("proto", "onepaxos", "engine for -seed replay: onepaxos, multipaxos, twopc, mencius, basicpaxos"),
		shards:        fs.Int("shards", 1, "shard count for -seed replay"),
		snap:          fs.Int("snap", 0, "snapshot interval for -seed replay"),
		read:          fs.String("readmode", "consensus", "read mode for -seed replay: consensus, lease, read-index, follower"),
		batchAdaptive: fs.Bool("batchadaptive", false, "adaptive client batching for -seed replay"),
	}
}

var replay = newFuzzFlags(flag.CommandLine)

// config is the run the flags name; unknown -proto or -readmode tokens
// are errors that list the valid ones.
func (f fuzzFlags) config() (fuzzConfig, error) {
	cfg := fuzzConfig{Seed: *f.seed, Shards: *f.shards, SnapshotInterval: *f.snap, BatchAdaptive: *f.batchAdaptive}
	ids := protocol.IDs()
	i := slices.IndexFunc(ids, func(p protocol.ID) bool { return protoToken(p) == *f.proto })
	if i < 0 {
		return cfg, fmt.Errorf("unknown protocol %q (valid: onepaxos, multipaxos, twopc, mencius, basicpaxos)", *f.proto)
	}
	cfg.Protocol = ids[i]
	for mode := readpath.Consensus; mode.Valid(); mode++ {
		if mode.String() == *f.read {
			cfg.ReadMode = mode
			return cfg, nil
		}
	}
	return cfg, fmt.Errorf("unknown read mode %q (valid: consensus, lease, read-index, follower)", *f.read)
}

// fuzzCell is one deployment configuration the matrix sweeps per engine.
type fuzzCell struct {
	shards   int
	snap     int
	read     readpath.Mode
	adaptive bool
}

// fuzzCells exercises every read mode, sharding, snapshotting, and
// adaptive batching — not the full cross product, but every knob both
// alone and combined with another, which is where the interesting
// interleavings live.
var fuzzCells = []fuzzCell{
	{1, 0, readpath.Consensus, false},
	{1, 0, readpath.Lease, false},
	{1, 0, readpath.Index, false},
	{1, 0, readpath.Follower, false},
	{1, 16, readpath.Consensus, false},
	{1, 16, readpath.Index, false},
	{2, 0, readpath.Consensus, false},
	{2, 16, readpath.Lease, false},
	{1, 0, readpath.Consensus, true},
	{2, 16, readpath.Index, true},
}

// liveEngines complete every op of every matrix run: the schedule's
// faults all heal before the calm tail, and a paused core keeps its
// timers. The other engines still leave ops pending (ROADMAP,
// "Liveness is asserted, not recorded").
var liveEngines = map[protocol.ID]bool{protocol.MultiPaxos: true, protocol.BasicPaxos: true}

func fuzzRun(t *testing.T, cfg fuzzConfig) fuzzResult {
	t.Helper()
	res, err := scenarioFuzz(cfg)
	if err != nil {
		t.Fatalf("scenarioFuzz: %v", err)
	}
	if res.Ops == 0 {
		t.Fatalf("no operations recorded — the workload never ran")
	}
	return res
}

// TestScenarioFuzzMatrix is the main sweep: every engine, every cell,
// several distinct seeds each — at least 250 seeded schedules in total.
// Every run must be violation-free; a failure reports the one-line
// reproduction. The engines in liveEngines must also end every run with
// nothing pending once the calm tail has passed.
func TestScenarioFuzzMatrix(t *testing.T) {
	seedsPerCell := int64(5)
	if testing.Short() {
		// CI smoke: one seed per cell still covers all engines and all
		// knobs, adaptive batching included (50 schedules), inside the
		// required-path time budget.
		seedsPerCell = 1
	}
	seed := int64(0)
	for _, p := range protocol.IDs() {
		p := p
		for _, cell := range fuzzCells {
			cell := cell
			base := seed
			seed += seedsPerCell
			name := fmt.Sprintf("%s/shards=%d/snap=%d/%v", protoToken(p), cell.shards, cell.snap, cell.read)
			if cell.adaptive {
				name += "/adaptive"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for s := base; s < base+seedsPerCell; s++ {
					cfg := fuzzConfig{
						Protocol:         p,
						Seed:             s,
						Shards:           cell.shards,
						SnapshotInterval: cell.snap,
						ReadMode:         cell.read,
						BatchAdaptive:    cell.adaptive,
					}
					res := fuzzRun(t, cfg)
					if res.Violation != nil {
						t.Errorf("seed %d: %v\nreproduce: %s\nschedule:\n%s\nevent log:\n%s",
							s, res.Violation, fuzzRepro(cfg), res.Schedule, res.eventDump())
					}
					if liveEngines[p] && res.Pending != 0 {
						t.Errorf("seed %d: %d of %d ops still pending after the calm tail\nreproduce: %s\nschedule:\n%s",
							s, res.Pending, res.Ops, fuzzRepro(cfg), res.Schedule)
					}
				}
			})
		}
	}
}

// TestScenarioFuzzSeed replays one cell from flags — the reproduction
// entry point the matrix prints on failure. Without -seed it skips.
func TestScenarioFuzzSeed(t *testing.T) {
	if *replay.seed < 0 {
		t.Skip("pass -seed=N (with -proto/-shards/-snap/-readmode) to replay one scenario")
	}
	cfg, err := replay.config()
	if err != nil {
		t.Fatal(err)
	}
	res := fuzzRun(t, cfg)
	t.Logf("ops=%d completed=%d pending=%d faults=%d\nschedule:\n%s",
		res.Ops, res.Completed, res.Pending, res.Events, res.Schedule)
	if res.Violation != nil {
		t.Errorf("violation: %v\nevent log:\n%s", res.Violation, res.eventDump())
	}
}

// TestScenarioFuzzReproRoundTrip holds the reproduction line to what it
// promises for every engine × read mode × adaptive batching: run from
// the repo root it names this package, and its flags, parsed by the
// same config TestScenarioFuzzSeed uses, select exactly the run that
// printed it.
func TestScenarioFuzzReproRoundTrip(t *testing.T) {
	head := []string{"go", "test", "-run", "'TestScenarioFuzzSeed$'"}
	for _, p := range protocol.IDs() {
		for mode := readpath.Consensus; mode.Valid(); mode++ {
			for _, adaptive := range []bool{false, true} {
				want := fuzzConfig{Protocol: p, Seed: 1_002_007, Shards: 2, SnapshotInterval: 16, ReadMode: mode, BatchAdaptive: adaptive}
				repro := fuzzRepro(want)
				args := strings.Fields(repro)
				if len(args) < len(head)+1 || !slices.Equal(args[:len(head)], head) || args[len(args)-1] != "./internal/experiments" {
					t.Fatalf("%q is not a TestScenarioFuzzSeed run of ./internal/experiments", repro)
				}
				fs := flag.NewFlagSet("repro", flag.ContinueOnError)
				f := newFuzzFlags(fs)
				if err := fs.Parse(args[len(head) : len(args)-1]); err != nil {
					t.Fatalf("%q: %v", repro, err)
				}
				got, err := f.config()
				if err != nil {
					t.Fatalf("%q: %v", repro, err)
				}
				if got != want {
					t.Errorf("%q parses back to %+v, printed from %+v", repro, got, want)
				}
			}
		}
	}
}

// TestScenarioFuzzEventDump pins the failure-dump plumbing: every run
// carries the cluster event-log tail, the applied fault episodes land
// in it (kind "fault", one per schedule event still inside the ring),
// and eventDump renders a non-empty timeline. Without this, a
// violation report would silently lose its fault/protocol interleaving
// — the dump only gets read when something is already wrong.
func TestScenarioFuzzEventDump(t *testing.T) {
	res := fuzzRun(t, fuzzConfig{Protocol: protocol.OnePaxos, Seed: 7})
	if res.Violation != nil {
		t.Fatalf("seed 7 should run clean: %v", res.Violation)
	}
	faults := 0
	for _, e := range res.EventTail {
		if e.Kind == "fault" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatalf("no fault events in the tail (%d events, %d scheduled faults)",
			len(res.EventTail), res.Events)
	}
	if len(res.EventTail) <= res.Events && res.Events > 0 && faults == len(res.EventTail) {
		t.Errorf("event tail holds only fault episodes — protocol events missing (%d events)", len(res.EventTail))
	}
	if res.eventDump() == "" {
		t.Error("eventDump rendered empty")
	}
}

// revertGuardProfile makes the historical lease bug reachable: isolation
// episodes long enough (8–10ms) that a takeover completes while the old
// holder's lease is still valid, and nothing else — crashes or message
// drops would obscure whether the checker caught *that* bug.
func revertGuardProfile() *faultsched.Profile {
	return &faultsched.Profile{
		IsolateWeight: 1,
		Episodes:      2,
		MinDur:        8 * time.Millisecond,
		MaxDur:        10 * time.Millisecond,
	}
}

// revertGuardConfig is one revert-guard run: 1Paxos under lease reads,
// with a lease (40ms) far outlasting any isolation episode, so the
// isolated leader keeps serving locally while the majority side elects a
// successor and commits writes behind its back.
func revertGuardConfig(seed int64, legacy bool) fuzzConfig {
	return fuzzConfig{
		Protocol:       protocol.OnePaxos,
		Seed:           seed,
		ReadMode:       readpath.Lease,
		LeaseDuration:  40 * time.Millisecond,
		Profile:        revertGuardProfile(),
		LegacyLeaseBug: legacy,
	}
}

// TestScenarioFuzzRevertGuard re-introduces the lease self-prepare
// exemption (a granter counting its own prepare toward deposing the
// holder its grant still protects) behind the test-only hook and demands
// the checker flag a stale read within a bounded seed budget — proof the
// fuzzer would catch this bug class if the fix regressed. The violating
// seed must then pass on the fixed code, pinning the blame on the
// re-enabled bug rather than the harness.
func TestScenarioFuzzRevertGuard(t *testing.T) {
	const seedBudget = 25
	caught := int64(-1)
	for seed := int64(0); seed < seedBudget; seed++ {
		res := fuzzRun(t, revertGuardConfig(seed, true))
		if res.Violation != nil {
			caught = seed
			t.Logf("legacy lease bug caught at seed %d: %v", seed, res.Violation)
			break
		}
	}
	if caught < 0 {
		t.Fatalf("legacy lease bug not caught within %d seeds — the fuzzer lost its teeth", seedBudget)
	}
	res := fuzzRun(t, revertGuardConfig(caught, false))
	if res.Violation != nil {
		t.Errorf("seed %d violates even without the legacy bug: %v\nschedule:\n%s\nevent log:\n%s",
			caught, res.Violation, res.Schedule, res.eventDump())
	}
}
