package main

import (
	"fmt"
	"math/rand"
	"time"

	ci "consensusinside"
)

// workload is one named traffic mix. Everything that distinguishes one
// workload from another is data here; the runners in run.go and failover.go
// branch on Open only.
type workload struct {
	Name string
	// Why says which layers the workload loads and which it bypasses — the
	// reason it exists (also BENCHMARK.json's "why").
	Why     string
	Callers int
	GetPct  int  // share of operations that are Gets, in percent
	Open    bool // open loop on a fixed schedule with leader crashes (failover.go)
	// NotGated, when set, says why the workload's end-to-end values gate
	// nothing: they are reported, but BENCHMARK.json leaves the workload out
	// (a driver gates every metric of every workload it lists) and -aa and
	// compare do not count its rows.
	NotGated string
	Config   ci.KVConfig
}

// Shapes shared by every workload.
const (
	numKeys  = 1024
	valueLen = 64
	// ringLen is each caller's pre-generated operation sequence; a caller
	// cycles through it, so a run of any length draws on the same inputs.
	ringLen = 4096
	// valsPerCaller is each closed-loop caller's pre-generated value set.
	valsPerCaller = 256
	// openRate is the open-loop workload's schedule: one Put due every
	// 200 us, 5 000 a second.
	openRate = 5000
)

// baseConfig is what every workload shares: 1Paxos, 3 replicas per group,
// a 16-deep pipeline. SnapshotInterval bounds the log — with the default
// unbounded log the heap passes 1 GB within 15 s of inproc-put-sat, which
// no deployment would run — and RequestTimeout outlasts any outage the
// failover workload causes, so a stalled operation is late, not failed.
func baseConfig() ci.KVConfig {
	return ci.KVConfig{
		Protocol:         ci.OnePaxos,
		Replicas:         3,
		Pipeline:         16,
		SnapshotInterval: 1024,
		RequestTimeout:   10 * time.Second,
	}
}

func withConfig(edit func(*ci.KVConfig)) ci.KVConfig {
	c := baseConfig()
	edit(&c)
	return c
}

var workloads = []workload{
	{
		Name:    "inproc-put-light",
		Why:     "4 callers, batch 1: one instance per command, so queue hops, one engine step per op and the reply wake-up are the whole cost; the batcher and codec do nothing",
		Callers: 4,
		Config:  withConfig(func(c *ci.KVConfig) {}),
	},
	{
		Name:    "inproc-put-sat",
		Why:     "32 callers, adaptive batching: ~7 commands per instance amortise the engine, so the bridge lock, batcher and reply fan-out dominate; the codec does nothing",
		Callers: 32,
		Config:  withConfig(func(c *ci.KVConfig) { c.BatchAdaptive = true }),
	},
	{
		Name:    "tcp-put-sat",
		Why:     "inproc-put-sat over loopback TCP: msg encode/decode, wire framing and the transport writers do most of the work; every InProc workload bypasses them",
		Callers: 32,
		Config: withConfig(func(c *ci.KVConfig) {
			c.BatchAdaptive = true
			c.Transport = ci.TCP
		}),
	},
	{
		Name:    "inproc-mixed-lease",
		Why:     "90% lease Gets, 10% Puts: the read path and the bridge's read lane serve nine ops in ten and the engines idle, so a write-path gain that costs reads shows here",
		Callers: 32,
		GetPct:  90,
		Config: withConfig(func(c *ci.KVConfig) {
			c.BatchAdaptive = true
			c.ReadMode = ci.ReadLease
			c.LeaseDuration = 100 * time.Millisecond
		}),
	},
	{
		Name:    "inproc-shard4-put",
		Why:     "inproc-put-sat over 4 shards: 12 replica goroutines and 4 bridges on nproc cores, so spin-then-park and scheduling do the work; holds the 4-shards-slower-than-1 inversion",
		Callers: 32,
		Config: withConfig(func(c *ci.KVConfig) {
			c.BatchAdaptive = true
			c.Shards = 4
		}),
	},
	{
		Name:    "inproc-failover",
		Why:     "open loop, 5000 Put/s on a fixed schedule while the leader is crashed every 6 s and restarted 1 s later: faults, recovery, and the only low rate, where replica goroutines park between arrivals",
		Callers: 64,
		Open:    true,
		// At 5000 Put/s both cores are idle most of the time, so what a Put
		// takes is how fast the host wakes a halted virtual CPU, and that
		// depends on what the machine ran just before: the same binary reads
		// put_p50_us 15 us with cpu_us_per_op 24 after a quiet minute and 25 us
		// with 35 after 20 s of a saturating workload.
		NotGated: "low rate: latency and CPU per op follow the host's wake-up latency (15 or 25 us p50 depending on what ran before), not the code",
		Config: withConfig(func(c *ci.KVConfig) {
			c.BatchAdaptive = true
			c.AcceptTimeout = 50 * time.Millisecond
		}),
	},
}

// gatedWorkloads are BENCHMARK.json's workloads.
func gatedWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		if w.NotGated == "" {
			out = append(out, w)
		}
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one pre-generated operation: the key it touches and, for a Put, the
// key's position among its owner's keys (-1 marks a Get).
type op struct {
	key  int32
	slot int32
}

// callerInput is everything one caller consumes during a run, generated
// before the first window so the driver formats and allocates nothing per
// operation.
type callerInput struct {
	owned []int32  // keys only this caller writes
	ops   []op     // closed loop: a ring; open loop: the caller's schedule in order
	vals  []string // values to write, in order (closed loop: cycled)
	init  []string // the owned keys' prepopulated values, by slot
}

// inputs is a run's whole input, a pure function of (workload, seed, and
// for the open loop the schedule length).
type inputs struct {
	keys    []string
	owner   []int32 // key -> owning caller
	slot    []int32 // key -> position in its owner's owned list
	pad     string  // shared tail of every value
	callers []callerInput
}

const valueHead = 11 // len("c000.00000.")

func (in *inputs) value(caller, idx int) string {
	return fmt.Sprintf("c%03d.%05d.", caller, idx) + in.pad
}

// issuedBy reports whether v is a value key's owner could have written:
// the owner's tag, an index inside its value set, and the run's padding.
func (in *inputs) issuedBy(key int32, v string) bool {
	if len(v) != valueLen || v[valueHead:] != in.pad {
		return false
	}
	owner := int(in.owner[key])
	if v[0] != 'c' || v[4] != '.' || v[10] != '.' {
		return false
	}
	c, ok1 := atoiFixed(v[1:4])
	i, ok2 := atoiFixed(v[5:10])
	o := &in.callers[owner]
	return ok1 && ok2 && c == owner && i < len(o.vals)+len(o.init)
}

func atoiFixed(s string) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

// genInputs builds a run's inputs from the seed. openOps is the number of
// scheduled operations of the open-loop workload (0 for a closed loop).
func genInputs(w workload, seed int64, openOps int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		keys:    make([]string, numKeys),
		owner:   make([]int32, numKeys),
		slot:    make([]int32, numKeys),
		callers: make([]callerInput, w.Callers),
	}
	seen := make(map[int]bool, numKeys)
	for i := range in.keys {
		n := rng.Intn(100_000_000)
		for seen[n] {
			n = rng.Intn(100_000_000)
		}
		seen[n] = true
		in.keys[i] = fmt.Sprintf("key-%08d", n)
		c := i % w.Callers
		in.owner[i] = int32(c)
		in.slot[i] = int32(len(in.callers[c].owned))
		in.callers[c].owned = append(in.callers[c].owned, int32(i))
	}
	pad := make([]byte, valueLen-valueHead)
	for i := range pad {
		pad[i] = byte('a' + rng.Intn(26))
	}
	in.pad = string(pad)

	for c := range in.callers {
		cin := &in.callers[c]
		nvals := valsPerCaller
		if w.Open {
			nvals = (openOps - c + w.Callers - 1) / w.Callers
		}
		cin.vals = make([]string, nvals)
		for i := range cin.vals {
			cin.vals[i] = in.value(c, i)
		}
		cin.init = make([]string, len(cin.owned))
		for i := range cin.init {
			cin.init[i] = in.value(c, nvals+i)
		}
		if w.Open {
			// Operation j of the schedule belongs to caller j % Callers; each
			// writes a value no other operation writes, so the recorded
			// history pins every read to one write.
			cin.ops = make([]op, nvals)
			for i := range cin.ops {
				s := int32(rng.Intn(len(cin.owned)))
				cin.ops[i] = op{key: cin.owned[s], slot: s}
			}
			continue
		}
		cin.ops = make([]op, ringLen)
		for i := range cin.ops {
			if rng.Intn(100) < w.GetPct {
				cin.ops[i] = op{key: int32(rng.Intn(numKeys)), slot: -1}
			} else {
				s := int32(rng.Intn(len(cin.owned)))
				cin.ops[i] = op{key: cin.owned[s], slot: s}
			}
		}
	}
	return in
}
