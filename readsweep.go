package consensusinside

// The read-path sweep: the companion experiment to batchsweep.go,
// measuring the read fast path on the real runtimes (wall clock). It holds the write path fixed and varies two knobs: the
// read mode (consensus / lease / read-index / follower) and the read
// share of the offered load (the paper's Section 7.5 read workloads;
// 50/90/99% by default). ReadConsensus is exactly the pre-read-path
// system — every Get is a consensus command — so each cell's gain over
// the consensus cell at the same mix is the fast path's win.
//
// The mechanism under test spans the whole stack: Get calls bypass the
// proposer-side batcher into the bridge's read queue, coalesce into
// ReadRequest messages, and are served from a replica's local state
// machine under a leader lease, a read-index confirmation round, or
// follower staleness (internal/readpath; DESIGN.md, "The read path").
//
// cmd/consensusbench exposes this as the read-sweep experiment;
// docs/BENCHMARKS.md is the runbook.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"consensusinside/internal/metrics"
)

// ReadSweepOptions parameterizes ReadSweep. Zero values select the
// defaults noted on each field.
type ReadSweepOptions struct {
	// Transport selects the runtime under test (default InProc).
	Transport TransportKind
	// Replicas is the agreement-group size (default 3).
	Replicas int
	// Pipeline is the bridge window every configuration shares (default
	// DefaultPipeline = 16).
	Pipeline int
	// Modes are the read modes to sweep (default all four, consensus
	// first so every other cell has its baseline in the same run).
	Modes []ReadMode
	// ReadPercents are the read shares of the offered load to sweep, in
	// [0,100] (default 50, 90, 99 — the high-read mixes where the fast
	// path matters).
	ReadPercents []int
	// Ops is the total number of operations (reads + writes) measured
	// per configuration (default 48000).
	Ops int
	// Workers is the number of concurrent callers (default 8x the
	// pipeline window, so both the read queue and the write batcher
	// always have work and read coalescing has something to coalesce).
	Workers int
	// Keys is the size of the prepopulated keyspace the mixed load runs
	// over (default 128).
	Keys int
}

func (o ReadSweepOptions) withDefaults() ReadSweepOptions {
	if o.Transport == 0 {
		o.Transport = InProc
	}
	if o.Replicas == 0 {
		o.Replicas = 3
	}
	if o.Pipeline == 0 {
		o.Pipeline = DefaultPipeline
	}
	if len(o.Modes) == 0 {
		o.Modes = []ReadMode{ReadConsensus, ReadLease, ReadIndex, ReadFollower}
	}
	if len(o.ReadPercents) == 0 {
		o.ReadPercents = []int{50, 90, 99}
	}
	if o.Ops == 0 {
		o.Ops = 48000
	}
	if o.Workers == 0 {
		o.Workers = 8 * o.Pipeline
	}
	if o.Keys == 0 {
		o.Keys = 128
	}
	return o
}

// ReadSweepPoint is one (mode, read%) configuration's result.
type ReadSweepPoint struct {
	Mode        ReadMode
	ReadPercent int
	Ops         int     // operations measured (reads + writes)
	Throughput  float64 // ops per wall-clock second
	ReadP50     time.Duration
	ReadP99     time.Duration
	WriteP50    time.Duration
	WriteP99    time.Duration
	Reads       metrics.ReadStats // server-side fast-path counters
}

// ReadSweep measures mixed-load throughput while sweeping the read mode
// and the read share. Every configuration drives the same number of
// operations from the same worker pool over the same prepopulated
// keyspace; only how reads are served changes. The returned points
// iterate Modes in the outer loop and ReadPercents in the inner one.
func ReadSweep(opts ReadSweepOptions) ([]ReadSweepPoint, error) {
	opts = opts.withDefaults()
	out := make([]ReadSweepPoint, 0, len(opts.Modes)*len(opts.ReadPercents))
	for _, mode := range opts.Modes {
		for _, pct := range opts.ReadPercents {
			if pct < 0 || pct > 100 {
				return nil, fmt.Errorf("consensusinside: read percent %d outside [0,100]", pct)
			}
			pt, err := readSweepOne(opts, mode, pct)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

func readSweepOne(opts ReadSweepOptions, mode ReadMode, pct int) (ReadSweepPoint, error) {
	kv, err := StartKV(KVConfig{
		Replicas:  opts.Replicas,
		Transport: opts.Transport,
		Pipeline:  opts.Pipeline,
		ReadMode:  mode,
		// A wall-clock-appropriate lease: the package default (5ms,
		// sized for the sim runtime's virtual clock) would spend its
		// life renewing and lapse under scheduler noise.
		LeaseDuration:  100 * time.Millisecond,
		RequestTimeout: 60 * time.Second,
	})
	if err != nil {
		return ReadSweepPoint{}, err
	}
	defer kv.Close()

	// Prepopulate the keyspace (and warm the leader path, connections,
	// and — under ReadLease — the lease itself) outside the window.
	keys := make([]string, opts.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if err := kv.Put(keys[i], "v0"); err != nil {
			return ReadSweepPoint{}, fmt.Errorf("consensusinside: prepopulate: %w", err)
		}
	}
	if _, err := kv.Get(keys[0]); err != nil {
		return ReadSweepPoint{}, fmt.Errorf("consensusinside: warm read: %w", err)
	}

	perWorker := opts.Ops / opts.Workers
	if perWorker < 1 {
		perWorker = 1
	}
	total := perWorker * opts.Workers
	errs := make(chan error, opts.Workers)
	readHists := make([]metrics.Histogram, opts.Workers)
	writeHists := make([]metrics.Histogram, opts.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWorker; i++ {
				key := keys[rng.Intn(len(keys))]
				opStart := time.Now()
				if rng.Intn(100) < pct {
					if _, err := kv.Get(key); err != nil {
						errs <- fmt.Errorf("consensusinside: worker %d get: %w", w, err)
						return
					}
					readHists[w].Record(time.Since(opStart))
				} else {
					if err := kv.Put(key, "v"); err != nil {
						errs <- fmt.Errorf("consensusinside: worker %d put: %w", w, err)
						return
					}
					writeHists[w].Record(time.Since(opStart))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err = <-errs:
		return ReadSweepPoint{}, err
	default:
	}

	var readHist, writeHist metrics.Histogram
	for w := range readHists {
		readHist.Merge(&readHists[w])
		writeHist.Merge(&writeHists[w])
	}
	return ReadSweepPoint{
		Mode:        mode,
		ReadPercent: pct,
		Ops:         total,
		Throughput:  float64(total) / elapsed.Seconds(),
		ReadP50:     readHist.Percentile(50),
		ReadP99:     readHist.Percentile(99),
		WriteP50:    writeHist.Percentile(50),
		WriteP99:    writeHist.Percentile(99),
		Reads:       kv.ReadStats(),
	}, nil
}
