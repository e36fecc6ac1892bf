package consensusinside

// The batch-size sweep: the companion scaling experiment to
// shardsweep.go, measuring command batching on the real runtimes (wall
// clock). It holds the pipeline window fixed and varies how many
// commands ride one consensus instance — the group-commit question:
// given a window of outstanding commands, how much does amortizing
// agreement over batches buy?
//
// The mechanism under test spans the whole stack: the bridge coalesces
// queued commands into one batched request, the engine decides the
// batch in a single instance (the value is opaque to it), the rsm
// applies it atomically with per-command session results, and the
// replicas answer with one ClientReplyBatch so the freed window refills
// as a full batch again. Batch 1 is exactly the pre-batching system.
//
// cmd/consensusbench exposes this as the batch-sweep experiment;
// docs/BENCHMARKS.md is the runbook.

import (
	"fmt"
	"sync"
	"time"
)

// BatchSweepOptions parameterizes BatchSweep. Zero values select the
// defaults noted on each field.
type BatchSweepOptions struct {
	// Transport selects the runtime under test (default InProc).
	Transport TransportKind
	// Replicas is the agreement-group size (default 3).
	Replicas int
	// Pipeline is the bridge window every configuration shares (default
	// DefaultPipeline = 16); batches are drawn from it.
	Pipeline int
	// BatchSizes are the batch caps to sweep (default 1, 8); each must
	// fit the pipeline window.
	BatchSizes []int
	// Ops is the total number of committed Puts measured per
	// configuration (default 24000 — batching runs fast enough that a
	// larger sample keeps the ratio stable against scheduler noise).
	Ops int
	// Workers is the number of concurrent callers (default 4x the
	// pipeline window, so the bridge queue always has a full batch
	// waiting).
	Workers int
}

func (o BatchSweepOptions) withDefaults() BatchSweepOptions {
	if o.Transport == 0 {
		o.Transport = InProc
	}
	if o.Replicas == 0 {
		o.Replicas = 3
	}
	if o.Pipeline == 0 {
		o.Pipeline = DefaultPipeline
	}
	if len(o.BatchSizes) == 0 {
		o.BatchSizes = []int{1, 8}
	}
	if o.Ops == 0 {
		o.Ops = 24000
	}
	if o.Workers == 0 {
		o.Workers = 4 * o.Pipeline
	}
	return o
}

// BatchSweepPoint is one batch configuration's result.
type BatchSweepPoint struct {
	Batch           int     // commands-per-instance cap
	Ops             int     // committed commands measured
	Throughput      float64 // committed ops per wall-clock second
	Batches         int64   // consensus instances proposed for them
	CommandsPerInst float64 // mean batch occupancy actually achieved
}

// BatchSweep measures Put throughput at a fixed pipeline window while
// sweeping the commands-per-instance batch cap. Every configuration
// commits the same number of commands from the same worker pool; only
// how many consensus instances they are packed into changes. The
// returned points are in BatchSizes order.
func BatchSweep(opts BatchSweepOptions) ([]BatchSweepPoint, error) {
	opts = opts.withDefaults()
	out := make([]BatchSweepPoint, 0, len(opts.BatchSizes))
	for _, batch := range opts.BatchSizes {
		if batch < 1 || batch > opts.Pipeline {
			return nil, fmt.Errorf("consensusinside: batch size %d outside the %d-deep pipeline window",
				batch, opts.Pipeline)
		}
		pt, err := batchSweepOne(opts, batch)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// runPutLoad drives committed Puts through kv from workers concurrent
// callers (ops total, rounded down to a whole number per worker) and
// reports how many committed and how long the measured window took.
// Shared by the batch sweep and the sustained-load recovery test
// (the shard sweep keeps its own loop: its keys must pin to shards).
func runPutLoad(kv *KV, ops, workers int) (total int, elapsed time.Duration, err error) {
	perWorker := ops / workers
	if perWorker < 1 {
		perWorker = 1
	}
	total = perWorker * workers
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := kv.Put(fmt.Sprintf("w%d-%d", w, i), "v"); err != nil {
					errs <- fmt.Errorf("consensusinside: worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(start)
	select {
	case err = <-errs:
		return 0, 0, err
	default:
	}
	return total, elapsed, nil
}

func batchSweepOne(opts BatchSweepOptions, batch int) (BatchSweepPoint, error) {
	kv, err := StartKV(KVConfig{
		Replicas:       opts.Replicas,
		Transport:      opts.Transport,
		Pipeline:       opts.Pipeline,
		BatchSize:      batch,
		RequestTimeout: 60 * time.Second,
	})
	if err != nil {
		return BatchSweepPoint{}, err
	}
	defer kv.Close()

	// Warm the leader path and connections outside the window.
	if err := kv.Put("warm", "v"); err != nil {
		return BatchSweepPoint{}, fmt.Errorf("consensusinside: warmup: %w", err)
	}
	warmed := kv.BatchStats()

	total, elapsed, err := runPutLoad(kv, opts.Ops, opts.Workers)
	if err != nil {
		return BatchSweepPoint{}, err
	}
	occ := kv.BatchStats()
	batches := occ.Batches() - warmed.Batches()
	mean := 0.0
	if batches > 0 {
		mean = float64(occ.Commands()-warmed.Commands()) / float64(batches)
	}
	return BatchSweepPoint{
		Batch:           batch,
		Ops:             total,
		Throughput:      float64(total) / elapsed.Seconds(),
		Batches:         batches,
		CommandsPerInst: mean,
	}, nil
}
