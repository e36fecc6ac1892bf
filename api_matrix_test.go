package consensusinside

// The protocol × transport matrix test: the paper's portability claim
// ("implemented protocols ... can be easily ported to a network system
// with no change", Section 6.2) holds only if the same protocol produces
// the same client-visible results over the in-process queues and over
// TCP. Every registered protocol runs one deterministic op sequence on
// both transports; the observed results must match each other and the
// sequential-map oracle.

import (
	"fmt"
	"testing"
	"time"
)

// matrixOps is a deterministic mixed workload: interleaved puts,
// overwrites and reads across a handful of keys.
type matrixOp struct {
	put bool
	key string
	val string
}

func matrixWorkload() []matrixOp {
	var ops []matrixOp
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("k%d", i%4)
		ops = append(ops, matrixOp{put: true, key: key, val: fmt.Sprintf("v%d", i)})
		if i%3 == 0 {
			ops = append(ops, matrixOp{key: key})
		}
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, matrixOp{key: fmt.Sprintf("k%d", i)})
	}
	ops = append(ops, matrixOp{key: "missing"})
	return ops
}

// runMatrix executes the workload against one (protocol, transport,
// shards, batch) cell and returns every observed result in order. A
// batch cap above 1 turns on the adaptive batcher with a window of twice
// the cap.
func runMatrix(t *testing.T, p Protocol, tr TransportKind, shards, batch int) []string {
	t.Helper()
	cfg := KVConfig{
		Protocol:       p,
		Transport:      tr,
		Shards:         shards,
		RequestTimeout: 30 * time.Second,
	}
	if batch > 1 {
		cfg.Pipeline, cfg.BatchAdaptive = 2*batch, true
	}
	return runMatrixCfg(t, cfg)
}

// runMatrixCfg executes the workload against an arbitrary KVConfig cell
// (the codec tests vary knobs runMatrix does not expose).
func runMatrixCfg(t *testing.T, cfg KVConfig) []string {
	t.Helper()
	kv, err := StartKV(cfg)
	if err != nil {
		t.Fatalf("StartKV(%+v): %v", cfg, err)
	}
	defer kv.Close()
	var results []string
	for i, op := range matrixWorkload() {
		if op.put {
			if err := kv.Put(op.key, op.val); err != nil {
				t.Fatalf("op %d: put %s=%s: %v", i, op.key, op.val, err)
			}
			results = append(results, "ok")
			continue
		}
		got, err := kv.Get(op.key)
		if err != nil {
			t.Fatalf("op %d: get %s: %v", i, op.key, err)
		}
		results = append(results, got)
	}
	return results
}

// oracle replays the workload on a plain map.
func oracle() []string {
	state := map[string]string{}
	var results []string
	for _, op := range matrixWorkload() {
		if op.put {
			state[op.key] = op.val
			results = append(results, "ok")
			continue
		}
		results = append(results, state[op.key])
	}
	return results
}

// TestKVProtocolTransportMatrix runs every registered protocol over
// both transports — with command batching off (the paper's behavior)
// and on — and demands identical results per protocol across
// transports, and agreement with the sequential oracle.
func TestKVProtocolTransportMatrix(t *testing.T) {
	want := oracle()
	check := func(t *testing.T, inproc, tcp []string) {
		t.Helper()
		if len(inproc) != len(want) || len(tcp) != len(want) {
			t.Fatalf("result lengths diverge: inproc %d, tcp %d, want %d",
				len(inproc), len(tcp), len(want))
		}
		for i := range want {
			if inproc[i] != want[i] {
				t.Errorf("op %d over InProc: got %q, want %q", i, inproc[i], want[i])
			}
			if tcp[i] != inproc[i] {
				t.Errorf("op %d: TCP result %q != InProc result %q", i, tcp[i], inproc[i])
			}
		}
	}
	for _, p := range Protocols() {
		for _, batch := range []int{1, 4} {
			p, batch := p, batch
			t.Run(fmt.Sprintf("%v/batch%d", p, batch), func(t *testing.T) {
				check(t, runMatrix(t, p, InProc, 1, batch),
					runMatrix(t, p, TCP, 1, batch))
			})
		}
		// The adaptive batcher must be invisible to clients: same
		// results, same history, both transports (the controller only
		// re-times when queued commands turn into proposals).
		t.Run(fmt.Sprintf("%v/adaptive", p), func(t *testing.T) {
			cfg := func(tr TransportKind) KVConfig {
				return KVConfig{
					Protocol:       p,
					Transport:      tr,
					Pipeline:       4,
					BatchAdaptive:  true,
					RequestTimeout: 30 * time.Second,
				}
			}
			check(t, runMatrixCfg(t, cfg(InProc)), runMatrixCfg(t, cfg(TCP)))
		})
		// The read fast path's linearizable quorum-confirmed mode must
		// serve the same sequential history as read-through-consensus on
		// every engine and both transports (the leaderless engines take
		// their accepted-evidence frontier path here; the leader-based
		// ones their commit-frontier path).
		p := p
		t.Run(fmt.Sprintf("%v/readindex", p), func(t *testing.T) {
			cfg := func(tr TransportKind) KVConfig {
				return KVConfig{
					Protocol:       p,
					Transport:      tr,
					ReadMode:       ReadIndex,
					RequestTimeout: 30 * time.Second,
				}
			}
			check(t, runMatrixCfg(t, cfg(InProc)), runMatrixCfg(t, cfg(TCP)))
		})
	}
}

// TestKVPipelinedConcurrentClients drives concurrent callers through the
// pipelined bridge on every protocol (InProc) and checks exactly-once
// visibility of every write plus that the pipeline actually opened up.
func TestKVPipelinedConcurrentClients(t *testing.T) {
	for _, p := range Protocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			kv, err := StartKV(KVConfig{
				Protocol:       p,
				Pipeline:       8,
				BatchAdaptive:  true,
				RequestTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			const writers, each = 4, 8
			errc := make(chan error, writers)
			for w := 0; w < writers; w++ {
				go func(w int) {
					for i := 0; i < each; i++ {
						if err := kv.Put(fmt.Sprintf("w%d-%d", w, i), "v"); err != nil {
							errc <- err
							return
						}
					}
					errc <- nil
				}(w)
			}
			for w := 0; w < writers; w++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			for w := 0; w < writers; w++ {
				for i := 0; i < each; i++ {
					key := fmt.Sprintf("w%d-%d", w, i)
					if v, err := kv.Get(key); err != nil || v != "v" {
						t.Fatalf("%s = %q, %v", key, v, err)
					}
				}
			}
			// Deterministic pipelining check: a burst of Puts that is
			// queued whole before the bridge's pump sees any of it is
			// drained by that single pump, which must fill the window
			// before any reply can retire an op.
			for i, err := range queueBurst(kv.shards[0].bridge, 8, func(i int) error {
				return kv.Put(fmt.Sprintf("burst-%d", i), "b")
			}) {
				if err != nil {
					t.Fatalf("burst op %d: %v", i, err)
				}
			}
			if kv.MaxInFlight() < 2 {
				t.Errorf("bridge never pipelined: max in flight %d", kv.MaxInFlight())
			}
			// The pre-queued burst of 8 is drained by one pump through a
			// batch cap of 4: multi-command instances must have formed.
			occ := kv.BatchStats()
			if occ.Commands() <= occ.Batches() {
				t.Errorf("batcher never coalesced: %d commands in %d instances",
					occ.Commands(), occ.Batches())
			}
		})
	}
}

// TestKVBatchValidation pins the BatchAdaptive error case.
func TestKVBatchValidation(t *testing.T) {
	if _, err := StartKV(KVConfig{Pipeline: 1, BatchAdaptive: true}); err == nil {
		t.Error("adaptive batching with window 1 accepted")
	}
	kv, err := StartKV(KVConfig{Pipeline: 8, BatchAdaptive: true})
	if err != nil {
		t.Fatalf("legal batching config rejected: %v", err)
	}
	kv.Close()
}
