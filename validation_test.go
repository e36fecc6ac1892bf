package consensusinside

// One pipeline/batching rule set, three front doors. StartKV,
// cluster.Build and workload.NewClient all call rsm.CheckPipeline;
// this table pins that whatever it rejects, every entry point rejects
// with an error — never a panic, never a started deployment, never a
// silent clamp — and that what it accepts, every entry point starts.

import (
	"testing"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
	"consensusinside/internal/workload"
)

func TestPipelineValidationEveryEntryPoint(t *testing.T) {
	cases := []struct {
		name     string
		window   int
		adaptive bool
		timeout  time.Duration // StartKV's own knob: a row that sets it checks that door alone
		ok       bool
	}{
		{name: "negative window", window: -5},
		{name: "negative request timeout", window: 8, timeout: -time.Second},
		{name: "window past the session window", window: rsm.DefaultSessionWindow + 1},
		{name: "adaptive in a closed loop", window: 1, adaptive: true},
		{name: "smallest adaptive window", window: 2, adaptive: true, ok: true},
		{name: "the session window itself", window: rsm.DefaultSessionWindow, ok: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := rsm.CheckPipeline("test", tc.window, tc.adaptive); tc.timeout == 0 && (err == nil) != tc.ok {
				t.Fatalf("CheckPipeline = %v, want accepted=%v", err, tc.ok)
			}
			entries := map[string]func() error{
				"StartKV": func() error {
					kv, err := StartKV(KVConfig{Pipeline: tc.window, BatchAdaptive: tc.adaptive, RequestTimeout: tc.timeout})
					if err == nil {
						kv.Close()
					}
					return err
				},
				"cluster.Build": func() error {
					_, err := cluster.Build(cluster.Spec{
						Protocol: OnePaxos, Machine: topology.Opteron48(), Cost: simnet.ManyCore(), Replicas: 3, Clients: 2,
						Window: tc.window, BatchAdaptive: tc.adaptive,
					})
					return err
				},
				"workload.NewClient": func() error {
					_, err := workload.NewClient(workload.Config{
						ID: 9, Servers: []msg.NodeID{0, 1, 2},
						Window: tc.window, BatchAdaptive: tc.adaptive,
					})
					return err
				},
			}
			if tc.timeout != 0 {
				entries = map[string]func() error{"StartKV": entries["StartKV"]}
			}
			for name, start := range entries {
				if err := noPanic(t, name, start); (err == nil) != tc.ok {
					t.Errorf("%s = %v, want accepted=%v", name, err, tc.ok)
				}
			}
		})
	}
}

// TestEngineConfigValidationEveryEntryPoint pins that the snapshot,
// read-path and retry bounds live in protocol.Build alone and still
// reach every front door: each bad value is rejected by protocol.Build
// directly (bench/'s ladder and the engine tests call it), by StartKV
// and by cluster.Build. KVConfig has no transaction-retry knob of its
// own; AcceptTimeout feeds it.
func TestEngineConfigValidationEveryEntryPoint(t *testing.T) {
	cases := []struct {
		name           string
		interval       int
		mode           readpath.Mode
		lease, txRetry time.Duration
	}{
		{name: "negative snapshot interval", interval: -1},
		{name: "unknown read mode", mode: readpath.Mode(99)},
		{name: "negative lease duration", lease: -time.Second},
		{name: "negative transaction retry timeout", txRetry: -time.Second},
	}
	ids := []msg.NodeID{0, 1, 2}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			entries := map[string]func() error{
				"protocol.Build": func() error {
					_, err := protocol.Build(OnePaxos, protocol.Config{
						ID: 0, Replicas: ids, SnapshotInterval: tc.interval,
						ReadMode: tc.mode, LeaseDuration: tc.lease, TxRetryTimeout: tc.txRetry,
					})
					return err
				},
				"StartKV": func() error {
					kv, err := StartKV(KVConfig{
						SnapshotInterval: tc.interval, ReadMode: ReadMode(tc.mode),
						LeaseDuration: tc.lease, AcceptTimeout: tc.txRetry,
					})
					if err == nil {
						kv.Close()
					}
					return err
				},
				"cluster.Build": func() error {
					_, err := cluster.Build(cluster.Spec{
						Protocol: OnePaxos, Machine: topology.Opteron48(), Cost: simnet.ManyCore(), Replicas: 3, Clients: 2,
						SnapshotInterval: tc.interval, ReadMode: tc.mode,
						LeaseDuration: tc.lease, TxRetryTimeout: tc.txRetry,
					})
					return err
				},
			}
			for name, start := range entries {
				if err := noPanic(t, name, start); err == nil {
					t.Errorf("%s accepted it", name)
				}
			}
		})
	}
}

// noPanic runs start and turns a panic into a test failure.
func noPanic(t *testing.T, name string, start func() error) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s panicked: %v", name, p)
		}
	}()
	return start()
}
