package consensusinside

// End-to-end test of the /debug introspection surface: a real KV with
// the listener attached via KVConfig.DebugAddr, polled over actual
// HTTP. The CI debug smoke curls the same endpoints against the
// example server; this pins the JSON shapes it asserts on.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

func debugGET(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content-type %q", path, ct)
	}
	return body
}

func TestDebugEndpoints(t *testing.T) {
	kv, err := StartKV(KVConfig{
		BatchAdaptive: true,
		TraceInterval: 8,
		DebugAddr:     "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	addr := kv.DebugAddr()
	if addr == "" {
		t.Fatal("DebugAddr empty after DebugAddr config")
	}

	for i := 0; i < 64; i++ {
		if err := kv.Put(fmt.Sprintf("k%d", i%4), "v"); err != nil {
			t.Fatal(err)
		}
	}

	// The root directory names every sub-surface.
	var index map[string]string
	if err := json.Unmarshal(debugGET(t, addr, "/"), &index); err != nil {
		t.Fatalf("index JSON: %v", err)
	}
	for _, k := range []string{"metrics", "trace", "events", "pprof"} {
		if index[k] == "" {
			t.Errorf("index missing %q", k)
		}
	}

	// /debug/metrics: the unified registry snapshot. The trace
	// counters and at least one trace-stage histogram must be present
	// — that is the tentpole's absorption contract.
	var m struct {
		Counters map[string]int64   `json:"counters"`
		Flat     map[string]float64 `json:"flat"`
		Names    []string           `json:"names"`
		Hists    map[string]any     `json:"hists"`
	}
	if err := json.Unmarshal(debugGET(t, addr, "/debug/metrics"), &m); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if m.Counters["trace.started"] == 0 {
		t.Errorf("trace.started = %d; tracer at interval 8 with 64 puts should have sampled", m.Counters["trace.started"])
	}
	// The sequence-window growth counters are listed even while zero, so
	// a pinned command shows up as a number that starts moving.
	for _, name := range []string{"session.ring_growths", "bridge.write_ring_growths", "bridge.read_ring_growths"} {
		if _, ok := m.Counters[name]; !ok {
			t.Errorf("%s absent from /debug/metrics", name)
		}
	}
	if len(m.Names) == 0 || len(m.Flat) == 0 {
		t.Error("metrics dump missing names/flat sections")
	}
	if _, ok := m.Hists["trace.total"]; !ok {
		t.Error("trace.total histogram absent from /debug/metrics")
	}

	// /debug/trace: span accounting plus the sample ring.
	var tr struct {
		Interval int `json:"interval"`
		Started  int64
		Finished int64
		Samples  []struct {
			Seq uint64 `json:"seq"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(debugGET(t, addr, "/debug/trace"), &tr); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if tr.Interval != 8 {
		t.Errorf("trace interval %d, want 8", tr.Interval)
	}
	if tr.Finished == 0 || len(tr.Samples) == 0 {
		t.Errorf("trace surface empty: finished=%d samples=%d", tr.Finished, len(tr.Samples))
	}

	// /debug/events: always well-formed, even with an empty ring.
	var ev struct {
		Total  int64            `json:"total"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(debugGET(t, addr, "/debug/events"), &ev); err != nil {
		t.Fatalf("events JSON: %v", err)
	}
	if ev.Events == nil {
		t.Error("events array must be present (possibly empty), not null")
	}

	// pprof is mounted (the index, not a profile — a 1s CPU profile
	// belongs in the CI smoke, not the unit suite).
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}

	// Unknown paths 404 rather than serving the index everywhere.
	resp, err = http.Get("http://" + addr + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", resp.StatusCode)
	}

	// A second listener on the same KV is refused, not leaked.
	if err := kv.ServeDebug("127.0.0.1:0"); err == nil {
		t.Error("second ServeDebug should fail while one is serving")
	}
}

// TestDebugServerLifecycle: ServeDebug after StartKV works without the
// config knob, and Close tears the listener down (the port stops
// accepting).
func TestDebugServerLifecycle(t *testing.T) {
	kv, err := StartKV(KVConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if kv.DebugAddr() != "" {
		t.Fatal("no debug listener was configured")
	}
	if err := kv.ServeDebug("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := kv.DebugAddr()
	debugGET(t, addr, "/debug/metrics")
	kv.Close()

	client := http.Client{Timeout: 2 * time.Second}
	if _, err := client.Get("http://" + addr + "/debug/metrics"); err == nil {
		t.Error("debug listener still serving after Close")
	}
}
