package consensusinside

// The wire codec at the service level: its counters must see real
// traffic. Its correctness coverage for all five engines over both
// transports lives in TestKVProtocolTransportMatrix and
// TestKVShardedMatrix.

import (
	"testing"
	"time"
)

// TestKVWireStats checks the transport counters a TCP service exposes:
// puts must move bytes and frames, coalescing must be recorded, and an
// InProc service must stay at zero (it never touches a socket).
func TestKVWireStats(t *testing.T) {
	kv, err := StartKV(KVConfig{Transport: TCP, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 20; i++ {
		if err := kv.Put("k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	stats := kv.Obs().Counters
	if stats["wire.bytes_out"] == 0 || stats["wire.bytes_in"] == 0 || stats["wire.frames_out"] == 0 || stats["wire.frames_in"] == 0 {
		t.Errorf("TCP service shows no wire traffic: %v", stats)
	}
	// Closed-loop traffic writes roughly one frame per socket write
	// (plus the frameless handshake writes); the ratio only exceeds 1
	// under pipelined load (bench/'s tcp-put-sat workload reports it).
	if stats["wire.flushes"] == 0 || float64(stats["wire.frames_out"])/float64(stats["wire.flushes"]) <= 0.5 {
		t.Errorf("no coalescing recorded: %v", stats)
	}
	if stats["wire.dials"] == 0 {
		t.Errorf("no dials recorded: %v", stats)
	}

	inproc, err := StartKV(KVConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	if err := inproc.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if s := inproc.Obs().Counters; s["wire.bytes_out"] != 0 || s["wire.bytes_in"] != 0 || s["wire.frames_out"] != 0 || s["wire.frames_in"] != 0 || s["wire.dials"] != 0 {
		t.Errorf("InProc service shows wire traffic: %v", s)
	}
}
