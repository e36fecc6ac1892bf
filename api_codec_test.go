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
	stats := kv.WireStats()
	if stats.BytesOut == 0 || stats.BytesIn == 0 || stats.FramesOut == 0 || stats.FramesIn == 0 {
		t.Errorf("TCP service shows no wire traffic: %+v", stats)
	}
	// Closed-loop traffic writes roughly one frame per socket write
	// (plus the frameless handshake writes); the ratio only exceeds 1
	// under pipelined load (bench/'s tcp-put-sat workload reports it).
	if stats.Flushes == 0 || stats.FramesPerFlush() <= 0.5 {
		t.Errorf("no coalescing recorded: %+v", stats)
	}
	if stats.Dials == 0 {
		t.Errorf("no dials recorded: %+v", stats)
	}

	inproc, err := StartKV(KVConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	if err := inproc.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if s := inproc.WireStats(); s.BytesOut != 0 || s.BytesIn != 0 || s.FramesOut != 0 || s.FramesIn != 0 || s.Dials != 0 {
		t.Errorf("InProc service shows wire traffic: %+v", s)
	}
}
