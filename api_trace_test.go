package consensusinside

// The lifecycle tracer's hooks live in five places — the bridge
// (enqueue, propose, reply), both transports' send paths (wire), the
// learner log every log-based engine shares (decide, apply) and 2PC's
// own transaction apply — so an engine or runtime can lose one without
// any functional test noticing. This test is the notice.

import (
	"fmt"
	"testing"
	"time"

	"consensusinside/internal/trace"
)

// TestKVTraceStagesEveryEngine traces every command of a short Put run
// on every registered engine over InProc, and on 1Paxos over TCP (the
// other wire hook), and requires every lifecycle stage to have been
// stamped in the completed samples (the per-stage histograms are
// filled from those stamps, and enqueue, the first stage, has none).
func TestKVTraceStagesEveryEngine(t *testing.T) {
	type cell struct {
		proto Protocol
		tr    TransportKind
	}
	var cells []cell
	for _, p := range Protocols() {
		cells = append(cells, cell{p, InProc})
	}
	cells = append(cells, cell{OnePaxos, TCP})

	for _, c := range cells {
		t.Run(fmt.Sprintf("%v/%v", c.proto, c.tr), func(t *testing.T) {
			kv, err := StartKV(KVConfig{
				Protocol:       c.proto,
				Transport:      c.tr,
				TraceInterval:  1,
				RequestTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			for i := 0; i < 300; i++ {
				if err := kv.Put(fmt.Sprintf("k%d", i%8), "v"); err != nil {
					t.Fatal(err)
				}
			}

			snap := kv.Trace()
			if snap.Finished == 0 {
				t.Fatal("tracer finished no span at interval 1")
			}
			for st := trace.StageEnqueue; st < trace.NumStages; st++ {
				stamped := 0
				for _, s := range snap.Samples {
					if s.Wall[st] != 0 {
						stamped++
					}
				}
				if stamped == 0 {
					t.Errorf("stage %v: stamped in 0 of %d completed samples", st, len(snap.Samples))
				}
			}
		})
	}
}
