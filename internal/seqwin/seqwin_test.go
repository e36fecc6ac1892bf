package seqwin

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// model is the reference a Window is checked against: a plain map plus
// the low bound below which nothing may be stored.
type model struct {
	m   map[uint64]int
	low uint64
}

// check compares every observable of w with the model over a probe
// range that reaches below Low and above Next.
func check(t *testing.T, w *Window[int], ref *model, span uint64) bool {
	t.Helper()
	if w.Len() != len(ref.m) {
		t.Errorf("Len = %d, model holds %d", w.Len(), len(ref.m))
		return false
	}
	if w.Low() < ref.low {
		t.Errorf("Low = %d fell below the advanced bound %d", w.Low(), ref.low)
		return false
	}
	for seq := uint64(0); seq < span; seq++ {
		want, ok := ref.m[seq]
		p := w.Ptr(seq)
		if ok != (p != nil) || (ok && *p != want) {
			t.Errorf("Ptr(%d): got %v, model has (%d, %v) [low %d next %d]", seq, p, want, ok, w.Low(), w.Next())
			return false
		}
	}
	visited, last := 0, uint64(0)
	for seq, p := range w.All() {
		if want, ok := ref.m[seq]; !ok || *p != want || (visited > 0 && seq <= last) {
			t.Errorf("All visited (%d, %d) after %d; model has (%d, %v)", seq, *p, last, want, ok)
			return false
		}
		visited, last = visited+1, seq
	}
	if visited != len(ref.m) {
		t.Errorf("All visited %d entries, model holds %d", visited, len(ref.m))
		return false
	}
	if p := w.Ptr(w.Next() + 1_000_000); p != nil {
		t.Errorf("Ptr far above Next returned a value")
		return false
	}
	return true
}

// TestWindowMatchesMap drives a window and a map through the same
// random puts, deletes and advances — starting at seq 0, on a ring of
// four slots so sequence numbers wrap it many times over — and requires
// every lookup to agree, including below Low and above Next.
func TestWindowMatchesMap(t *testing.T) {
	const span = 96
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var grows atomic.Int64
		w := New[int](0, 4, &grows)
		ref := &model{m: make(map[uint64]int)}
		for i, raw := range ops {
			// Mostly near the live range, so the run exercises the
			// sliding and not just ever-wider rings; sometimes anywhere,
			// retired sequence numbers included.
			seq := w.Low() + uint64(raw%24)
			if rng.Intn(4) == 0 {
				seq = uint64(raw) % span
			}
			if seq >= span {
				seq = span - 1
			}
			switch rng.Intn(8) {
			case 0, 1, 2, 3: // put
				p := w.Slot(seq)
				if seq < w.Low() {
					if p != nil {
						t.Errorf("Slot(%d) below Low %d returned a slot", seq, w.Low())
						return false
					}
					break
				}
				*p = i
				ref.m[seq] = i
			case 4, 5, 6: // delete (often of something absent)
				_, had := ref.m[seq]
				if w.Delete(seq) != had {
					t.Errorf("Delete(%d) disagreed with the model (had %v)", seq, had)
					return false
				}
				delete(ref.m, seq)
			case 7: // advance
				to := w.Low() + uint64(raw%5)
				w.Advance(to)
				for s := range ref.m {
					if s < to {
						delete(ref.m, s)
					}
				}
				if to > ref.low {
					ref.low = to
				}
				if w.Low() != to {
					t.Errorf("Advance(%d) left Low at %d", to, w.Low())
					return false
				}
			}
			if !check(t, &w, ref, span) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWindowZeroValue pins that the zero Window is an empty window at
// sequence number zero, seq 0 included.
func TestWindowZeroValue(t *testing.T) {
	var w Window[string]
	if w.Ptr(0) != nil || w.Delete(0) || w.Len() != 0 {
		t.Fatal("zero window is not empty")
	}
	*w.Slot(0) = "zero"
	*w.Slot(3) = "three"
	if p := w.Ptr(0); p == nil || *p != "zero" {
		t.Fatalf("Ptr(0) = %v", p)
	}
	if w.Low() != 0 || w.Next() != 4 || w.Len() != 2 {
		t.Fatalf("low %d next %d len %d", w.Low(), w.Next(), w.Len())
	}
}

// TestWindowPinnedOldestGrows holds the oldest entry while newer ones
// arrive and retire: the ring must double (twice here) instead of
// overwriting the pinned slot, count each doubling, keep Low on the
// pinned seq, and let Low jump past everything once it goes.
func TestWindowPinnedOldestGrows(t *testing.T) {
	var grows atomic.Int64
	w := New[uint64](100, 4, &grows)
	*w.Slot(100) = 100 // pinned
	for seq := uint64(101); seq < 116; seq++ {
		*w.Slot(seq) = seq
		if seq > 101 {
			if !w.Delete(seq - 1) {
				t.Fatalf("Delete(%d) found nothing", seq-1)
			}
		}
		if w.Low() != 100 {
			t.Fatalf("Low = %d after retiring %d, want the pinned 100", w.Low(), seq-1)
		}
		if p := w.Ptr(100); p == nil || *p != 100 {
			t.Fatalf("pinned entry lost after storing %d", seq)
		}
	}
	if got := grows.Load(); got != 2 {
		t.Fatalf("ring grew %d times for a span of 16 from 4 slots, want 2", got)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want the pinned entry and the newest", w.Len())
	}
	w.Delete(100)
	if w.Low() != 115 {
		t.Fatalf("Low = %d after the pinned entry retired, want 115", w.Low())
	}
	w.Delete(115)
	if w.Low() != w.Next() || w.Len() != 0 {
		t.Fatalf("empty window: low %d next %d len %d", w.Low(), w.Next(), w.Len())
	}
	// Steady sliding from here on fits the grown ring: no more growths.
	for seq := w.Next(); seq < 400; seq++ {
		*w.Slot(seq) = seq
		w.Delete(seq)
	}
	if got := grows.Load(); got != 2 {
		t.Fatalf("sliding without a pinned entry grew the ring (%d growths)", got)
	}
}
