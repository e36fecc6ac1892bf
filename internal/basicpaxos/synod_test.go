package basicpaxos

import (
	"math/rand"
	"testing"
	"testing/quick"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/protocol/enginetest"
)

func TestConformance(t *testing.T) { enginetest.Run(t, protocol.BasicPaxos) }

func TestAcceptorPrepareOrdering(t *testing.T) {
	var a Acceptor[string]
	if !a.Prepare(5) {
		t.Fatal("fresh acceptor must grant first promise")
	}
	if a.Prepare(5) {
		t.Fatal("equal pn must not be re-promised")
	}
	if a.Prepare(3) {
		t.Fatal("lower pn must be rejected")
	}
	if !a.Prepare(9) {
		t.Fatal("higher pn must be granted")
	}
	if a.Promised != 9 {
		t.Fatalf("Promised = %d, want 9", a.Promised)
	}
}

func TestAcceptorAcceptRespectsPromise(t *testing.T) {
	var a Acceptor[string]
	a.Prepare(10)
	if a.Accept(9, "x") {
		t.Fatal("accept below promise must fail")
	}
	if !a.Accept(10, "x") {
		t.Fatal("accept at promise must succeed")
	}
	if !a.HasAccepted() || a.Accepted != "x" || a.AcceptedPN != 10 {
		t.Fatalf("accepted state wrong: %+v", a)
	}
	// A later accept with a higher pn overwrites (it can only arrive
	// after the corresponding promise round).
	if !a.Accept(12, "y") {
		t.Fatal("higher-pn accept must succeed")
	}
	if a.Accepted != "y" || a.Promised != 12 {
		t.Fatalf("state after overwrite: %+v", a)
	}
}

func TestAcceptorAcceptWithoutPrepare(t *testing.T) {
	// An acceptor that never promised accepts anything (promise 0).
	var a Acceptor[int]
	if !a.Accept(1, 42) {
		t.Fatal("accept on fresh acceptor must succeed")
	}
}

func TestProposerHappyPath(t *testing.T) {
	p := NewProposer(0, 2, 1, "mine")
	if p.Phase() != PhasePrepare {
		t.Fatalf("phase = %v, want prepare", p.Phase())
	}
	if p.OnPromise(1, 1, NoPN, "") {
		t.Fatal("one promise of two must not reach quorum")
	}
	if !p.OnPromise(2, 1, NoPN, "") {
		t.Fatal("second promise must reach quorum")
	}
	if p.Value() != "mine" {
		t.Fatalf("free proposer must advocate its own value, got %q", p.Value())
	}
	if p.OnAccepted(1, 1) {
		t.Fatal("one acceptance must not decide")
	}
	if !p.OnAccepted(2, 1) {
		t.Fatal("second acceptance must decide")
	}
	if !p.Decided() || p.Phase() != PhaseDecided {
		t.Fatal("proposer must be decided")
	}
}

func TestProposerAdoptsHighestAcceptedValue(t *testing.T) {
	p := NewProposer(0, 2, 10, "mine")
	p.OnPromise(1, 10, 3, "old-low")
	p.OnPromise(2, 10, 7, "old-high")
	if p.Value() != "old-high" {
		t.Fatalf("must adopt highest-pn accepted value, got %q", p.Value())
	}
	if !p.AdoptedForeignValue() {
		t.Fatal("AdoptedForeignValue must report true")
	}
}

func TestProposerIgnoresStaleMessages(t *testing.T) {
	p := NewProposer(0, 2, 10, "v")
	if p.OnPromise(1, 9, NoPN, "") {
		t.Fatal("stale-pn promise must be ignored")
	}
	p.OnPromise(1, 10, NoPN, "")
	p.OnPromise(2, 10, NoPN, "")
	if p.OnAccepted(1, 9) {
		t.Fatal("stale-pn acceptance must be ignored")
	}
	// Duplicate promises from the same acceptor must not double-count.
	p2 := NewProposer(0, 2, 5, "v")
	p2.OnPromise(1, 5, NoPN, "")
	if p2.OnPromise(1, 5, NoPN, "") {
		t.Fatal("duplicate promise reached quorum")
	}
}

func TestProposerRestartKeepsAdoptedValue(t *testing.T) {
	p := NewProposer(0, 2, 10, "mine")
	p.OnPromise(1, 10, 4, "chosen-maybe")
	p.Restart(74)
	if p.PN() != 74 || p.Phase() != PhasePrepare {
		t.Fatalf("restart state: pn=%d phase=%v", p.PN(), p.Phase())
	}
	p.OnPromise(1, 74, NoPN, "")
	p.OnPromise(2, 74, NoPN, "")
	// Even though the new round's promises carry nothing, the previously
	// observed accepted value must still be advocated (Lemma 2a).
	if p.Value() != "chosen-maybe" {
		t.Fatalf("restart lost adopted value: %q", p.Value())
	}
}

func TestProposerRestartValidation(t *testing.T) {
	p := NewProposer(0, 2, 10, "v")
	defer func() {
		if recover() == nil {
			t.Fatal("Restart with lower pn must panic")
		}
	}()
	p.Restart(10)
}

func TestNewProposerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("quorum 0 must panic")
		}
	}()
	NewProposer(0, 0, 1, "v")
}

func TestNextPN(t *testing.T) {
	tests := []struct {
		node  msg.NodeID
		after uint64
		want  uint64
	}{
		{0, 0, 1},
		{5, 0, 6},
		{0, 1, 65},
		{0, 64, 65},
		{0, 65, 129},
		{3, 100, 132},
	}
	for _, tc := range tests {
		if got := NextPN(tc.node, tc.after); got != tc.want {
			t.Errorf("NextPN(%d,%d) = %d, want %d", tc.node, tc.after, got, tc.want)
		}
	}
}

func TestNextPNProperties(t *testing.T) {
	f := func(nodeRaw uint8, after uint64) bool {
		node := msg.NodeID(nodeRaw % 48)
		after %= 1 << 40
		pn := NextPN(node, after)
		// Strictly greater, unique residue per node, never zero.
		return pn > after && pn%pnStride == uint64(node)+1 && pn != NoPN
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSynodSafetyRandomSchedules runs the single-decree protocol over a
// simulated lossy, reordering message soup with multiple competing
// proposers and checks the core Synod invariant: at most one value is
// ever chosen (and once chosen, later deciders agree).
func TestSynodSafetyRandomSchedules(t *testing.T) {
	const (
		acceptors = 3
		proposers = 3
		rounds    = 300
	)
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		accs := make([]Acceptor[int], acceptors)
		props := make([]*Proposer[int], proposers)
		pns := make([]uint64, proposers)
		for i := range props {
			pns[i] = NextPN(msg.NodeID(i), 0)
			props[i] = NewProposer(msg.NodeID(i), acceptors/2+1, pns[i], 100+i)
		}
		decided := make(map[int]bool)

		for step := 0; step < rounds; step++ {
			pi := rng.Intn(proposers)
			p := props[pi]
			switch p.Phase() {
			case PhasePrepare:
				// Send prepare to a random subset (message loss).
				for ai := range accs {
					if rng.Intn(3) == 0 {
						continue // lost
					}
					acc := &accs[ai]
					if acc.Prepare(p.PN()) {
						p.OnPromise(msg.NodeID(ai), p.PN(), acc.AcceptedPN, acc.Accepted)
					}
				}
				if rng.Intn(4) == 0 {
					// Timeout: restart with a higher pn.
					maxPN := p.PN()
					for _, other := range pns {
						if other > maxPN {
							maxPN = other
						}
					}
					pns[pi] = NextPN(msg.NodeID(pi), maxPN)
					p.Restart(pns[pi])
				}
			case PhaseAccept:
				for ai := range accs {
					if rng.Intn(3) == 0 {
						continue
					}
					acc := &accs[ai]
					if acc.Accept(p.PN(), p.Value()) {
						if p.OnAccepted(msg.NodeID(ai), p.PN()) {
							decided[p.Value()] = true
						}
					}
				}
				if rng.Intn(5) == 0 {
					maxPN := p.PN()
					for _, other := range pns {
						if other > maxPN {
							maxPN = other
						}
					}
					pns[pi] = NextPN(msg.NodeID(pi), maxPN)
					p.Restart(pns[pi])
				}
			case PhaseDecided:
				// done
			}
		}
		if len(decided) > 1 {
			t.Fatalf("seed %d: two different values decided: %v", seed, decided)
		}
	}
}
