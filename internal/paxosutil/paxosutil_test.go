package paxosutil

import (
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

// doPropose is a test-only stimulus message: the receiving host starts a
// utility proposal from inside its handler, with the real node context.
type doPropose struct {
	slot  int64
	entry msg.UtilEntry
	done  DoneFunc
}

func (doPropose) Kind() string { return "test_propose" }

// utilHost runs a bare Util on a simulated node.
type utilHost struct {
	util      *Util
	committed map[int64]msg.UtilEntry
}

func newUtilHost(me msg.NodeID, members []msg.NodeID) *utilHost {
	h := &utilHost{
		util:      New(me, members),
		committed: make(map[int64]msg.UtilEntry),
	}
	h.util.OnCommit(func(slot int64, e msg.UtilEntry) { h.committed[slot] = e })
	return h
}

func (h *utilHost) Start(runtime.Context) {}

func (h *utilHost) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if p, ok := m.(doPropose); ok {
		h.util.Propose(ctx, p.slot, p.entry, p.done)
		return
	}
	h.util.Handle(ctx, from, m)
}

func (h *utilHost) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	h.util.HandleTimer(ctx, tag)
}

type utilNet struct {
	net   *simnet.Network
	hosts []*utilHost
}

func newUtilNet(n int, seed int64) *utilNet {
	machine := topology.Uniform(n, time.Microsecond)
	net := simnet.New(machine, simnet.ManyCore(), seed)
	members := make([]msg.NodeID, n)
	for i := range members {
		members[i] = msg.NodeID(i)
	}
	u := &utilNet{net: net}
	for i := 0; i < n; i++ {
		h := newUtilHost(msg.NodeID(i), members)
		u.hosts = append(u.hosts, h)
		net.AddNode(h)
	}
	net.Start()
	return u
}

// propose schedules a Propose on host i at virtual time at.
func (u *utilNet) propose(at time.Duration, i int, slot int64, e msg.UtilEntry, done DoneFunc) {
	u.net.At(at, func() {
		u.net.Inject(msg.Nobody, msg.NodeID(i), doPropose{slot: slot, entry: e, done: done})
	})
}

func leaderChange(leader, acceptor msg.NodeID) msg.UtilEntry {
	return msg.UtilEntry{Type: msg.EntryLeaderChange, Leader: leader, Acceptor: acceptor}
}

func acceptorChange(leader, acceptor msg.NodeID) msg.UtilEntry {
	return msg.UtilEntry{Type: msg.EntryAcceptorChange, Leader: leader, Acceptor: acceptor}
}

func TestUtilSingleProposerCommits(t *testing.T) {
	u := newUtilNet(3, 1)
	var success *bool
	var chosen msg.UtilEntry
	entry := leaderChange(1, 2)
	u.propose(0, 1, 0, entry, func(ok bool, e msg.UtilEntry) {
		success = &ok
		chosen = e
	})
	u.net.RunFor(10 * time.Millisecond)
	if success == nil || !*success {
		t.Fatal("proposal did not succeed")
	}
	if chosen.Leader != 1 || chosen.Type != msg.EntryLeaderChange {
		t.Fatalf("chosen = %+v", chosen)
	}
	for i, h := range u.hosts {
		if e, ok := h.committed[0]; !ok || e.Leader != 1 {
			t.Fatalf("host %d did not commit the entry: %+v", i, h.committed)
		}
		if h.util.Frontier() != 1 {
			t.Fatalf("host %d frontier = %d, want 1", i, h.util.Frontier())
		}
		if e, ok := h.util.Committed(0); !ok || e.Leader != 1 {
			t.Fatalf("host %d Committed(0) = %+v,%v", i, e, ok)
		}
	}
}

func TestUtilCompetingProposersOneWins(t *testing.T) {
	u := newUtilNet(3, 7)
	results := make(map[int]bool)
	chosens := make(map[int]msg.UtilEntry)
	for _, i := range []int{0, 1} {
		i := i
		u.propose(0, i, 0, leaderChange(msg.NodeID(i), 2), func(ok bool, e msg.UtilEntry) {
			results[i] = ok
			chosens[i] = e
		})
	}
	u.net.RunFor(50 * time.Millisecond)
	if len(results) != 2 {
		t.Fatalf("both proposals must resolve, got %d", len(results))
	}
	if results[0] == results[1] {
		t.Fatalf("exactly one proposer must win: %v", results)
	}
	if chosens[0].Leader != chosens[1].Leader {
		t.Fatalf("both must observe the same chosen entry: %+v vs %+v", chosens[0], chosens[1])
	}
	want := u.hosts[0].committed[0]
	for i, h := range u.hosts {
		got := h.committed[0]
		if got.Leader != want.Leader || got.Type != want.Type {
			t.Fatalf("host %d disagrees: %+v vs %+v", i, got, want)
		}
	}
}

func TestUtilIdenticalEntriesBothSucceed(t *testing.T) {
	u := newUtilNet(3, 3)
	entry := acceptorChange(0, 1)
	results := make(map[int]bool)
	for _, i := range []int{0, 2} {
		i := i
		u.propose(0, i, 0, entry, func(ok bool, e msg.UtilEntry) { results[i] = ok })
	}
	u.net.RunFor(50 * time.Millisecond)
	if !results[0] || !results[2] {
		t.Fatalf("identical entries must both report success: %v", results)
	}
}

func TestUtilToleratesMinorityCrash(t *testing.T) {
	u := newUtilNet(3, 5)
	u.net.Crash(2)
	var ok bool
	u.propose(0, 0, 0, leaderChange(0, 1), func(s bool, _ msg.UtilEntry) { ok = s })
	u.net.RunFor(20 * time.Millisecond)
	if !ok {
		t.Fatal("proposal must commit with a minority crashed")
	}
}

func TestUtilStallsWithoutMajorityThenRecovers(t *testing.T) {
	u := newUtilNet(3, 5)
	u.net.Crash(1)
	u.net.Crash(2)
	resolved := false
	u.propose(0, 0, 0, leaderChange(0, 1), func(bool, msg.UtilEntry) { resolved = true })
	u.net.RunFor(20 * time.Millisecond)
	if resolved {
		t.Fatal("proposal must stall without a majority")
	}
	u.net.At(21*time.Millisecond, func() { u.net.Recover(1) })
	u.net.RunFor(100 * time.Millisecond)
	if !resolved {
		t.Fatal("proposal must commit after recovery restores a majority")
	}
}

func TestUtilProposeAtCommittedSlot(t *testing.T) {
	u := newUtilNet(3, 5)
	entry := leaderChange(0, 1)
	u.propose(0, 0, 0, entry, func(bool, msg.UtilEntry) {})
	u.net.RunFor(10 * time.Millisecond)
	var called, ok bool
	var chosen msg.UtilEntry
	u.propose(11*time.Millisecond, 0, 0, leaderChange(2, 1), func(s bool, e msg.UtilEntry) {
		called, ok, chosen = true, s, e
	})
	u.net.RunFor(15 * time.Millisecond)
	if !called {
		t.Fatal("done must fire immediately at a committed slot")
	}
	if ok {
		t.Fatal("different entry at committed slot must fail")
	}
	if chosen.Leader != 0 {
		t.Fatalf("must report the committed entry, got %+v", chosen)
	}
}

// TestUtilScans: every host's observer sees the regime entries in slot
// order, so the last one delivered names the current leader and
// acceptor and carries the AcceptorChange's uncommitted proposals — what
// a host installs as its regime, and the slot it reads them back from.
func TestUtilScans(t *testing.T) {
	u := newUtilNet(3, 5)
	u.propose(0, 0, 0, leaderChange(0, 2), func(bool, msg.UtilEntry) {})
	u.net.RunFor(10 * time.Millisecond)
	e := msg.UtilEntry{
		Type: msg.EntryAcceptorChange, Leader: 0, Acceptor: 1,
		Uncommitted: []msg.Proposal{{Instance: 4, PN: 1, Value: msg.Value{Client: 9, Seq: 1}}},
	}
	u.propose(10*time.Millisecond+time.Microsecond, 0, 1, e, func(bool, msg.UtilEntry) {})
	u.net.RunFor(30 * time.Millisecond)

	for i, h := range u.hosts {
		if f := h.util.Frontier(); f != 2 || len(h.committed) != 2 {
			t.Fatalf("host %d: frontier %d, %d entries delivered, want 2 and 2", i, f, len(h.committed))
		}
		if first := h.committed[0]; first.Type != msg.EntryLeaderChange || first.Leader != 0 || first.Acceptor != 2 {
			t.Fatalf("host %d slot 0 = %+v", i, first)
		}
		last, ok := h.util.Committed(1)
		if !ok || last.Leader != 0 || last.Acceptor != 1 || !entryEqual(last, h.committed[1]) {
			t.Fatalf("host %d slot 1 = %+v (delivered %+v)", i, last, h.committed[1])
		}
		if len(last.Uncommitted) != 1 || last.Uncommitted[0].Instance != 4 {
			t.Fatalf("host %d carried = %+v", i, last.Uncommitted)
		}
	}
}

// TestUtilScansEmpty: an empty utility log delivers nothing and reports
// no entry, so its host keeps its boot regime.
func TestUtilScansEmpty(t *testing.T) {
	u := newUtilNet(3, 5)
	u.net.RunFor(time.Millisecond)
	h := u.hosts[0]
	if _, ok := h.util.Committed(0); ok || h.util.Frontier() != 0 || len(h.committed) != 0 {
		t.Fatal("an empty log must report no entry and frontier 0")
	}
}

func TestUtilLaggardCatchesUpByProposing(t *testing.T) {
	u := newUtilNet(3, 5)
	u.net.Crash(2) // host 2 misses the first commit
	u.propose(0, 0, 0, leaderChange(0, 1), func(bool, msg.UtilEntry) {})
	u.net.RunFor(10 * time.Millisecond)
	u.net.At(11*time.Millisecond, func() { u.net.Recover(2) })
	if u.hosts[2].util.Frontier() != 0 {
		t.Fatalf("laggard frontier = %d, want 0", u.hosts[2].util.Frontier())
	}
	var ok bool
	var chosen msg.UtilEntry
	u.propose(12*time.Millisecond, 2, 0, leaderChange(2, 0), func(s bool, e msg.UtilEntry) {
		ok, chosen = s, e
	})
	u.net.RunFor(100 * time.Millisecond)
	if ok {
		t.Fatal("laggard's conflicting proposal must fail")
	}
	if chosen.Leader != 0 || chosen.Type != msg.EntryLeaderChange {
		t.Fatalf("laggard must learn the committed entry, got %+v", chosen)
	}
	if u.hosts[2].util.Frontier() != 1 {
		t.Fatalf("laggard frontier after catch-up = %d, want 1", u.hosts[2].util.Frontier())
	}
}

func TestUtilSequentialSlots(t *testing.T) {
	u := newUtilNet(5, 9)
	// Five entries proposed back to back by different nodes, each at its
	// own frontier as discovered at propose time.
	for i := 0; i < 5; i++ {
		i := i
		at := time.Duration(i) * 5 * time.Millisecond
		u.net.At(at, func() {
			h := u.hosts[i]
			slot := h.util.Frontier()
			u.net.Inject(msg.Nobody, msg.NodeID(i),
				doPropose{slot: slot, entry: leaderChange(msg.NodeID(i), 0), done: func(bool, msg.UtilEntry) {}})
		})
	}
	u.net.RunFor(100 * time.Millisecond)
	for i, h := range u.hosts {
		if h.util.Frontier() != 5 {
			t.Fatalf("host %d frontier = %d, want 5", i, h.util.Frontier())
		}
	}
	// All hosts agree slot by slot.
	for slot := int64(0); slot < 5; slot++ {
		want := u.hosts[0].committed[slot]
		for i, h := range u.hosts {
			if !entryEqual(h.committed[slot], want) {
				t.Fatalf("host %d slot %d: %+v vs %+v", i, slot, h.committed[slot], want)
			}
		}
	}
}

func TestUtilValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic when me is not a member")
		}
	}()
	New(5, []msg.NodeID{0, 1, 2})
}

func TestEntryEqual(t *testing.T) {
	a := msg.UtilEntry{Type: msg.EntryLeaderChange, Leader: 1, Acceptor: 2}
	if !entryEqual(a, a) {
		t.Fatal("identical entries must be equal")
	}
	b := a
	b.Leader = 3
	if entryEqual(a, b) {
		t.Fatal("different leaders must differ")
	}
	c := a
	c.Uncommitted = []msg.Proposal{{Instance: 1}}
	if entryEqual(a, c) {
		t.Fatal("different carried proposals must differ")
	}
	d := c
	d.Uncommitted = []msg.Proposal{{Instance: 2}}
	if entryEqual(c, d) {
		t.Fatal("different proposal contents must differ")
	}
}
