package runtime

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"consensusinside/internal/msg"
)

// TestCoHostedFlood has one callback send far more messages than a peer
// queue holds to a node on the same core: they go through the core's
// FIFO, not a queue, and every message must arrive, in order.
func TestCoHostedFlood(t *testing.T) {
	const flood = 3000 // well past a peer queue's 1024 slots
	var next atomic.Int64
	done := make(chan struct{})
	sender := HandlerFunc{
		OnStart: func(ctx Context) {
			for i := 0; i < flood; i++ {
				ctx.Send(1, echoMsg{N: i})
			}
		},
	}
	receiver := HandlerFunc{
		OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) {
			n := next.Load()
			if got := int64(m.(echoMsg).N); got != n || from != 0 {
				t.Errorf("delivery %d: message %d from %d", n, got, from)
			}
			if next.Add(1) == flood {
				close(done)
			}
		},
	}
	c := NewInProcGroups([][]Handler{{sender, receiver}}, 1)
	defer c.Stop()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d of %d same-core messages", next.Load(), flood)
	}
}

// TestCrossCoreFloods has two cores flood each other at once from
// inside a callback: node 0 (core 0) sends node 2 (core 1) far more than
// a queue holds while node 3 (core 1) does the same to node 1 (core 0),
// each callback waiting until the other has begun. A send that waited
// for room would leave each core spinning in its callback on a queue
// only the other core drains; every message must arrive, in order.
func TestCrossCoreFloods(t *testing.T) {
	const flood = 3000 // well past a peer queue's 1024 slots
	var started sync.WaitGroup
	started.Add(2)
	flooder := func(to msg.NodeID) Handler {
		return HandlerFunc{OnReceive: func(ctx Context, _ msg.NodeID, _ msg.Message) {
			started.Done()
			started.Wait() // both cores are inside a flooding callback
			for i := 0; i < flood; i++ {
				ctx.Send(to, echoMsg{N: i})
			}
		}}
	}
	var got [2]atomic.Int64
	done := make(chan struct{}, 2)
	sink := func(k int, sender msg.NodeID) Handler {
		return HandlerFunc{OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) {
			n := got[k].Load()
			if v := int64(m.(echoMsg).N); v != n || from != sender {
				t.Errorf("node %d, delivery %d: message %d from %d", ctx.ID(), n, v, from)
			}
			if got[k].Add(1) == flood {
				done <- struct{}{}
			}
		}}
	}
	c := NewInProcGroups([][]Handler{{flooder(2), sink(0, 3), sink(1, 0), flooder(1)}}, 2)
	defer c.Stop()
	if n := c.nodes; n[0].core != n[1].core || n[2].core != n[3].core || n[0].core == n[2].core {
		t.Fatal("nodes 0, 1 and 2, 3 are not on two cores")
	}
	c.Inject(msg.Nobody, 0, echoMsg{})
	c.Inject(msg.Nobody, 3, echoMsg{})
	for range 2 {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("delivered %d and %d of %d messages each way", got[0].Load(), got[1].Load(), flood)
		}
	}
}

// TestCorePlacement pins coreOf's promises and that NewInProcGroups
// places by it, paired only when told so.
func TestCorePlacement(t *testing.T) {
	// Paired, a group of R replicas and a client (node R): on fewer cores
	// than nodes the client shares its leader's core, whatever the group's
	// index, one group included.
	for k := 2; k <= 8; k++ {
		for r := max(3, k); r <= 9; r++ {
			n := r + 1
			for g := 0; g < 2*k; g++ {
				if lead, client := coreOf(g, 0, n, k, true), coreOf(g, r, n, k, true); lead != client {
					t.Errorf("k=%d, group %d of %d nodes: client on core %d, its leader on %d", k, g, n, client, lead)
				}
			}
		}
	}
	// With two cores or more, a group's leader (replica 0) and its boot
	// acceptor (replica R-1) never share one: paired with the client as
	// node R, or unpaired with or without it.
	for k := 2; k <= 8; k++ {
		for r := 3; r <= 9; r++ {
			for _, lay := range []struct {
				n      int
				paired bool
			}{{r, false}, {r + 1, false}, {r + 1, true}} {
				for g := 0; g < 2*k; g++ {
					if lead := coreOf(g, 0, lay.n, k, lay.paired); lead == coreOf(g, r-1, lay.n, k, lay.paired) {
						t.Errorf("k=%d, group %d, %d nodes, paired %v: leader and acceptor on core %d", k, g, lay.n, lay.paired, lead)
					}
				}
			}
		}
	}
	// Equal groups load the cores evenly, paired or not: per-core counts
	// differ by at most one.
	for k := 1; k <= 8; k++ {
		for n := 1; n <= 10; n++ {
			for groups := 1; groups <= 2*k; groups++ {
				for _, paired := range []bool{false, true} {
					load := make([]int, k)
					for g := 0; g < groups; g++ {
						for i := 0; i < n; i++ {
							load[coreOf(g, i, n, k, paired)]++
						}
					}
					if slices.Max(load)-slices.Min(load) > 1 {
						t.Errorf("k=%d, %d groups of %d, paired %v: per-core load %v", k, groups, n, paired, load)
					}
				}
			}
		}
	}
	// Unpaired, or with cores enough for every node of a group, node i of
	// group g is on core (⌊i·k/n⌋ + g) mod k; one group on as many cores
	// as nodes is one node per core.
	for k := 2; k <= 8; k++ {
		for n := 2; n <= 10; n++ {
			for _, paired := range []bool{false, true} {
				if paired && k < n {
					continue
				}
				for g := 0; g < 2*k; g++ {
					for i := 0; i < n; i++ {
						if got, want := coreOf(g, i, n, k, paired), (i*k/n+g)%k; got != want {
							t.Errorf("k=%d, n=%d, paired %v: node %d of group %d on core %d, want %d", k, n, paired, i, g, got, want)
						}
					}
				}
			}
		}
	}
	for n := 1; n <= 9; n++ {
		for i := 0; i < n; i++ {
			if got := coreOf(0, i, n, n, true); got != i {
				t.Errorf("n=k=%d: node %d on core %d", n, i, got)
			}
		}
	}

	// The runtime places by it. Paired, three replicas and a client on
	// two cores put the client with its leader and the other two
	// replicas on the other core — for one group as for four; unpaired,
	// one group keeps the id order.
	for _, tc := range []struct {
		groups int
		opts   []InProcOption
		same   [][2]msg.NodeID
	}{
		{1, []InProcOption{WithClientOnLeaderCore()}, [][2]msg.NodeID{{0, 3}, {1, 2}}},
		{4, []InProcOption{WithClientOnLeaderCore()}, [][2]msg.NodeID{{0, 3}, {1, 2}}},
		{1, nil, [][2]msg.NodeID{{0, 1}, {2, 3}}},
	} {
		groups := make([][]Handler, tc.groups)
		for g := range groups {
			groups[g] = []Handler{HandlerFunc{}, HandlerFunc{}, HandlerFunc{}, HandlerFunc{}}
		}
		c := NewInProcGroups(groups, 2, tc.opts...)
		if len(c.cores) != 2 {
			t.Errorf("%d groups: %d cores, want 2", tc.groups, len(c.cores))
		}
		for g, grp := range c.groups {
			for _, pair := range tc.same {
				if !grp.SameCore(pair[0], pair[1]) {
					t.Errorf("%d groups, paired %v: group %d's nodes %v on two cores", tc.groups, tc.opts != nil, g, pair)
				}
			}
			if grp.SameCore(0, 2) {
				t.Errorf("%d groups, paired %v: group %d's leader and acceptor share a core", tc.groups, tc.opts != nil, g)
			}
			for i, node := range grp.nodes {
				for j, peer := range grp.nodes {
					if sameCore, queued := node.core == peer.core, node.in[j] != nil; i != j && sameCore == queued {
						t.Errorf("group %d: link %d->%d same core %v, queued %v", g, j, i, sameCore, queued)
					}
				}
			}
		}
		c.Stop()
	}
}
