package replica_test

import (
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/protocol"
	_ "consensusinside/internal/protocol/all"
	"consensusinside/internal/replica"
)

// TestBootRegimePerEngine pins every engine's fixed rule, the regime
// Init installs: 1Paxos's Replicas[0] leading at the last replica,
// Multi-Paxos's Replicas[0] with every replica accepting, 2PC's
// coordinator, and nobody on the leaderless engines. Only 2PC's
// coordinator leads from boot; the others must win a round first.
func TestBootRegimePerEngine(t *testing.T) {
	ids := []msg.NodeID{0, 1, 2, 3, 4}
	for _, tc := range []struct {
		p        protocol.ID
		want     replica.Regime
		bootLead bool
	}{
		{protocol.OnePaxos, replica.Regime{Leader: 0, Acceptor: 4}, false},
		{protocol.MultiPaxos, replica.Regime{Leader: 0, Acceptor: msg.Nobody}, false},
		{protocol.TwoPC, replica.Regime{Leader: 0, Acceptor: msg.Nobody}, true},
		{protocol.Mencius, replica.Regime{Leader: msg.Nobody, Acceptor: msg.Nobody}, false},
		{protocol.BasicPaxos, replica.Regime{Leader: msg.Nobody, Acceptor: msg.Nobody}, false},
	} {
		for _, id := range ids {
			e, err := protocol.Build(tc.p, protocol.Config{ID: id, Replicas: ids})
			if err != nil {
				t.Fatal(err)
			}
			r := e.(interface {
				Regime() replica.Regime
				IsLeader() bool
			})
			if got := r.Regime(); got != tc.want {
				t.Errorf("%v replica %d boots under %+v, want %+v", tc.p, id, got, tc.want)
			}
			if lead := tc.bootLead && id == tc.want.Leader; r.IsLeader() != lead {
				t.Errorf("%v replica %d: IsLeader at boot = %v, want %v", tc.p, id, r.IsLeader(), lead)
			}
		}
	}
}

// TestInstallCountsChangesAndCollisions: every Install is one
// regime.changes, and one that names a single node leader and acceptor
// is also a regime.role_collisions.
func TestInstallCountsChangesAndCollisions(t *testing.T) {
	s, _ := newShell(t, nil, replica.Agreement{Boot: replica.Regime{Leader: 0, Acceptor: 2}})
	s.Install(replica.Regime{Slot: 0, Leader: 1, Acceptor: 2})
	s.Install(replica.Regime{Slot: 1, Leader: 1, Acceptor: 1})
	s.Install(replica.Regime{Slot: 2, Leader: 1, Acceptor: msg.Nobody})
	if got, want := s.Regime(), (replica.Regime{Slot: 2, Leader: 1, Acceptor: msg.Nobody}); got != want {
		t.Fatalf("regime = %+v, want the last installed %+v", got, want)
	}
	snap := obs.NewSnapshot()
	s.Collect(&snap)
	if c, r := snap.Counters["regime.changes"], snap.Counters["regime.role_collisions"]; c != 3 || r != 1 {
		t.Fatalf("regime.changes = %d, regime.role_collisions = %d; want 3 and 1", c, r)
	}
}
