package replica

import "consensusinside/internal/msg"

// Accepted is an acceptor's short-term memory (Section 4.1): the
// proposals it accepted at instances its log has not applied yet, by
// instance. Read ByInstance directly; write through Put. The zero value
// is empty.
type Accepted struct {
	ByInstance map[int64]msg.Proposal
	pruned     int64 // nothing is held below this instance
}

// Put holds p. A late accept below the pruned frontier rewinds it, so
// the next Prune drops that proposal too.
func (a *Accepted) Put(p msg.Proposal) {
	if a.ByInstance == nil {
		a.ByInstance = make(map[int64]msg.Proposal)
	}
	a.ByInstance[p.Instance] = p
	a.pruned = min(a.pruned, p.Instance)
}

// Prune drops every proposal below next, the applied frontier: those
// are learner state now. It runs on every accept, so it walks from
// where the last call stopped instead of ranging the whole map — except
// after a long absence from the acceptor role, when the frontier has
// moved further than the map is large and ranging the map is the
// shorter walk.
func (a *Accepted) Prune(next int64) {
	if next-a.pruned > int64(len(a.ByInstance)) {
		for in := range a.ByInstance {
			if in < next {
				delete(a.ByInstance, in)
			}
		}
	} else {
		for in := a.pruned; in < next; in++ {
			delete(a.ByInstance, in)
		}
	}
	a.pruned = next
}
