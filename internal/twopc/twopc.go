// Package twopc implements the two-phase-commit *agreement* protocol in
// the sense the paper (following Barrelfish) uses it — a blocking
// primary-backup replication scheme, not a durable transaction commit
// (Section 2.2 and footnote 1).
//
// The coordinator locks every replica's copy of the datum, then commits:
//
//	phase 1: coordinator ──prepare──▶ all replicas, each locks + acks
//	phase 2: coordinator ──commit──▶ all replicas, each applies + unlocks
//	         coordinator replies after every commit_ack
//
// Because the coordinator needs responses from *all* replicas, a single
// slow node stalls every update — the behaviour Sections 2.2 and 7.6
// demonstrate and 1Paxos is designed to avoid. There is deliberately no
// failover logic: 2PC is the blocking baseline.
//
// The Joint deployment (every client is a replica, Section 7.5) adds the
// local-read optimization: a replica answers reads from its own copy when
// the key is not locked — "a client can locally service the read requests
// if it is not received in the gap between two phases of 2PC".
package twopc

import (
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/replica"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/trace"
)

// timerTxRetry re-drives a pending transaction's current phase
// (Arg: the transaction id). Armed only when Cfg.TxRetryTimeout is
// set — the paper's 2PC is strictly blocking and retransmits nothing.
const timerTxRetry = 1

// Replica is one 2PC node (coordinator or participant). The embedded
// shell owns sessions, recovery and the read path; 2PC has no instance
// log (replica.Agreement.NoLog), so the transaction apply is its own.
type Replica struct {
	replica.Shell

	// Coordinator state. A command a live transaction carries holds its
	// origin mark (Shell.Mark) until the transaction commits or rolls
	// back.
	nextTx int64
	txs    map[int64]*tx

	// Participant state (the coordinator is also a participant for its
	// own local copy).
	locks    map[string]int64 // key -> transaction holding the lock
	prepared map[int64]msg.Value
	waiting  map[string][]pendingPrepare // prepares blocked on a lock

	localReads int64
}

type tx struct {
	id         int64
	value      msg.Value
	acks       map[msg.NodeID]bool
	commitAcks map[msg.NodeID]bool
	committed  bool
}

type pendingPrepare struct {
	from msg.NodeID
	m    msg.TPCPrepare
}

var _ runtime.Handler = (*Replica)(nil)

// New builds a Replica from a configuration protocol.Build validated.
// Replicas[0] is the coordinator, permanently: the protocol is blocking
// by design and has no election. LocalReads enables the Joint-mode read
// optimization. TxRetryTimeout makes the coordinator re-send the current
// phase of a transaction still pending after that long — prepares to
// replicas that have not acked, commits to replicas that have not
// confirmed; both are idempotent on the participants, so the only
// behavioral change is that a transaction stalled by a crashed
// participant completes once that participant restarts
// (KV.RestartReplica). Zero — the default, and what the simulated
// experiments use — is the paper's strictly blocking 2PC.
func New(cfg protocol.Config) *Replica {
	r := &Replica{
		txs:      make(map[int64]*tx),
		locks:    make(map[string]int64),
		prepared: make(map[int64]msg.Value),
		waiting:  make(map[string][]pendingPrepare),
	}
	// A snapshot (state image + session frontiers) is the entire recovery
	// story: with no log to stream, a peer captures one at its current
	// state whenever a restarted replica asks. The fixed coordinator is
	// the serialization point — no other node ever commits independently,
	// and the coordinator answers a client only after applying locally —
	// so read-index reads are served at the coordinator with no
	// confirmation round at all. Lease mode degrades to read-index (a
	// lease adds nothing to a node that can never be deposed); follower
	// mode serves stale-bounded reads from any participant.
	r.Init(cfg, replica.Agreement{
		NoLog:      true,
		Boot:       replica.Regime{Leader: cfg.Replicas[0], Acceptor: msg.Nobody},
		Confirmers: func() []msg.NodeID { return nil },
		Frontier:   r.Commits,
	})
	r.SetLeading(r.Me == cfg.Replicas[0]) // the coordinator is never elected or deposed
	return r
}

// LocalReads reports how many reads were served from the local copy.
func (r *Replica) LocalReads() int64 { return r.localReads }

// Timer implements runtime.Handler: the protocol itself sets no timers
// (it blocks, by design) — only the optional transaction retransmit and
// the recovery subsystem land here.
func (r *Replica) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	if !r.RouteTimer(ctx, tag) && tag.Kind == timerTxRetry {
		r.onTxRetry(tag.Arg)
	}
}

// onTxRetry re-drives a transaction still pending after TxRetryTimeout:
// the current phase's message goes again to every replica that has not
// answered it (participants treat duplicates idempotently). This is how
// a transaction stalled by a crashed participant completes once the
// participant restarts and re-locks.
func (r *Replica) onTxRetry(txID int64) {
	t, ok := r.txs[txID]
	if !ok {
		return
	}
	for _, id := range r.Peers {
		if !t.committed && !t.acks[id] {
			r.Ctx.Send(id, msg.TPCPrepare{TxID: t.id, Value: t.value})
		}
		if t.committed && !t.commitAcks[id] {
			r.Ctx.Send(id, msg.TPCCommit{TxID: t.id, Value: t.value})
		}
	}
	r.armTxRetry(t.id)
}

func (r *Replica) armTxRetry(txID int64) {
	if r.Cfg.TxRetryTimeout > 0 {
		r.Ctx.After(r.Cfg.TxRetryTimeout, runtime.TimerTag{Kind: timerTxRetry, Arg: txID})
	}
}

// Receive dispatches one message.
func (r *Replica) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if r.Route(ctx, from, m) {
		return
	}
	switch mm := m.(type) {
	case msg.ClientRequest:
		r.onClientRequest(from, mm)
	case msg.TPCPrepare:
		r.onPrepare(from, mm)
	case msg.TPCAck:
		r.onAck(mm)
	case msg.TPCCommit:
		r.onCommit(from, mm)
	case msg.TPCCommitAck:
		r.onCommitAck(mm)
	case msg.TPCRollback:
		r.onRollback(mm)
	}
}

// --- Client path ---

func (r *Replica) onClientRequest(from msg.NodeID, req msg.ClientRequest) {
	// What the session table has not seen commit still needs a
	// transaction (nothing, while this replica is catching up).
	fresh := r.Screen(req)
	if len(fresh) == 0 {
		return
	}
	// Joint-mode local read: serve from the local copy unless a key is
	// in the gap between the two phases (locked). A batch is served
	// locally only when every remaining entry qualifies — mixing local
	// reads into a batch with updates would reorder them around the
	// transaction.
	if r.Cfg.LocalReads && r.Store != nil {
		local := true
		for _, be := range fresh {
			if be.Cmd.Op != msg.OpGet {
				local = false
				break
			}
			if _, locked := r.locks[be.Cmd.Key]; locked {
				local = false
				break
			}
		}
		if local {
			for _, be := range fresh {
				val, _ := r.Store.Get(be.Cmd.Key)
				r.localReads++
				r.Ctx.Send(req.Client, msg.ClientReply{Seq: be.Seq, OK: true, Result: val})
			}
			return
		}
	}
	if !r.IsLeader() {
		// Participants funnel updates through the coordinator.
		r.Ctx.Send(r.Regime().Leader, req)
		return
	}
	// Drop entries a live transaction already carries (a client retry —
	// the bridge rotates targets on its retry timer): that transaction's
	// commit will answer them. Opening a second transaction for the same
	// command would lock its keys in a different order on different
	// replicas — a deadlock, not a retry.
	entries := r.Mark(req.Client, fresh)
	if len(entries) == 0 {
		return
	}
	r.beginTx(msg.NewValue(req.Client, req.Ack, entries))
}

// --- Coordinator ---

func (r *Replica) beginTx(v msg.Value) {
	id := r.nextTx
	r.nextTx++
	t := &tx{
		id:         id,
		value:      v,
		acks:       make(map[msg.NodeID]bool),
		commitAcks: make(map[msg.NodeID]bool),
	}
	r.txs[id] = t
	// Phase 1: lock everywhere, including our own copy.
	for _, peer := range r.Peers {
		r.Ctx.Send(peer, msg.TPCPrepare{TxID: id, Value: v})
	}
	r.armTxRetry(id)
	r.localPrepare(t)
}

// txKeys returns the distinct keys v's commands touch, in first-use
// order — the lock set of the transaction. A batch locks every key it
// writes or reads; a single command locks one.
func txKeys(v msg.Value) []string {
	out := make([]string, 0, v.Len())
	seen := make(map[string]bool, v.Len())
	for i := range v.Len() {
		if key := v.EntryAt(i).Cmd.Key; !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}

// blockedOn reports the first of v's keys held by a different
// transaction, if any. Lock acquisition is all-or-nothing: a prepare
// that cannot take its whole lock set takes nothing and queues on the
// blocking key, so no transaction ever holds one key while waiting on
// another — multi-key batches cannot deadlock.
func (r *Replica) blockedOn(txID int64, v msg.Value) (string, bool) {
	for _, key := range txKeys(v) {
		if holder, locked := r.locks[key]; locked && holder != txID {
			return key, true
		}
	}
	return "", false
}

// lockAll takes v's whole lock set for txID (call only after blockedOn
// reported clear).
func (r *Replica) lockAll(txID int64, v msg.Value) {
	for _, key := range txKeys(v) {
		r.locks[key] = txID
	}
}

// localPrepare runs the participant prepare on the coordinator's own copy.
func (r *Replica) localPrepare(t *tx) {
	if key, blocked := r.blockedOn(t.id, t.value); blocked {
		r.waiting[key] = append(r.waiting[key], pendingPrepare{
			from: r.Me,
			m:    msg.TPCPrepare{TxID: t.id, Value: t.value},
		})
		return
	}
	r.lockAll(t.id, t.value)
	r.prepared[t.id] = t.value
	r.onAck(msg.TPCAck{TxID: t.id, From: r.Me, OK: true})
}

func (r *Replica) onAck(m msg.TPCAck) {
	t, ok := r.txs[m.TxID]
	if !ok || t.committed {
		return
	}
	if !m.OK {
		// A replica refused (its copy is locked by another coordinator —
		// impossible with a single fixed coordinator, but handled for
		// completeness): roll back.
		for _, id := range r.Peers {
			r.Ctx.Send(id, msg.TPCRollback{TxID: t.id})
		}
		r.releaseLocks(t.id, t.value)
		delete(r.txs, t.id)
		r.Disown(t.value)
		delete(r.prepared, t.id)
		var replies []msg.ClientReply
		for i := range t.value.Len() {
			replies = append(replies, msg.ClientReply{Seq: t.value.EntryAt(i).Seq, OK: false, Redirect: r.Regime().Leader})
		}
		r.Ctx.Send(t.value.Client, msg.WrapReplies(replies))
		return
	}
	t.acks[m.From] = true
	if len(t.acks) < len(r.Replicas) {
		return // blocking: *all* replicas must ack (Section 2.2)
	}
	// Phase 2: commit everywhere. The agreement is reached once every
	// replica has acked the prepare (this is 2PC in its agreement form,
	// not durable transaction commit), so the client is answered as soon
	// as the commit orders are out; the commit acks that follow only
	// retire the transaction record and release coordination state.
	t.committed = true
	if r.Cfg.Tracer.Enabled() {
		r.traceMark(trace.StageDecide, t.value)
	}
	for _, id := range r.Peers {
		r.Ctx.Send(id, msg.TPCCommit{TxID: t.id, Value: t.value})
	}
	results := r.applyCommit(t.id, t.value)
	t.commitAcks[r.Me] = true
	replies := msg.GetReplies(len(results))
	for i, result := range results {
		replies = append(replies, msg.ClientReply{Seq: t.value.EntryAt(i).Seq, Instance: t.id, OK: true, Result: result})
	}
	r.SendReplies(t.value.Client, replies)
	r.finishTx(t)
}

func (r *Replica) onCommitAck(m msg.TPCCommitAck) {
	t, ok := r.txs[m.TxID]
	if !ok || !t.committed {
		return
	}
	t.commitAcks[m.From] = true
	r.finishTx(t)
}

// finishTx retires the transaction once every replica confirmed the
// commit (the coordinator still processes every commit ack — the paper's
// message count per 2PC agreement includes them).
func (r *Replica) finishTx(t *tx) {
	if len(t.commitAcks) == len(r.Replicas) {
		delete(r.txs, t.id)
	}
}

// --- Participant ---

func (r *Replica) onPrepare(from msg.NodeID, m msg.TPCPrepare) {
	if key, blocked := r.blockedOn(m.TxID, m.Value); blocked {
		// Blocked: ack only once the lock is released, stalling the
		// transaction exactly as the paper's blocking analysis describes.
		r.waiting[key] = append(r.waiting[key], pendingPrepare{from: from, m: m})
		return
	}
	r.lockAll(m.TxID, m.Value)
	r.prepared[m.TxID] = m.Value
	r.Ctx.Send(from, msg.TPCAck{TxID: m.TxID, From: r.Me, OK: true})
}

func (r *Replica) onCommit(from msg.NodeID, m msg.TPCCommit) {
	r.applyCommit(m.TxID, m.Value)
	r.Ctx.Send(from, msg.TPCCommitAck{TxID: m.TxID, From: r.Me})
}

func (r *Replica) onRollback(m msg.TPCRollback) {
	v, ok := r.prepared[m.TxID]
	if !ok {
		return
	}
	delete(r.prepared, m.TxID)
	r.releaseLocks(m.TxID, v)
}

// applyCommit commits the transaction's commands in batch order —
// atomically, in the sense that the whole lock set is held across all
// of them — through the commit step every engine shares (rsm.Dedup), so
// an entry that already committed through an earlier retry is answered
// from its session slot instead of running again; then it releases the
// locks on this node's copy. It returns each command's result.
func (r *Replica) applyCommit(txID int64, v msg.Value) []string {
	delete(r.prepared, txID)
	results := make([]string, v.Len())
	for ran := (rsm.Dedup{Sessions: r.Sessions, Inner: r.Cfg.Applier}).Commit(txID, v, results); ran > 0; ran-- {
		r.AfterApply()
	}
	if r.Cfg.Tracer.Enabled() {
		r.traceMark(trace.StageApply, v)
	}
	r.releaseLocks(txID, v)
	return results
}

// traceMark stamps one lifecycle stage for every command v carries
// (internal/trace; only sampled commands record anything).
func (r *Replica) traceMark(stage trace.Stage, v msg.Value) {
	if v.Client == msg.Nobody {
		return
	}
	now := r.Ctx.Now()
	for i := range v.Len() {
		r.Cfg.Tracer.Mark(v.Client, v.EntryAt(i).Seq, stage, now)
	}
}

// releaseLocks frees v's whole lock set and serves waiting prepares.
func (r *Replica) releaseLocks(txID int64, v msg.Value) {
	for _, key := range txKeys(v) {
		if holder, locked := r.locks[key]; !locked || holder != txID {
			continue
		}
		delete(r.locks, key)
		r.drainWaiters(key)
	}
}

// drainWaiters retries prepares queued on key until one takes the key's
// lock or the queue empties. A retried prepare is all-or-nothing: if it
// blocks on a *different* key of its set it re-queues there and takes
// nothing, so key stays free and the next waiter gets its turn — queued
// work can never strand behind an unlocked key.
func (r *Replica) drainWaiters(key string) {
	for {
		queue := r.waiting[key]
		if len(queue) == 0 {
			delete(r.waiting, key)
			return
		}
		next := queue[0]
		if len(queue) == 1 {
			delete(r.waiting, key)
		} else {
			r.waiting[key] = queue[1:]
		}
		if next.from == r.Me {
			// The coordinator's own deferred local prepare.
			if t, ok := r.txs[next.m.TxID]; ok && !t.committed {
				r.localPrepare(t)
			}
		} else {
			r.onPrepare(next.from, next.m)
		}
		if _, locked := r.locks[key]; locked {
			return // the retried prepare holds key now; its release resumes the queue
		}
	}
}
