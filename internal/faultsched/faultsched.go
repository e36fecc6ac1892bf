// Package faultsched generates deterministic, seed-driven fault
// schedules for the simulated runtime: crash-restart storms, link cuts
// and heals, whole-node isolation, slowdowns, clock skew, and
// per-message delay/reorder/loss. A schedule is a pure function of one
// int64 seed plus its Options — generating it twice yields identical
// events, and applying it to two identical simulations yields
// byte-for-byte identical runs, which is what makes a failing fuzz
// seed a one-line reproduction.
//
// Two invariants shape every generated schedule:
//
//   - Bounded damage: at any instant, at most a minority of the target
//     nodes is impaired (crashed, isolated, or severely slowed), so a
//     quorum always exists and runs can make progress under fire. The
//     accounting is conservative — a single cut link counts both
//     endpoints as impaired.
//   - Clean exit: every episode is paired with its undo (recover,
//     heal, restore, skew back to zero) inside the fault window, and
//     message perturbation switches off at the window's end. After the
//     window the cluster is whole, so a calm tail lets every client
//     retry to completion and the history checker sees returns, not
//     just invokes.
package faultsched

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/simnet"
)

// Kind is a fault event kind.
type Kind int

// Fault event kinds. Each episode pairs a fault with its undo.
const (
	Crash   Kind = iota // node pauses: messages drop, timers wait for Recover
	Recover             // node resumes with state intact; due timers fire first
	Cut                 // link Node-Peer drops messages both ways
	Heal                // link Node-Peer restored
	Slow                // node runs Factor× slower
	Restore             // node back to full speed
	Skew                // node's read-path clock offset becomes Offset
)

var kindNames = [...]string{"crash", "recover", "cut", "heal", "slow", "restore", "skew"}

// String implements fmt.Stringer.
func (k Kind) String() string { return kindNames[k] }

// Event is one timed fault action.
type Event struct {
	At     time.Duration
	Kind   Kind
	Node   msg.NodeID
	Peer   msg.NodeID    // Cut/Heal only
	Factor float64       // Slow only
	Offset time.Duration // Skew only (0 = undo)
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case Cut, Heal:
		return fmt.Sprintf("%8v %s %d-%d", e.At, e.Kind, e.Node, e.Peer)
	case Slow:
		return fmt.Sprintf("%8v %s %d ×%.1f", e.At, e.Kind, e.Node, e.Factor)
	case Skew:
		return fmt.Sprintf("%8v %s %d %+v", e.At, e.Kind, e.Node, e.Offset)
	default:
		return fmt.Sprintf("%8v %s %d", e.At, e.Kind, e.Node)
	}
}

// Profile weights and bounds the faults a schedule draws from. Zero
// weights for every class defaults to crashes + cuts.
type Profile struct {
	CrashWeight   int
	CutWeight     int // single-link cuts
	IsolateWeight int // cut one node from every peer at once
	SlowWeight    int
	SkewWeight    int

	Episodes      int           // fault episodes to attempt (default 4)
	MinDur        time.Duration // episode length bounds (defaults: Window/20, Window/4)
	MaxDur        time.Duration
	MaxConcurrent int           // impaired-node cap (default: minority of Nodes)
	MaxSlow       float64       // slowdown factor bound (default 20)
	MaxSkew       time.Duration // |clock offset| bound (default 0 disables skew)

	// Message-level perturbation, active only inside the fault window.
	DropPermille  int           // per-message loss probability, ‰
	MaxExtraDelay time.Duration // per-message extra delay, uniform [0, MaxExtraDelay)
}

// Options fixes the schedule's targets and fault window.
type Options struct {
	Nodes   []msg.NodeID  // nodes faults may target (typically the replicas)
	Start   time.Duration // fault window start
	Window  time.Duration // fault window length; all episodes end inside it
	Profile Profile
}

// Schedule is a generated, replayable fault plan.
type Schedule struct {
	Seed   int64
	Events []Event
	opts   Options
}

// String renders the plan, one event per line.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faultsched seed=%d window=[%v,%v) events=%d\n",
		s.Seed, s.opts.Start, s.opts.Start+s.opts.Window, len(s.Events))
	for _, e := range s.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// episode is an impairment interval used for the concurrency cap.
type episode struct {
	node       msg.NodeID
	start, end time.Duration
}

// Generate builds the schedule for (seed, opt). Same inputs, same
// schedule — the generator owns its RNG and draws in a fixed order.
func Generate(seed int64, opt Options) *Schedule {
	p := opt.Profile
	if p.CrashWeight == 0 && p.CutWeight == 0 && p.IsolateWeight == 0 &&
		p.SlowWeight == 0 && p.SkewWeight == 0 {
		p.CrashWeight, p.CutWeight = 1, 1
	}
	if p.Episodes == 0 {
		p.Episodes = 4
	}
	if p.MinDur == 0 {
		p.MinDur = opt.Window / 20
	}
	if p.MaxDur == 0 {
		p.MaxDur = opt.Window / 4
	}
	if p.MaxDur < p.MinDur {
		p.MaxDur = p.MinDur
	}
	if p.MaxConcurrent == 0 {
		p.MaxConcurrent = (len(opt.Nodes) - 1) / 2
		if p.MaxConcurrent < 1 {
			p.MaxConcurrent = 1
		}
	}
	if p.MaxSlow == 0 {
		p.MaxSlow = 20
	}
	opt.Profile = p

	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, opts: opt}
	if len(opt.Nodes) == 0 || opt.Window <= 0 {
		return s
	}

	// Weighted kind table. Skew episodes never impair (bounded offsets
	// are a running condition, not an outage) so they bypass the cap.
	type class struct {
		kind   Kind
		weight int
	}
	classes := []class{
		{Crash, p.CrashWeight},
		{Cut, p.CutWeight},
		{Slow, p.SlowWeight},
	}
	isolateMark := Kind(-1) // internal marker, expands to per-peer cuts
	classes = append(classes, class{isolateMark, p.IsolateWeight})
	if p.MaxSkew > 0 {
		classes = append(classes, class{Skew, p.SkewWeight})
	}
	total := 0
	for _, c := range classes {
		total += c.weight
	}
	if total == 0 {
		return s
	}
	pick := func() Kind {
		n := rng.Intn(total)
		for _, c := range classes {
			if n < c.weight {
				return c.kind
			}
			n -= c.weight
		}
		return classes[len(classes)-1].kind
	}

	var impaired []episode
	overlapping := func(start, end time.Duration, nodes ...msg.NodeID) bool {
		// Would adding these nodes push any instant of [start, end)
		// past the impaired cap? Conservative: count every node whose
		// existing episode overlaps the whole candidate interval.
		distinct := make(map[msg.NodeID]bool, len(nodes))
		for _, n := range nodes {
			distinct[n] = true
		}
		for _, ep := range impaired {
			if ep.start < end && start < ep.end {
				distinct[ep.node] = true
			}
		}
		return len(distinct) > p.MaxConcurrent
	}

	for ep := 0; ep < p.Episodes; ep++ {
		kind := pick()
		// Up to a handful of placement attempts; a crowded window just
		// yields a lighter schedule, never a cap violation.
		for attempt := 0; attempt < 8; attempt++ {
			durRange := p.MaxDur - p.MinDur
			dur := p.MinDur
			if durRange > 0 {
				dur += time.Duration(rng.Int63n(int64(durRange)))
			}
			latest := opt.Window - dur
			if latest <= 0 {
				dur = opt.Window
				latest = 1
			}
			start := opt.Start + time.Duration(rng.Int63n(int64(latest)))
			end := start + dur
			node := opt.Nodes[rng.Intn(len(opt.Nodes))]

			switch kind {
			case Crash:
				if overlapping(start, end, node) {
					continue
				}
				impaired = append(impaired, episode{node, start, end})
				s.Events = append(s.Events,
					Event{At: start, Kind: Crash, Node: node},
					Event{At: end, Kind: Recover, Node: node})
			case Cut:
				peer := opt.Nodes[rng.Intn(len(opt.Nodes))]
				if peer == node {
					continue
				}
				if overlapping(start, end, node, peer) {
					continue
				}
				impaired = append(impaired,
					episode{node, start, end}, episode{peer, start, end})
				s.Events = append(s.Events,
					Event{At: start, Kind: Cut, Node: node, Peer: peer},
					Event{At: end, Kind: Heal, Node: node, Peer: peer})
			case isolateMark:
				if overlapping(start, end, node) {
					continue
				}
				impaired = append(impaired, episode{node, start, end})
				for _, peer := range opt.Nodes {
					if peer == node {
						continue
					}
					s.Events = append(s.Events,
						Event{At: start, Kind: Cut, Node: node, Peer: peer},
						Event{At: end, Kind: Heal, Node: node, Peer: peer})
				}
			case Slow:
				if overlapping(start, end, node) {
					continue
				}
				impaired = append(impaired, episode{node, start, end})
				factor := 2 + rng.Float64()*(p.MaxSlow-2)
				s.Events = append(s.Events,
					Event{At: start, Kind: Slow, Node: node, Factor: factor},
					Event{At: end, Kind: Restore, Node: node})
			case Skew:
				off := time.Duration(rng.Int63n(int64(2*p.MaxSkew))) - p.MaxSkew
				s.Events = append(s.Events,
					Event{At: start, Kind: Skew, Node: node, Offset: off},
					Event{At: end, Kind: Skew, Node: node, Offset: 0})
			}
			break
		}
	}

	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// Apply arms the schedule on a network: every event becomes a timed
// callback, and — when the profile asks for message perturbation — a
// seeded PerturbFunc is installed that delays and drops traffic among
// the schedule's nodes inside the fault window only. skewClock applies
// a clock offset to a node's read path; pass nil to ignore Skew
// events (engines without lease reads have no skew-sensitive state).
//
// Apply draws from its own RNG (derived from the seed), so a schedule
// can be applied to any number of identical simulations and perturb
// identically in each.
func (s *Schedule) Apply(net *simnet.Network, skewClock func(msg.NodeID, time.Duration)) {
	s.ApplyObserved(net, skewClock, nil)
}

// ApplyObserved is Apply with an observer: observe (when non-nil) fires
// at each event's virtual time, just before the fault lands, so the
// run's own event log can interleave fault episodes with the protocol
// events they provoke. The observer runs on the simulator's scheduling
// goroutine; it must not block.
func (s *Schedule) ApplyObserved(net *simnet.Network, skewClock func(msg.NodeID, time.Duration), observe func(Event)) {
	for _, e := range s.Events {
		ev := e
		if observe != nil {
			net.At(ev.At, func() { observe(ev) })
		}
		switch ev.Kind {
		case Crash:
			net.At(ev.At, func() { net.Crash(ev.Node) })
		case Recover:
			net.At(ev.At, func() { net.Recover(ev.Node) })
		case Cut:
			net.At(ev.At, func() { net.Partition(ev.Node, ev.Peer) })
		case Heal:
			net.At(ev.At, func() { net.Heal(ev.Node, ev.Peer) })
		case Slow:
			net.At(ev.At, func() { net.SetSlow(ev.Node, ev.Factor) })
		case Restore:
			net.At(ev.At, func() { net.SetSlow(ev.Node, 1) })
		case Skew:
			if skewClock != nil {
				net.At(ev.At, func() { skewClock(ev.Node, ev.Offset) })
			}
		}
	}

	p := s.opts.Profile
	if p.DropPermille <= 0 && p.MaxExtraDelay <= 0 {
		return
	}
	inSet := make(map[msg.NodeID]bool, len(s.opts.Nodes))
	for _, n := range s.opts.Nodes {
		inSet[n] = true
	}
	windowEnd := s.opts.Start + s.opts.Window
	prng := rand.New(rand.NewSource(s.Seed ^ 0x5eed_fa017))
	net.SetPerturb(func(from, to msg.NodeID, _ msg.Message) (time.Duration, bool) {
		if !inSet[from] || !inSet[to] {
			return 0, false // leave client/auxiliary traffic alone
		}
		now := net.Now()
		if now < s.opts.Start || now >= windowEnd {
			return 0, false
		}
		if p.DropPermille > 0 && prng.Intn(1000) < p.DropPermille {
			return 0, true
		}
		var extra time.Duration
		if p.MaxExtraDelay > 0 {
			extra = time.Duration(prng.Int63n(int64(p.MaxExtraDelay)))
		}
		return extra, false
	})
}
