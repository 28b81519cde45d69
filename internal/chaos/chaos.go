// Package chaos is a deterministic, seedable fault-injection layer for
// FastJoin's runtime. It decides — per message, per lane — whether a
// delivery is dropped, duplicated, or delayed, and whether a task stalls
// before processing. It acts on the in-process engine only; network
// ingestion (internal/transport) is not fault-injected.
//
// Determinism is the design center: every decision is drawn from a
// per-lane *rand.Rand derived from a single seed, and wall-clock time is
// never consulted in a decision path. Because each lane (one producer
// task × one stream) has its own stream of random numbers, a run replays
// the same fault sequence per lane regardless of how the scheduler
// interleaves goroutines. A failing run is reproduced by re-running with
// the same seed and profile.
//
// Faults are scoped by message Class. The exactly-once argument for the
// marker-gated migration protocol (DESIGN.md, "Fault model &
// degradation") only survives faults on control-plane classes: data-lane
// tuples and migration state transfers must be delivered reliably, so
// the shipped profiles keep ClassData and ClassMigData clean and attack
// markers, routing updates, commands, and load reports instead.
package chaos

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Class partitions messages by their role in the join/migration
// protocols, so profiles can attack classes whose loss the system must
// tolerate while leaving classes whose loss would (by design) lose data.
type Class uint8

const (
	// ClassOther is anything not otherwise classified.
	ClassOther Class = iota
	// ClassData is a data-lane join tuple. Dropping one loses join pairs,
	// duplicating one fabricates pairs, and reordering breaks the per-key
	// FIFO that the exactly-once proof rests on — profiles must keep this
	// class clean.
	ClassData
	// ClassMarker is a forward migration marker (the handshake the abort
	// timeout guards). Safe to drop, delay, or duplicate.
	ClassMarker
	// ClassMarkerRevert is a revert marker sent during migration abort.
	// Kept distinct from ClassMarker so an "abort storm" profile can kill
	// the forward handshake while letting the rollback complete.
	ClassMarkerRevert
	// ClassRouteUpdate is a routing-table broadcast. Idempotent and
	// re-broadcast until acknowledged, so safe to drop/delay/duplicate.
	ClassRouteUpdate
	// ClassCommand is a monitor migration command. Safe to fault: a lost
	// command is a lost optimization, never lost data.
	ClassCommand
	// ClassReport is a joiner load report. Safe to fault.
	ClassReport
	// ClassMigData is migration state transfer (batch/flush/abort/return).
	// Must stay FIFO and lossless: a dropped batch is lost tuples, a
	// delayed batch can be overtaken by its flush. Duplicates are
	// tolerated (epoch dedup), but the shipped profiles leave the class
	// clean for clarity.
	ClassMigData

	numClasses = int(ClassMigData) + 1
)

var classNames = [...]string{
	"other", "data", "marker", "marker-revert", "route-update",
	"command", "report", "mig-data",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "invalid"
}

// Op is the action taken on one delivery.
type Op uint8

const (
	// OpNone delivers normally.
	OpNone Op = iota
	// OpDrop discards the message.
	OpDrop
	// OpDup delivers the message twice.
	OpDup
	// OpDelay holds the message for Decision.Delay before delivery;
	// later messages on the same lane overtake it (delay ⇒ reorder).
	OpDelay
)

func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpDrop:
		return "drop"
	case OpDup:
		return "dup"
	case OpDelay:
		return "delay"
	default:
		return "invalid"
	}
}

// Decision is the injector's verdict on one delivery.
type Decision struct {
	Op    Op
	Delay time.Duration
}

// ClassPolicy gives the per-delivery fault probabilities for one class.
// Probabilities are evaluated in order drop, dup, delay; at most one
// fires per delivery.
type ClassPolicy struct {
	Drop  float64
	Dup   float64
	Delay float64
	// DelayMin/DelayMax bound the uniformly drawn hold time when a delay
	// fires (defaults 1ms..10ms if both zero).
	DelayMin time.Duration
	DelayMax time.Duration
}

// Rule is a scripted fault: a deterministic override evaluated before
// the probabilistic policy. It applies to occurrences [First, First+Count)
// of the class, counted across all lanes in arrival order; Count <= 0
// means "all occurrences from First on".
type Rule struct {
	Class Class
	Op    Op
	Delay time.Duration
	First int
	Count int
}

// Profile bundles the fault schedule: scripted rules, per-class
// probabilities, and task stalls.
type Profile struct {
	// Name identifies the profile in flags, logs, and replay
	// instructions.
	Name string
	// Policies holds the probabilistic schedule per class.
	Policies [numClasses]ClassPolicy
	// Rules are scripted overrides, checked before Policies.
	Rules []Rule
	// StallProb is the chance a task stalls before processing a message;
	// the stall duration is uniform in [StallMin, StallMax].
	StallProb float64
	StallMin  time.Duration
	StallMax  time.Duration
}

// Counts is a snapshot of how many faults an injector has injected.
type Counts struct {
	Dropped    int64 `json:"dropped"`
	Duplicated int64 `json:"duplicated"`
	Delayed    int64 `json:"delayed"`
	Stalled    int64 `json:"stalled"`
}

// Injector draws fault decisions from a profile. One injector serves a
// whole system run; it is safe for concurrent use. The zero Injector is
// not usable — construct with NewInjector.
type Injector struct {
	profile Profile
	seed    int64

	mu    sync.Mutex
	lanes map[string]*rand.Rand
	seen  [numClasses]int

	dropped    atomic.Int64
	duplicated atomic.Int64
	delayed    atomic.Int64
	stalled    atomic.Int64
}

// NewInjector builds an injector for profile with the given seed. The
// same (profile, seed) pair yields the same per-lane decision sequence.
func NewInjector(profile Profile, seed int64) *Injector {
	return &Injector{
		profile: profile,
		seed:    seed,
		lanes:   make(map[string]*rand.Rand),
	}
}

// Profile returns the profile the injector was built with. The profile
// is immutable after NewInjector, so reads need no lock.
//
//lint:allow lockguard profile is written once in NewInjector and never mutated
func (in *Injector) Profile() Profile { return in.profile }

// Seed returns the seed the injector was built with.
func (in *Injector) Seed() int64 { return in.seed }

// laneRand returns the dedicated rand stream for a lane, creating it
// deterministically from the seed on first use. Callers hold in.mu.
func (in *Injector) laneRand(lane string) *rand.Rand {
	if r, ok := in.lanes[lane]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(lane))
	r := rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))
	in.lanes[lane] = r
	return r
}

// uniformDur draws a duration uniformly from [lo, hi] with safe
// defaults. Caller holds in.mu.
func uniformDur(r *rand.Rand, lo, hi time.Duration) time.Duration {
	if lo <= 0 && hi <= 0 {
		lo, hi = time.Millisecond, 10*time.Millisecond
	}
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.Int63n(int64(hi-lo)+1))
}

// Decide returns the fate of one delivery of class cls on the given
// lane. Lanes partition the decision space — typically
// "component[task]/stream" — so per-lane sequences replay independent
// of scheduler interleaving.
func (in *Injector) Decide(lane string, cls Class) Decision {
	in.mu.Lock()
	n := in.seen[cls]
	in.seen[cls]++
	var d Decision
	if r, ok := in.matchRule(cls, n); ok {
		d = Decision{Op: r.Op, Delay: r.Delay}
		if d.Op == OpDelay && d.Delay <= 0 {
			d.Delay = uniformDur(in.laneRand(lane), 0, 0)
		}
	} else {
		p := in.profile.Policies[cls]
		if p.Drop > 0 || p.Dup > 0 || p.Delay > 0 {
			r := in.laneRand(lane)
			switch f := r.Float64(); {
			case f < p.Drop:
				d = Decision{Op: OpDrop}
			case f < p.Drop+p.Dup:
				d = Decision{Op: OpDup}
			case f < p.Drop+p.Dup+p.Delay:
				d = Decision{Op: OpDelay, Delay: uniformDur(r, p.DelayMin, p.DelayMax)}
			}
		}
	}
	in.mu.Unlock()

	switch d.Op {
	case OpDrop:
		in.dropped.Add(1)
	case OpDup:
		in.duplicated.Add(1)
	case OpDelay:
		in.delayed.Add(1)
	}
	return d
}

// matchRule finds the scripted rule covering occurrence n of cls, if
// any. Caller holds in.mu.
func (in *Injector) matchRule(cls Class, n int) (Rule, bool) {
	//lint:allow lockguard profile is immutable after NewInjector (and the caller holds in.mu)
	for _, r := range in.profile.Rules {
		if r.Class != cls || n < r.First {
			continue
		}
		if r.Count > 0 && n >= r.First+r.Count {
			continue
		}
		return r, true
	}
	return Rule{}, false
}

// StallFor reports how long the task owning lane should stall before
// processing its next message (zero = no stall).
func (in *Injector) StallFor(lane string) time.Duration {
	//lint:allow lockguard profile is immutable after NewInjector
	if in.profile.StallProb <= 0 {
		return 0
	}
	in.mu.Lock()
	r := in.laneRand(lane)
	var d time.Duration
	if r.Float64() < in.profile.StallProb {
		d = uniformDur(r, in.profile.StallMin, in.profile.StallMax)
	}
	in.mu.Unlock()
	if d > 0 {
		in.stalled.Add(1)
	}
	return d
}

// Counts returns a snapshot of injected-fault totals.
func (in *Injector) Counts() Counts {
	return Counts{
		Dropped:    in.dropped.Load(),
		Duplicated: in.duplicated.Load(),
		Delayed:    in.delayed.Load(),
		Stalled:    in.stalled.Load(),
	}
}
