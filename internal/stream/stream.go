// Package stream defines the tuple model shared by every layer of the
// FastJoin system: the two logical input streams R and S, the tuples that
// flow on them, and the joined pairs that the system emits.
//
// The model follows the notation of the FastJoin paper (Table I): two
// unbounded streams R and S are joined on key equality; the join-biclique
// instances on the R side store tuples of R and probe them with tuples of S,
// and symmetrically for the S side.
package stream

import (
	"fmt"
	"time"
)

// Side identifies which logical input stream a tuple belongs to.
type Side uint8

const (
	// R is the first joining stream (e.g. passenger orders).
	R Side = iota
	// S is the second joining stream (e.g. taxi tracks).
	S
)

// String returns "R" or "S".
func (s Side) String() string {
	switch s {
	case R:
		return "R"
	case S:
		return "S"
	default:
		return fmt.Sprintf("Side(%d)", uint8(s))
	}
}

// Opposite returns the other stream: R.Opposite() == S and vice versa.
func (s Side) Opposite() Side {
	if s == R {
		return S
	}
	return R
}

// Valid reports whether the side is one of the two defined streams.
func (s Side) Valid() bool { return s == R || s == S }

// Key is the join attribute of a tuple. FastJoin performs equi-joins, so a
// 64-bit key is sufficient for all workloads in the paper (locations, ad ids,
// order ids); richer attributes travel in the Payload.
type Key = uint64

// Tuple is one element of an input stream.
//
// Seq is assigned by the producing spout and is unique per side; the pair
// (Side, Seq) identifies a tuple globally, which the test suite uses to check
// exactly-once join completeness. EventTime is the logical timestamp assigned
// by the pre-processing (shuffler) unit and drives window expiry.
type Tuple struct {
	Side      Side
	Key       Key
	Seq       uint64
	EventTime int64 // unix nanoseconds
	Payload   any
}

// ID returns a globally unique identifier for the tuple.
func (t Tuple) ID() TupleID { return TupleID{Side: t.Side, Seq: t.Seq} }

// String renders a compact human-readable form, for logs and test failures.
func (t Tuple) String() string {
	return fmt.Sprintf("%s#%d(key=%d)", t.Side, t.Seq, t.Key)
}

// TupleID identifies a tuple across the whole system.
type TupleID struct {
	Side Side
	Seq  uint64
}

// PairID identifies a joined (r, s) pair independently of which side's join
// instance produced it. It is the canonical form used to verify that every
// matching pair is emitted exactly once.
type PairID struct {
	RSeq uint64
	SSeq uint64
}

// JoinedPair is one join result: a tuple of R matched with a tuple of S on
// key equality (plus the optional user predicate). Instance records which
// join instance produced the pair and StoreSide which biclique group it
// belongs to; JoinedAt is the wall-clock time the join instance started
// handling the batch of routed tuples the probe arrived in, shared by
// every pair of that batch (a probe replayed by a migration reads the
// clock itself).
type JoinedPair struct {
	R         Tuple
	S         Tuple
	StoreSide Side
	Instance  int
	JoinedAt  int64 // unix nanoseconds
}

// ID returns the canonical pair identifier (R sequence, S sequence).
func (p JoinedPair) ID() PairID { return PairID{RSeq: p.R.Seq, SSeq: p.S.Seq} }

// Key returns the join key shared by both sides of the pair.
func (p JoinedPair) Key() Key { return p.R.Key }

// Predicate is an optional user refinement applied after key equality: a
// pair is emitted only if the predicate accepts it. A nil Predicate accepts
// every key-equal pair. Implementations must be pure and safe for concurrent
// use, since every join instance evaluates it.
type Predicate func(r, s Tuple) bool

// Now returns the current time in unix nanoseconds. Centralizing it keeps
// time handling consistent across joiners, monitors and metrics.
func Now() int64 { return time.Now().UnixNano() }
