package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"fastjoin"
)

// sources is the number of ingestion tasks in every workload: the
// reference host's core count, so load generation never needs more
// goroutines than the host has cores.
const sources = 2

// spec is one named workload. Every rate and size is a constant here and
// never derived from the code under test, so a parent commit and a change
// run exactly the same inputs.
type spec struct {
	name string
	// openLoop workloads emit on a fixed schedule (rate tuples/s, one
	// shared start for all sources); closed-loop ones replay a fixed
	// input as fast as backpressure admits it.
	openLoop bool
	rate     float64
	// passSeconds is the length of one open-loop pass; a run repeats
	// passes until it has measured for its seconds.
	passSeconds float64
	// replayTuples is the closed-loop input size per repetition.
	replayTuples int
	keys         int
	// window is the join window (0: full history); guard is how far
	// inside the window a pair must lie for the oracle to require it.
	window time.Duration
	guard  time.Duration
	// thin keeps a pair when (r.Seq+s.Seq) % thin == 0; 1 keeps all.
	// R tuples sit at even indexes and S at odd ones, so thin must be odd.
	thin uint64
	// emit selects emission mode (OnResult); otherwise count-only.
	emit bool

	joiners        int
	splitThreshold float64

	// gen builds n input tuples: Seq is the tuple's global index, R at
	// even indexes and S at odd ones, and EventTime holds the due offset
	// from the schedule start (0 for closed-loop inputs).
	gen func(s *spec, rng *rand.Rand, n int) []fastjoin.Tuple
}

var specs = []*spec{
	{
		name:         "zipf-replay",
		replayTuples: 1_000_000,
		keys:         30_000,
		thin:         1,
		joiners:      8,
		gen: func(s *spec, rng *rand.Rand, n int) []fastjoin.Tuple {
			return genZipfUniform(rng, n, s.keys, 1.0)
		},
	},
	{
		name:           "drift-window",
		openLoop:       true,
		rate:           30_000,
		passSeconds:    4,
		keys:           30_000,
		window:         time.Second,
		guard:          400 * time.Millisecond,
		thin:           31,
		emit:           true,
		joiners:        8,
		splitThreshold: 0.1,
		// The hot set moves every second of schedule.
		gen: func(s *spec, rng *rand.Rand, n int) []fastjoin.Tuple {
			return scheduled(genDrift(rng, n, s.keys, 1.0, int(s.rate), s.keys/7+1), s.rate)
		},
	},
}

func lookupSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// inputSize is how many tuples one measured pass feeds.
func (s *spec) inputSize() int {
	if s.openLoop {
		return int(s.rate * s.passSeconds)
	}
	return s.replayTuples
}

// keep is the workload's Predicate: a pure Seq residue that thins the
// results a hot key yields without changing which keys meet.
func (s *spec) keep(r, t fastjoin.Tuple) bool { return (r.Seq+t.Seq)%s.thin == 0 }

// options builds the system configuration, minus sources and hooks.
func (s *spec) options() fastjoin.Options {
	o := fastjoin.Options{Kind: fastjoin.KindFastJoin, Joiners: s.joiners}
	o.Windowing.Span = s.window
	o.Migration.SplitThreshold = s.splitThreshold
	return o
}

// zipfSampler draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^theta.
type zipfSampler struct{ cdf []float64 }

func newZipf(n int, theta float64) zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipfSampler{cdf: cdf}
}

func (z zipfSampler) rank(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

func sideOf(i int) fastjoin.Side {
	if i%2 == 0 {
		return fastjoin.R
	}
	return fastjoin.S
}

// rankToKey maps zipf ranks to key ids. It is the same for every seed, so
// the hot keys, and which instances own them, do not change between runs;
// the seed varies only the sampled sequence.
func rankToKey(keys int) []int {
	return rand.New(rand.NewPCG(0x6b6579, 0x7065726d)).Perm(keys)
}

// genZipfUniform: R keys zipf(theta) over the fixed rank→key map, S keys
// uniform over the same universe.
func genZipfUniform(rng *rand.Rand, n, keys int, theta float64) []fastjoin.Tuple {
	z := newZipf(keys, theta)
	perm := rankToKey(keys)
	out := make([]fastjoin.Tuple, n)
	for i := range out {
		var k int
		if sideOf(i) == fastjoin.R {
			k = perm[z.rank(rng)]
		} else {
			k = rng.IntN(keys)
		}
		out[i] = fastjoin.Tuple{Side: sideOf(i), Key: uint64(k), Seq: uint64(i)}
	}
	return out
}

// genDrift: both streams zipf(theta) over the fixed rank→key map, with key
// ids shifted by step every shiftEvery tuples, so the hot set moves.
func genDrift(rng *rand.Rand, n, keys int, theta float64, shiftEvery, step int) []fastjoin.Tuple {
	z := newZipf(keys, theta)
	perm := rankToKey(keys)
	out := make([]fastjoin.Tuple, n)
	for i := range out {
		offset := (i / shiftEvery) * step
		k := (perm[z.rank(rng)] + offset) % keys
		out[i] = fastjoin.Tuple{Side: sideOf(i), Key: uint64(k), Seq: uint64(i)}
	}
	return out
}

// scheduled stamps every tuple's due offset for an open loop at rate
// tuples/s: tuple i is due i/rate seconds after the schedule start.
func scheduled(in []fastjoin.Tuple, rate float64) []fastjoin.Tuple {
	for i := range in {
		in[i].EventTime = dueOffset(i, rate)
	}
	return in
}

func dueOffset(i int, rate float64) int64 {
	return int64(float64(i) * float64(time.Second) / rate)
}
