package main

import (
	"fmt"
	"runtime"
	"time"

	"fastjoin"
	"fastjoin/internal/core"
	"fastjoin/internal/routing"
	"fastjoin/internal/sketch"
	"fastjoin/internal/window"
)

// The isolated replays drive single layers with a workload's own tuples
// on one goroutine, through each package's exported functions.

// The program's defaults the replays mirror: the dispatcher's split
// detector (sketch capacity, observations per decay epoch) and the joiners'
// sub-window count.
const (
	sketchCapacity = 64
	sketchEpoch    = 2048
	subWindows     = 8
)

// replayReps is how many times each timed replay runs; the median counts.
const replayReps = 3

var sinkInt int // keeps timed results alive

func timeIt(fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds())
}

// medianOf runs fn replayReps times and returns the median result.
func medianOf(fn func() float64) float64 {
	xs := make([]float64, replayReps)
	for i := range xs {
		xs[i] = fn()
	}
	return quantile(xs, 0.5)
}

func (s *spec) newStore() window.Store {
	if s.window > 0 {
		return window.NewWindowed(int64(s.window), subWindows)
	}
	return window.New()
}

// advancer calls Advance on stores every sub-window of event time, as the
// joiners' ticks do, and accounts the time and expiries separately.
type advancer struct {
	step, next int64
	ns         float64
	expired    int
}

func (s *spec) newAdvancer() *advancer {
	if s.window <= 0 {
		return nil
	}
	step := int64(s.window) / subWindows
	return &advancer{step: step, next: step}
}

func (a *advancer) at(now int64, stores []window.Store) {
	if a == nil || now < a.next {
		return
	}
	t := time.Now()
	for _, st := range stores {
		a.expired += st.Advance(now)
	}
	a.ns += float64(time.Since(t).Nanoseconds())
	for a.next <= now {
		a.next += a.step
	}
}

// layerMetrics runs every isolated replay over the input.
func layerMetrics(s *spec, in []fastjoin.Tuple, want *oracle) (map[string]float64, error) {
	m := map[string]float64{}
	n := float64(len(in))

	// window, store only: Add (and Advance) every tuple.
	var advNs float64
	var expired int
	storeNs := medianOf(func() float64 {
		stores := []window.Store{s.newStore(), s.newStore()}
		adv := s.newAdvancer()
		total := timeIt(func() {
			for _, t := range in {
				adv.at(t.EventTime, stores)
				stores[t.Side].Add(t)
			}
		})
		if adv != nil {
			advNs, expired = adv.ns, adv.expired
			total -= adv.ns
		}
		return total
	})
	m["window.add_ns"] = storeNs / n
	m["window.advance_ns_per_expired"] = ratio(advNs, float64(expired))

	// Retained size of a store that holds the input (or its last window).
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stores := []window.Store{s.newStore(), s.newStore()}
	adv := s.newAdvancer()
	for _, t := range in {
		adv.at(t.EventTime, stores)
		stores[t.Side].Add(t)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["window.bytes_per_tuple"] = ratio(float64(after.HeapAlloc)-float64(before.HeapAlloc), float64(stores[0].Len()+stores[1].Len()))
	runtime.KeepAlive(stores)

	// window, join: probe the opposite store, then Add. The probe's cost is
	// the difference to the store-only replay.
	var matches int
	var allocs uint64
	joinNs := medianOf(func() float64 {
		stores := []window.Store{s.newStore(), s.newStore()}
		adv := s.newAdvancer()
		matches = 0
		count := func(fastjoin.Tuple) { matches++ }
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		total := timeIt(func() {
			for _, t := range in {
				adv.at(t.EventTime, stores)
				stores[t.Side.Opposite()].ForEachMatch(t.Key, count)
				stores[t.Side].Add(t)
			}
		})
		runtime.ReadMemStats(&ms1)
		allocs = ms1.Mallocs - ms0.Mallocs
		if adv != nil {
			total -= adv.ns
		}
		return total
	})
	probeNs := max(joinNs-storeNs, 0)
	m["window.probe_ns"] = probeNs / n
	m["window.scan_ns_per_match"] = ratio(probeNs, float64(matches))
	m["window.allocs_per_op"] = float64(allocs) / (2 * n)

	// routing: StoreTarget + ProbeTargets per tuple.
	router := routing.NewHash(s.joiners, 1)
	buf := make([]int, 0, s.joiners)
	m["routing.route_ns"] = medianOf(func() float64 {
		return timeIt(func() {
			for _, t := range in {
				sinkInt += router.StoreTarget(t.Side, t.Key)
				buf = router.ProbeTargets(t.Side.Opposite(), t.Key, buf[:0])
				sinkInt += len(buf)
			}
		})
	}) / n

	// sketch: the split detector's Observe, halved every epoch.
	m["sketch.observe_ns"] = medianOf(func() float64 {
		sk := sketch.New(sketchCapacity)
		return timeIt(func() {
			for i, t := range in {
				sk.Observe(t.Key)
				if (i+1)%sketchEpoch == 0 {
					sk.Halve()
				}
			}
		})
	}) / n

	greedy, imb := coreReplay(s, in, router)
	m["core.greedyfit_us"] = greedy
	m["core.imbalance_ns"] = imb

	tps, results := baseline(s, in)
	m["baseline.single_thread_tps"] = tps
	if s.emit && results < want.count || !s.emit && results != want.count {
		return m, fmt.Errorf("single-thread baseline found %d pairs, oracle requires %d", results, want.count)
	}
	return m, nil
}

// coreReplay builds the R side's instance loads from the input's key
// histogram (the stored tuples of the last window, probed by the opposite
// stream's tuples of that window) and times GreedyFit between the
// heaviest and lightest instance, and the imbalance computation.
func coreReplay(s *spec, in []fastjoin.Tuple, router *routing.Hash) (greedyUs, imbalanceNs float64) {
	from := in[len(in)-1].EventTime - int64(s.window)
	if s.window <= 0 {
		from = -1
	}
	keys := make([]map[fastjoin.Key]*core.KeyStat, s.joiners)
	for i := range keys {
		keys[i] = map[fastjoin.Key]*core.KeyStat{}
	}
	for _, t := range in {
		if t.EventTime < from {
			continue
		}
		inst := router.StoreTarget(fastjoin.R, t.Key)
		ks := keys[inst][t.Key]
		if ks == nil {
			ks = &core.KeyStat{Key: t.Key}
			keys[inst][t.Key] = ks
		}
		if t.Side == fastjoin.R {
			ks.Stored++
		} else {
			ks.Probe++
		}
	}
	loads := make([]core.InstanceLoad, s.joiners)
	stats := make([][]core.KeyStat, s.joiners)
	for i, km := range keys {
		loads[i].Instance = i
		for _, ks := range km {
			loads[i].Stored += ks.Stored
			loads[i].Probe += ks.Probe
			stats[i] = append(stats[i], *ks)
		}
	}
	var heavy, light int
	const imbalanceCalls = 100_000
	imbalanceNs = medianOf(func() float64 {
		return timeIt(func() {
			for i := 0; i < imbalanceCalls; i++ {
				_, heavy, light = core.Imbalance(loads)
			}
		})
	}) / imbalanceCalls
	sel := core.SelectInput{Source: loads[heavy], Target: loads[light], Keys: stats[heavy], MinBenefit: 1}
	const greedyCalls = 50
	greedyUs = medianOf(func() float64 {
		return timeIt(func() {
			for i := 0; i < greedyCalls; i++ {
				sinkInt += len(core.GreedyFit(sel))
			}
		})
	}) / greedyCalls / 1e3
	return greedyUs, imbalanceNs
}

// baseline is the same join on one goroutine: hash routing over the
// workload's instance count, a window store per instance, and the
// workload's predicate. It returns input tuples per second and the pairs
// found.
func baseline(s *spec, in []fastjoin.Tuple) (tps float64, results int64) {
	router := routing.NewHash(s.joiners, 1)
	var stores [2][]window.Store
	all := make([]window.Store, 0, 2*s.joiners)
	for side := range stores {
		for i := 0; i < s.joiners; i++ {
			st := s.newStore()
			stores[side] = append(stores[side], st)
			all = append(all, st)
		}
	}
	adv := s.newAdvancer()
	buf := make([]int, 0, s.joiners)
	var probe fastjoin.Tuple
	match := func(stored fastjoin.Tuple) {
		if (stored.Seq+probe.Seq)%s.thin == 0 {
			results++
		}
	}
	ns := timeIt(func() {
		for _, t := range in {
			adv.at(t.EventTime, all)
			probe = t
			opp := t.Side.Opposite()
			buf = router.ProbeTargets(opp, t.Key, buf[:0])
			for _, inst := range buf {
				stores[opp][inst].ForEachMatch(t.Key, match)
			}
			stores[t.Side][router.StoreTarget(t.Side, t.Key)].Add(t)
		}
	})
	return float64(len(in)) / (ns / 1e9), results
}
