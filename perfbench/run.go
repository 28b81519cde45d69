package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"fastjoin"
)

// One tuple in 1<<sampleShift (by Seq) is sampled: it gets a latency stamp
// in count-only mode and a span in traced runs.
const (
	sampleShift = 6
	sampleMask  = 1<<sampleShift - 1
)

// probeStamps is count-only mode's latency probe, installed as an
// accept-all Predicate: the joiner calls it for every scanned pair, and
// for a sampled probing tuple (the pair's later tuple) it records the
// first call, which is when the tuple's probe found its matches.
type probeStamps struct{ at []atomic.Int64 }

func newProbeStamps(n int) *probeStamps {
	return &probeStamps{at: make([]atomic.Int64, n>>sampleShift+1)}
}

func (p *probeStamps) pred(r, s fastjoin.Tuple) bool {
	later := max(r.Seq, s.Seq)
	if later&sampleMask == 0 {
		a := &p.at[later>>sampleShift]
		if a.Load() == 0 {
			a.CompareAndSwap(0, nowNs())
		}
	}
	return true
}

// passResult is what one run of the system over the workload's input
// measured.
type passResult struct {
	setup      float64 // s, New → first pull
	elapsed    float64 // s, first pull → WaitComplete
	tuples     int
	cpuUs      float64 // process user+sys CPU, New → WaitComplete
	allocBytes uint64
	allocs     uint64
	heapLive   float64 // bytes of live heap the system holds at end of input
	gcCycles   uint32
	gcPauseNs  uint64
	lat        []float64 // ms, one per probing tuple that yielded a result
	expected   int64     // pairs the oracle requires
	failed     int64     // missing + duplicated + wrong pairs
	trace      *traceResult
}

// oracle holds the expected results of one input.
type oracle struct {
	count int64 // zipf-replay: exact pair count
	cnt   []uint32
	sum   []uint64
}

func newOracle(s *spec, in []fastjoin.Tuple) *oracle {
	if !s.emit {
		return &oracle{count: exactCount(in, s.keys)}
	}
	cnt, sum, total := windowOracle(in, s.keys, s.need(), s.thin)
	return &oracle{count: total, cnt: cnt, sum: sum}
}

// need is the largest due-time distance of a pair the oracle requires.
func (s *spec) need() int64 { return int64(s.window - s.guard) }

func cpuTimeUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// runPass builds a system, feeds it the whole input, waits for it to
// settle and checks the results. tr is nil for untraced passes.
func runPass(s *spec, in []fastjoin.Tuple, want *oracle, tr *tracer, deadline time.Time) (passResult, error) {
	f := newFeed(in, s.openLoop)
	opts := s.options()
	opts.Sources = f.sources()
	var rec *recorder
	var stamps *probeStamps
	if s.emit {
		rec = newRecorder(in, s.need(), s.thin, tr != nil)
		opts.OnResult = rec.onResult
		opts.Predicate = s.keep
	} else {
		stamps = newProbeStamps(len(in))
		opts.Predicate = stamps.pred
	}
	if tr != nil {
		tr.instrument(&opts, len(in))
	}

	debug.FreeOSMemory()
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTimeUs()
	t0 := nowNs()
	sys, err := fastjoin.New(opts)
	if err != nil {
		return passResult{}, fmt.Errorf("new: %w", err)
	}
	if tr != nil {
		tr.startScrape(sys.ObserveAddr())
	}
	werr := sys.WaitComplete(time.Until(deadline))
	end := nowNs()
	cpu1 := cpuTimeUs()
	runtime.ReadMemStats(&ms1)
	if tr != nil {
		tr.stopScrape()
	}
	stats := sys.Stats()
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	sys.Stop()

	start := f.start.Load()
	r := passResult{
		setup:      float64(start-t0) / 1e9,
		elapsed:    float64(end-start) / 1e9,
		tuples:     len(in),
		cpuUs:      cpu1 - cpu0,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		allocs:     ms1.Mallocs - ms0.Mallocs,
		heapLive:   float64(ms2.HeapAlloc) - float64(ms0.HeapAlloc),
		gcCycles:   ms1.NumGC - ms0.NumGC,
		gcPauseNs:  ms1.PauseTotalNs - ms0.PauseTotalNs,
		expected:   want.count,
	}
	if rec != nil {
		r.failed += rec.failures(want.cnt, want.sum)
		for i, at := range rec.last {
			if at != 0 {
				r.lat = append(r.lat, float64(at-f.due(i))/1e6)
			}
		}
	} else {
		if d := stats.Results - want.count; d != 0 {
			r.failed += max(d, -d)
		}
		for slot := range stamps.at {
			if at := stamps.at[slot].Load(); at != 0 {
				r.lat = append(r.lat, float64(at-f.due(slot<<sampleShift))/1e6)
			}
		}
	}
	if tr != nil {
		r.trace = tr.collect(s, f, rec, stamps, stats)
	}
	if werr != nil {
		return r, fmt.Errorf("wait: %w", werr)
	}
	return r, nil
}

// setupProbe times New until the first pull with the workload's own
// configuration and sources that end at once. Like every pass it starts
// from a heap whose free memory went back to the OS, as in a fresh
// process, so the set-up pays for its memory the same way in every run.
func setupProbe(s *spec) (float64, error) {
	var first atomic.Int64
	src := func() (fastjoin.Tuple, bool) {
		first.CompareAndSwap(0, nowNs())
		return fastjoin.Tuple{}, false
	}
	opts := s.options()
	opts.Sources = []fastjoin.TupleSource{src, src}
	if s.emit {
		opts.OnResult = func(fastjoin.JoinedPair) {}
		opts.Predicate = s.keep
	} else {
		opts.Predicate = func(fastjoin.Tuple, fastjoin.Tuple) bool { return true }
	}
	debug.FreeOSMemory()
	t0 := nowNs()
	sys, err := fastjoin.New(opts)
	if err != nil {
		return 0, fmt.Errorf("new: %w", err)
	}
	defer sys.Stop()
	if err := sys.WaitComplete(10 * time.Second); err != nil {
		return 0, fmt.Errorf("wait: %w", err)
	}
	return float64(first.Load()-t0) / 1e9, nil
}
