package main

import (
	"sync/atomic"
	"time"

	"fastjoin"
)

func nowNs() int64 { return time.Now().UnixNano() }

// feed serves one pass's input to the system through `sources` ingestion
// tasks; source j pulls tuples j, j+sources, j+2·sources, ...
//
// Open loop: every source works off one shared schedule that starts at the
// first pull of any source. Tuple i is due at start + its due offset; a
// source sleeps while it is ahead of the schedule and never slows the
// schedule when it is behind. The tuple's EventTime is set to its due time
// whether it is pulled on time or late, so a stall shows as latency.
//
// Closed loop: a source hands out its next tuple as soon as it is asked,
// leaving EventTime for the system to stamp.
type feed struct {
	in    []fastjoin.Tuple
	open  bool
	start atomic.Int64 // schedule start: the first pull, unix ns
	// pulled[i] is when tuple i was handed to the system (unix ns).
	// Each index is written by one source and read after the pass ends.
	pulled []int64
}

func newFeed(in []fastjoin.Tuple, open bool) *feed {
	return &feed{in: in, open: open, pulled: make([]int64, len(in))}
}

func (f *feed) sources() []fastjoin.TupleSource {
	out := make([]fastjoin.TupleSource, sources)
	for j := range out {
		out[j] = f.source(j)
	}
	return out
}

func (f *feed) source(j int) fastjoin.TupleSource {
	i := j
	return func() (fastjoin.Tuple, bool) {
		if i >= len(f.in) {
			return fastjoin.Tuple{}, false
		}
		now := nowNs()
		f.start.CompareAndSwap(0, now)
		t := f.in[i]
		if f.open {
			t.EventTime = f.due(i)
			if d := t.EventTime - now; d > 0 {
				time.Sleep(time.Duration(d))
				now = nowNs()
			}
		}
		f.pulled[i] = now
		i += sources
		return t, true
	}
}

// due is when tuple i was due (unix ns): its scheduled time in an open
// loop, its pull in a closed one. Only meaningful once the pass started.
func (f *feed) due(i int) int64 {
	if !f.open {
		return f.pulled[i]
	}
	return f.start.Load() + f.in[i].EventTime
}
