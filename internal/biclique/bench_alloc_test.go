package biclique

import (
	"sync/atomic"
	"testing"
	"time"

	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// runBenchPipeline pushes one finite workload through a full system and
// returns the number of joined pairs observed. Used by the allocation
// benchmarks: one b.N iteration = one complete dispatcher→joiner run, so
// allocs/op compares the whole data plane between batch sizes.
func runBenchPipeline(b *testing.B, cfg Config, tuples []stream.Tuple) int64 {
	b.Helper()
	var pairs atomic.Int64
	cfg.EmitResults = true
	cfg.OnResult = func(stream.JoinedPair) { pairs.Add(1) }
	cfg.Sources = []TupleSource{sliceSource(tuples)}
	sys, err := Start(cfg)
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	if err := sys.WaitComplete(60 * time.Second); err != nil {
		sys.Stop()
		b.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	return pairs.Load()
}

func benchmarkDataPlane(b *testing.B, batchSize int) {
	// Sparse key space: few pairs actually match, so per-pair result
	// allocations do not drown out the per-tuple transport cost the
	// benchmark is comparing (boxing + channel send per emit vs per batch).
	tuples := makeWorkload(20000, 15000, 0, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := baseConfig()
		cfg.Strategy = StrategyHash
		cfg.BatchSize = batchSize
		// Long stats interval: keep the periodic reporter out of the
		// allocation profile so the comparison isolates the data plane.
		cfg.StatsInterval = time.Second
		// Splitting enabled so the ceiling covers the detector on the hot
		// path; the sparse key space never crosses the threshold, so this
		// prices sketch observation, not salted routing.
		cfg.Split = SplitConfig{Threshold: 0.5, Ways: 2}
		// Observability on: the tracer must stay off the data plane, so
		// the allocation ceiling holds with it attached.
		cfg.Tracer = obs.NewTracer(0)
		if n := runBenchPipeline(b, cfg, tuples); n == 0 {
			b.Fatal("no pairs produced")
		}
	}
}

// BenchmarkDataPlaneBatch1 measures batches of one: every dispatcher
// emit sends a pooled one-tuple *TupleBatch through one channel send.
func BenchmarkDataPlaneBatch1(b *testing.B) { benchmarkDataPlane(b, 1) }

// BenchmarkDataPlaneBatch32 measures the batched data plane at the
// default batch size; allocs/op must come in well below the batch-of-one
// run since boxing and channel sends are amortized ~32×. This is the
// benchmark scripts/alloc_gate.sh holds against ci/alloc_ceiling.txt.
func BenchmarkDataPlaneBatch32(b *testing.B) { benchmarkDataPlane(b, DefaultBatchSize) }
