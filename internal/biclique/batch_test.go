package biclique

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fastjoin/internal/engine"

	"fastjoin/internal/core"
	"fastjoin/internal/stream"
)

// TestBatchingExactlyOnceMatchesUnbatched runs the identical workload
// with batches of one (BatchSize=1) and with larger batches, and requires
// every run to produce exactly the reference pair set. An odd batch size
// that never divides the lane traffic evenly is included so partial-batch
// flushes (linger/idle) carry real weight.
func TestBatchingExactlyOnceMatchesUnbatched(t *testing.T) {
	tuples := makeWorkload(6000, 50, 0.3, 11)
	want := referenceJoin(tuples, nil)
	for _, size := range []int{1, 7, DefaultBatchSize} {
		cfg := baseConfig()
		cfg.Strategy = StrategyHash
		cfg.BatchSize = size
		_, got := runFinite(t, cfg, tuples)
		assertExactlyOnce(t, want, got)
	}
}

// TestBatchingExactlyOnceUnderMigration is the marker-fencing check for
// the batched data plane: migrations fire under heavy skew while lanes
// carry open batches, and exactly-once only holds if the dispatcher
// flushes every open batch BEFORE emitting a marker — otherwise tuples
// buffered in a lane would arrive after the marker they must precede.
func TestBatchingExactlyOnceUnderMigration(t *testing.T) {
	tuples := makeWorkload(8000, 40, 0.5, 6)
	pred := func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%8 == 0 }
	cfg := baseConfig()
	cfg.Strategy = StrategyHash
	cfg.Predicate = pred
	cfg.BatchSize = DefaultBatchSize
	cfg.BatchLinger = time.Millisecond
	cfg.Migration = MigrationConfig{
		Enabled: true,
		Policy: core.MonitorPolicy{
			Theta:     1.2,
			Cooldown:  25 * time.Millisecond,
			MinStored: 16,
		},
	}
	sys, got := runFinite(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, pred), got)
	if sys.Metrics().Migrations.Value() == 0 {
		t.Error("expected at least one migration; batched fencing untested otherwise")
	}
}

// TestBatchConfigValidation pins the BatchSize knob semantics: zero means
// "default batching", one means a batch of one, negatives are rejected.
func TestBatchConfigValidation(t *testing.T) {
	base := func() Config {
		cfg := baseConfig()
		cfg.Sources = []TupleSource{sliceSource(nil)}
		return cfg
	}
	cfg := base()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.BatchSize != DefaultBatchSize {
		t.Errorf("zero BatchSize resolved to %d, want default %d", cfg.BatchSize, DefaultBatchSize)
	}
	if cfg.BatchLinger <= 0 {
		t.Errorf("zero BatchLinger not defaulted: %v", cfg.BatchLinger)
	}

	cfg = base()
	cfg.BatchSize = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate(BatchSize=1): %v", err)
	}
	if cfg.BatchSize != 1 {
		t.Errorf("BatchSize=1 rewritten to %d; must stay a batch of one", cfg.BatchSize)
	}

	cfg = base()
	cfg.BatchSize = -3
	if err := cfg.Validate(); err == nil {
		t.Error("negative BatchSize accepted")
	}
}

// TestDataLanesCarryOnlyBatches records every enqueue on the data hops and
// requires each to be a batch or a fence mark: the shuffler→dispatcher
// hop carries only *ShuffleBatch and the dispatcher→joiner hops only
// *TupleBatch or marks, at every batch size — BatchSize=1 is a batch of
// one, never a bare stream.Tuple or TupleMsg. Migration and splitting are
// on so the marks the lanes also carry are part of the run.
func TestDataLanesCarryOnlyBatches(t *testing.T) {
	tuples := makeWorkload(6000, 40, 0.5, 9)
	for _, size := range []int{1, DefaultBatchSize} {
		var mu sync.Mutex
		bad := make(map[string]int)
		cfg := baseConfig()
		cfg.Strategy = StrategyHash
		cfg.BatchSize = size
		cfg.Migration = MigrationConfig{
			Enabled: true,
			Policy:  core.MonitorPolicy{Theta: 1.2, Cooldown: 25 * time.Millisecond, MinStored: 16},
		}
		enableSplit(&cfg)
		cfg.Engine.Inject = func(target engine.Context, stream string, _ bool, value any) engine.FaultDecision {
			ok := true
			switch {
			case stream == streamTuples && target.Component == CompDispatcher:
				_, ok = value.(*ShuffleBatch)
			case stream == streamToR || stream == streamToS:
				switch value.(type) {
				case *TupleBatch, Marker, SplitMark, UnsplitMark, SplitRetire:
				default:
					ok = false
				}
			}
			if !ok {
				mu.Lock()
				bad[fmt.Sprintf("%s→%s: %T", stream, target.Component, value)]++
				mu.Unlock()
			}
			return engine.FaultDecision{}
		}
		_, got := runFinite(t, cfg, tuples)
		assertExactlyOnce(t, referenceJoin(tuples, nil), got)
		mu.Lock()
		for what, n := range bad {
			t.Errorf("BatchSize=%d: %d non-batch messages on a data hop (%s)", size, n, what)
		}
		mu.Unlock()
	}
}
