package biclique

import (
	"sync/atomic"
	"testing"

	"fastjoin/internal/obs"
)

// traceSpanCheck validates a settled run's trace: every span complete and
// correctly ordered per obs.Span.Err, terminal counts matching the
// migration counters, and no events outside a span. It returns the
// (commit, rollback) span counts so sweeps can assert coverage.
func traceSpanCheck(t *testing.T, sys *System, tr *obs.Tracer) (int64, int64) {
	t.Helper()
	if tr.Evicted() != 0 {
		t.Fatalf("trace ring evicted %d events; size the test tracer larger", tr.Evicted())
	}
	events := tr.Snapshot()
	for i, ev := range events {
		if ev.Span == 0 {
			t.Errorf("event %d (%v) has no span", i, ev.Kind)
		}
	}
	spans := obs.Spans(events)
	var commits, rollbacks, noops int64
	for _, s := range spans {
		if err := s.Err(); err != nil {
			t.Errorf("incomplete or mis-ordered span: %v\n  events: %v", err, kindsOf(s))
			continue
		}
		switch s.Terminal() {
		case obs.KindCommit:
			commits++
		case obs.KindRollback:
			rollbacks++
		case obs.KindNoop:
			noops++
		}
	}
	m := sys.Metrics()
	if got := m.Migrations.Value(); commits != got {
		t.Errorf("commit spans = %d, Migrations counter = %d", commits, got)
	}
	if got := m.MigrationAborts.Value(); rollbacks != got {
		t.Errorf("rollback spans = %d, MigrationAborts counter = %d", rollbacks, got)
	}
	// Every completed migration in the log must have a matching span; the
	// log records commits and rollbacks, not noop attempts.
	if logged := int64(len(m.MigrationLog())); commits+rollbacks != logged {
		t.Errorf("terminal spans (%d commits + %d rollbacks) != migration log entries (%d)",
			commits, rollbacks, logged)
	}
	t.Logf("trace: %d events, %d spans (%d commit, %d rollback, %d noop)",
		len(events), len(spans), commits, rollbacks, noops)
	return commits, rollbacks
}

func kindsOf(s obs.Span) []obs.Kind {
	out := make([]obs.Kind, len(s.Events))
	for i, ev := range s.Events {
		out[i] = ev.Kind
	}
	return out
}

// TestTraceSpansCleanRun checks that a fault-free skewed run produces one
// complete span per migration and that migrations actually happen (the
// trace has something to say). The second half of the input is held
// back until a migration commits, so a fast data plane cannot finish the
// run before the first stats tick fires one.
func TestTraceSpansCleanRun(t *testing.T) {
	const n = 6000
	tr := obs.NewTracer(1 << 16)
	migrated := gate{at: n / 2, what: "a committed migration", ready: func(m *SystemMetrics) bool {
		return m.Migrations.Value() >= 1
	}}
	sys := runChaosGated(t, "none", 3, n, []gate{migrated}, func(c *Config) { c.Tracer = tr })
	if sys.Metrics().Migrations.Value() == 0 {
		t.Fatal("run produced no migrations; trace test exercised nothing")
	}
	traceSpanCheck(t, sys, tr)
}

// TestTraceSpansUnderChaos seeds fault profiles that force retransmits,
// duplicate markers, and aborted handshakes, then asserts every migration
// attempt still yields a complete, correctly ordered span — the tracer's
// dedup (first route application, distinct markers) must hold under
// exactly the message weather that creates duplicates.
func TestTraceSpansUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos trace sweep is not short")
	}
	var commits, rollbacks atomic.Int64
	t.Run("sweep", func(t *testing.T) {
		for _, profile := range []string{"droponly", "duponly", "mixed", "abortstorm"} {
			profile := profile
			t.Run(profile, func(t *testing.T) {
				t.Parallel()
				for seed := uint64(1); seed <= 2; seed++ {
					tr := obs.NewTracer(1 << 16)
					sys := runChaos(t, profile, seed, 8000, func(c *Config) { c.Tracer = tr })
					c, r := traceSpanCheck(t, sys, tr)
					commits.Add(c)
					rollbacks.Add(r)
				}
			})
		}
	})
	// The sweep must exercise both terminal paths, or the span validation
	// proved nothing: abortstorm reliably forces rollbacks, the milder
	// profiles commit.
	if commits.Load() == 0 {
		t.Error("sweep produced no committed migration spans")
	}
	if rollbacks.Load() == 0 {
		t.Error("sweep produced no rollback spans")
	}
}
