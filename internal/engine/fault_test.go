package engine

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countBolt counts received values.
type countBolt struct {
	count *atomic.Int64
}

func (b *countBolt) Prepare(Context, *Collector) {}
func (b *countBolt) Execute(m Message, _ *Collector) {
	if m.Stream != TickStream {
		b.count.Add(1)
	}
}
func (b *countBolt) Cleanup() {}

// faultTopology is a one-spout, one-bolt pipeline used by the fault tests.
func faultTopology(n int, count *atomic.Int64) *Topology {
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(n), 1)
	b.AddBolt("fsink", func(int) Bolt { return &countBolt{count: count} }, 1).
		Shuffle("src", "out")
	return b.MustBuild()
}

func TestInjectDrop(t *testing.T) {
	var count atomic.Int64
	cfg := Config{
		Inject: func(_ Context, stream string, _ bool, value any) FaultDecision {
			if v, ok := value.(int); ok && v%2 == 0 {
				return FaultDecision{Op: FaultDrop}
			}
			return FaultDecision{}
		},
	}
	c, err := Submit(faultTopology(100, &count), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitComplete(10 * time.Second); err != nil {
		c.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	c.Stop()
	if got := count.Load(); got != 50 {
		t.Errorf("delivered %d messages, want 50 (evens dropped)", got)
	}
}

func TestInjectDuplicate(t *testing.T) {
	var count atomic.Int64
	cfg := Config{
		Inject: func(_ Context, _ string, _ bool, _ any) FaultDecision {
			return FaultDecision{Op: FaultDup}
		},
	}
	c, err := Submit(faultTopology(100, &count), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitComplete(10 * time.Second); err != nil {
		c.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	c.Stop()
	if got := count.Load(); got != 200 {
		t.Errorf("delivered %d messages, want 200 (all duplicated)", got)
	}
}

func TestInjectDelayCountsAsPending(t *testing.T) {
	// Delayed messages must be visible to quiescence detection: a
	// WaitComplete racing a delayed delivery has to wait it out, never
	// settle early and lose the message.
	var count atomic.Int64
	cfg := Config{
		Inject: func(_ Context, _ string, _ bool, _ any) FaultDecision {
			return FaultDecision{Op: FaultDelay, Delay: 50 * time.Millisecond}
		},
	}
	c, err := Submit(faultTopology(20, &count), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitComplete(10 * time.Second); err != nil {
		c.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	c.Stop()
	if got := count.Load(); got != 20 {
		t.Errorf("delivered %d messages, want all 20 despite delays", got)
	}
}

func TestInjectDelayAbortsOnStop(t *testing.T) {
	// Stopping the cluster while messages are held must not leak the
	// delay goroutines (Stop blocks on the waitgroup they joined).
	var count atomic.Int64
	cfg := Config{
		Inject: func(_ Context, _ string, _ bool, _ any) FaultDecision {
			return FaultDecision{Op: FaultDelay, Delay: time.Hour}
		},
	}
	c, err := Submit(faultTopology(5, &count), cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not unblock held delay goroutines")
	}
	if c.Pending() != 0 {
		t.Errorf("pending = %d after Stop, want 0", c.Pending())
	}
}

// stallOnce stalls the first matching delivery for a fixed duration.
type stallOnce struct {
	mu    sync.Mutex
	fired bool
	dur   time.Duration
	// start is when the stall was handed to the engine: the engine sleeps
	// dur from a moment no earlier than this.
	start time.Time
}

func (s *stallOnce) fn(_ Context, stream string, _ any) time.Duration {
	if stream == TickStream {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired {
		return 0
	}
	s.fired = true
	s.start = time.Now()
	return s.dur
}

func (s *stallOnce) started() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

func (s *stallOnce) engaged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// waitEngaged blocks until the stall has actually captured a task, so a
// subsequent Drain races against a real mid-drain stall rather than an
// empty pipeline.
func waitEngaged(t *testing.T, s *stallOnce) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.engaged() {
		if time.Now().After(deadline) {
			t.Fatal("stall never engaged")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainCompletesAfterStallClears(t *testing.T) {
	// A task stalled mid-drain holds the pending count up; drain must wait
	// the stall out and then settle — not hang, not settle early.
	var count atomic.Int64
	st := &stallOnce{dur: 300 * time.Millisecond}
	c, err := Submit(faultTopology(50, &count), Config{Stall: st.fn})
	if err != nil {
		t.Fatal(err)
	}
	waitEngaged(t, st)
	if err := c.Drain(5 * time.Second); err != nil {
		c.Stop()
		t.Fatalf("Drain under a clearing stall: %v", err)
	}
	// Measured from the stall's own start, not from when waitEngaged's
	// poll noticed it: the stall began before this goroutine saw it.
	elapsed := time.Since(st.started())
	c.Stop()
	if elapsed < st.dur {
		t.Errorf("drain returned %v after the stall began, before the %v stall cleared", elapsed, st.dur)
	}
	if count.Load() == 0 {
		t.Error("no messages processed")
	}
}

func TestDrainTimesOutWithDiagnosticUnderStall(t *testing.T) {
	// A stall longer than the drain budget must surface as a timeout error
	// naming the pending backlog — the diagnostic for a wedged shutdown —
	// and never hang the caller.
	var count atomic.Int64
	st := &stallOnce{dur: 2 * time.Second}
	c, err := Submit(faultTopology(50, &count), Config{Stall: st.fn})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitEngaged(t, st)
	err = c.Drain(150 * time.Millisecond)
	if err == nil {
		t.Fatal("Drain returned nil under a 2s stall with a 150ms budget")
	}
	if !strings.Contains(err.Error(), "pending") {
		t.Errorf("drain diagnostic %q does not report the pending backlog", err)
	}
}
