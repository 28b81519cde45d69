package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// listSpout emits a fixed sequence of ints on stream "out".
type listSpout struct {
	values []int
	i      int
}

func (s *listSpout) Open(Context, *Collector) {}
func (s *listSpout) Next(out *Collector) bool {
	if s.i >= len(s.values) {
		return false
	}
	out.Emit("out", s.values[s.i])
	s.i++
	return true
}
func (s *listSpout) Close() {}

// sinkBolt records everything it receives.
type sinkBolt struct {
	mu       sync.Mutex
	received []Message
	cleaned  atomic.Bool
}

func (b *sinkBolt) Prepare(Context, *Collector) {}
func (b *sinkBolt) Execute(m Message, _ *Collector) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.received = append(b.received, m)
}
func (b *sinkBolt) Cleanup() { b.cleaned.Store(true) }

func (b *sinkBolt) messages() []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Message, len(b.received))
	copy(out, b.received)
	return out
}

func intsSpoutFactory(n int) SpoutFactory {
	return func(task int) Spout {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i
		}
		return &listSpout{values: vals}
	}
}

// runAndDrain submits, drains and stops, failing the test on error.
func runAndDrain(t *testing.T, topo *Topology) *LocalCluster {
	t.Helper()
	c, err := Submit(topo, Config{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.WaitComplete(10 * time.Second); err != nil {
		c.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	c.Stop()
	return c
}

func TestShuffleDeliversAllConserved(t *testing.T) {
	sinks := make([]*sinkBolt, 4)
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(1000), 1)
	b.AddBolt("sink", func(task int) Bolt {
		sinks[task] = &sinkBolt{}
		return sinks[task]
	}, 4).Shuffle("src", "out")
	runAndDrain(t, b.MustBuild())

	total := 0
	for _, s := range sinks {
		n := len(s.messages())
		total += n
		// Round-robin shuffle should be near-perfectly balanced.
		if n != 250 {
			t.Errorf("task got %d messages, want 250", n)
		}
	}
	if total != 1000 {
		t.Errorf("total = %d, want 1000 (conservation)", total)
	}
}

func TestFieldsGroupingSameKeySameTask(t *testing.T) {
	sinks := make([]*sinkBolt, 4)
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(400), 1)
	b.AddBolt("sink", func(task int) Bolt {
		sinks[task] = &sinkBolt{}
		return sinks[task]
	}, 4).Fields("src", "out", func(v any) uint64 { return uint64(v.(int) % 10) })
	runAndDrain(t, b.MustBuild())

	owner := make(map[int]int) // key -> task
	for task, s := range sinks {
		for _, m := range s.messages() {
			key := m.Value.(int) % 10
			if prev, ok := owner[key]; ok && prev != task {
				t.Fatalf("key %d delivered to tasks %d and %d", key, prev, task)
			}
			owner[key] = task
		}
	}
}

func TestBroadcastDeliversToAll(t *testing.T) {
	sinks := make([]*sinkBolt, 3)
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(100), 1)
	b.AddBolt("sink", func(task int) Bolt {
		sinks[task] = &sinkBolt{}
		return sinks[task]
	}, 3).Broadcast("src", "out")
	runAndDrain(t, b.MustBuild())

	for task, s := range sinks {
		if n := len(s.messages()); n != 100 {
			t.Errorf("task %d got %d messages, want 100", task, n)
		}
	}
}

func TestGlobalDeliversToTaskZero(t *testing.T) {
	sinks := make([]*sinkBolt, 3)
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(50), 1)
	b.AddBolt("sink", func(task int) Bolt {
		sinks[task] = &sinkBolt{}
		return sinks[task]
	}, 3).Global("src", "out")
	runAndDrain(t, b.MustBuild())

	if n := len(sinks[0].messages()); n != 50 {
		t.Errorf("task 0 got %d, want 50", n)
	}
	for task := 1; task < 3; task++ {
		if n := len(sinks[task].messages()); n != 0 {
			t.Errorf("task %d got %d, want 0", task, n)
		}
	}
}

// routerBolt forwards each int to task (value % parallelism) downstream.
type routerBolt struct{ downstreamPar int }

func (routerBolt) Prepare(Context, *Collector) {}
func (b routerBolt) Execute(m Message, out *Collector) {
	if m.Stream == TickStream {
		return
	}
	v := m.Value.(int)
	out.EmitDirect("routed", v%b.downstreamPar, v)
}
func (routerBolt) Cleanup() {}

func TestDirectGrouping(t *testing.T) {
	sinks := make([]*sinkBolt, 3)
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(99), 1)
	b.AddBolt("router", func(int) Bolt { return routerBolt{downstreamPar: 3} }, 1).
		Shuffle("src", "out")
	b.AddBolt("sink", func(task int) Bolt {
		sinks[task] = &sinkBolt{}
		return sinks[task]
	}, 3).Direct("router", "routed")
	runAndDrain(t, b.MustBuild())

	for task, s := range sinks {
		msgs := s.messages()
		if len(msgs) != 33 {
			t.Errorf("task %d got %d, want 33", task, len(msgs))
		}
		for _, m := range msgs {
			if m.Value.(int)%3 != task {
				t.Errorf("task %d received %d", task, m.Value)
			}
		}
	}
}

func TestMessageMetadata(t *testing.T) {
	sink := &sinkBolt{}
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(1), 1)
	b.AddBolt("sink", func(int) Bolt { return sink }, 1).Shuffle("src", "out")
	runAndDrain(t, b.MustBuild())

	msgs := sink.messages()
	if len(msgs) != 1 {
		t.Fatalf("got %d messages", len(msgs))
	}
	m := msgs[0]
	if m.FromComp != "src" || m.FromTask != 0 || m.Stream != "out" {
		t.Errorf("metadata = %+v", m)
	}
}

func TestMultiHopPipelineConservation(t *testing.T) {
	// src -> relay (x2 fanout) -> sink; 500 in, 1000 out.
	sink := &sinkBolt{}
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(500), 1)
	b.AddBolt("relay", func(int) Bolt {
		return execFunc(func(m Message, out *Collector) {
			out.Emit("dup", m.Value)
			out.Emit("dup", m.Value)
		})
	}, 2).Shuffle("src", "out")
	b.AddBolt("sink", func(int) Bolt { return sink }, 1).Shuffle("relay", "dup")
	runAndDrain(t, b.MustBuild())

	if n := len(sink.messages()); n != 1000 {
		t.Errorf("sink got %d, want 1000", n)
	}
}

// execFunc adapts a function to the Bolt interface.
type execFunc func(Message, *Collector)

func (execFunc) Prepare(Context, *Collector)         {}
func (f execFunc) Execute(m Message, out *Collector) { f(m, out) }
func (execFunc) Cleanup()                            {}

func TestEmitOnUnsubscribedStreamIsDropped(t *testing.T) {
	// Emitting on a stream nobody subscribed to must not wedge the drain.
	b := NewBuilder()
	b.AddSpout("src", func(int) Spout {
		return &listSpout{values: []int{1, 2, 3}}
	}, 1)
	b.AddBolt("sink", func(int) Bolt { return &sinkBolt{} }, 1).Shuffle("src", "nosuch")
	c, err := Submit(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	defer c.Stop()
	if err := c.WaitComplete(5 * time.Second); err != nil {
		t.Fatalf("WaitComplete: %v", err)
	}
}

func TestTickDelivery(t *testing.T) {
	var ticks atomic.Int64
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(0), 1)
	b.AddBolt("ticky", func(int) Bolt {
		return execFunc(func(m Message, _ *Collector) {
			if m.Stream == TickStream {
				ticks.Add(1)
			}
		})
	}, 1).Shuffle("src", "out").TickEvery(5 * time.Millisecond)
	c, err := Submit(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := c.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	c.Stop()
	if got := ticks.Load(); got < 3 {
		t.Errorf("got %d ticks, want >= 3", got)
	}
}

func TestPanicIsolation(t *testing.T) {
	sink := &sinkBolt{}
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(10), 1)
	b.AddBolt("flaky", func(int) Bolt {
		return execFunc(func(m Message, out *Collector) {
			if m.Value.(int) == 3 {
				panic("injected failure")
			}
			out.Emit("ok", m.Value)
		})
	}, 1).Shuffle("src", "out")
	b.AddBolt("sink", func(int) Bolt { return sink }, 1).Shuffle("flaky", "ok")
	c := runAndDrain(t, b.MustBuild())

	if n := len(sink.messages()); n != 9 {
		t.Errorf("sink got %d, want 9 (one poisoned message dropped)", n)
	}
	stats := c.Stats("flaky")
	if stats[0].Panics != 1 {
		t.Errorf("panics = %d, want 1", stats[0].Panics)
	}
}

func TestSpoutPanicEndsSpout(t *testing.T) {
	b := NewBuilder()
	b.AddSpout("src", func(int) Spout {
		return panicSpout{}
	}, 1)
	b.AddBolt("sink", func(int) Bolt { return &sinkBolt{} }, 1).Shuffle("src", "out")
	c, err := Submit(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	defer c.Stop()
	if err := c.WaitComplete(5 * time.Second); err != nil {
		t.Fatalf("WaitComplete after spout panic: %v", err)
	}
	if got := c.Stats("src")[0].Panics; got != 1 {
		t.Errorf("spout panics = %d, want 1", got)
	}
}

type panicSpout struct{}

func (panicSpout) Open(Context, *Collector) {}
func (panicSpout) Next(*Collector) bool     { panic("spout failure") }
func (panicSpout) Close()                   {}

func TestStatsAndComponents(t *testing.T) {
	sink := &sinkBolt{}
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(20), 1)
	b.AddBolt("sink", func(int) Bolt { return sink }, 2).Shuffle("src", "out")
	c := runAndDrain(t, b.MustBuild())

	stats := c.Stats("sink")
	if len(stats) != 2 {
		t.Fatalf("stats len = %d", len(stats))
	}
	var processed int64
	for _, s := range stats {
		processed += s.Processed
	}
	if processed != 20 {
		t.Errorf("processed = %d, want 20", processed)
	}
	if c.Stats("ghost") != nil {
		t.Error("Stats of unknown component should be nil")
	}
	comps := c.Components()
	if len(comps) != 2 {
		t.Errorf("components = %v", comps)
	}
	src := c.Stats("src")
	if src[0].Emitted != 20 {
		t.Errorf("spout emitted = %d, want 20", src[0].Emitted)
	}
}

func TestCleanupCalledOnStop(t *testing.T) {
	sink := &sinkBolt{}
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(5), 1)
	b.AddBolt("sink", func(int) Bolt { return sink }, 1).Shuffle("src", "out")
	runAndDrain(t, b.MustBuild())
	if !sink.cleaned.Load() {
		t.Error("Cleanup not called on Stop")
	}
}

func TestStopIdempotent(t *testing.T) {
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(5), 1)
	b.AddBolt("sink", func(int) Bolt { return &sinkBolt{} }, 1).Shuffle("src", "out")
	c, err := Submit(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	c.Stop()
	c.Stop() // must not panic or deadlock
}

func TestStopUnblocksBackpressuredSenders(t *testing.T) {
	// A tiny queue and a slow sink: the spout will block on send; Stop must
	// still terminate everything.
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(100000), 1)
	b.AddBolt("slow", func(int) Bolt {
		return execFunc(func(Message, *Collector) { time.Sleep(time.Millisecond) })
	}, 1).Shuffle("src", "out")
	c, err := Submit(b.MustBuild(), Config{QueueSize: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
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
		t.Fatal("Stop did not unblock backpressured senders")
	}
}

// holdBolt records the streams it executes, in order, and holds its first
// message until release is closed, so a test can build a backlog behind it.
type holdBolt struct {
	entered chan struct{} // closed once the first message is executing
	release chan struct{}
	mu      sync.Mutex
	order   []string
}

func newHoldBolt() *holdBolt {
	return &holdBolt{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *holdBolt) Prepare(Context, *Collector) {}
func (b *holdBolt) Execute(m Message, _ *Collector) {
	b.mu.Lock()
	b.order = append(b.order, m.Stream)
	first := len(b.order) == 1
	b.mu.Unlock()
	if first {
		close(b.entered)
		<-b.release
	}
}
func (b *holdBolt) Cleanup() {}

func (b *holdBolt) seen() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStopSkipsBacklog: a producer is blocked on a full queue while the
// bolt still has a backlog. Stop must unblock the producer and return as
// soon as the bolt's current message finishes: the bolt checks done
// before each dequeue, so none of the backlog runs after Stop.
func TestStopSkipsBacklog(t *testing.T) {
	const queue = 8
	bolt := newHoldBolt()
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(1000), 1)
	b.AddBolt("op", func(int) Bolt { return bolt }, 1).Shuffle("src", "out")
	c, err := Submit(b.MustBuild(), Config{QueueSize: queue})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-bolt.entered
	waitFor(t, "a full queue", func() bool { return c.Stats("op")[0].QueueLen == queue })

	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	// The spout can only leave its blocked send through done, so once it
	// has exited, done is closed.
	waitFor(t, "the blocked producer to exit", func() bool { return c.spoutsLive.Load() == 0 })
	close(bolt.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
	if got := len(bolt.seen()); got != 1 {
		t.Errorf("bolt executed %d messages, want 1: the backlog ran after Stop", got)
	}
}

// TestControlPriority: a control message queued behind a data backlog is
// the very next message the bolt executes.
func TestControlPriority(t *testing.T) {
	const backlog = 7
	bolt := newHoldBolt()
	emit := make(chan struct{})
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(backlog+1), 1)
	b.AddSpout("ctlsrc", func(int) Spout { return &signalSpout{emit: emit} }, 1)
	b.AddBolt("op", func(int) Bolt { return bolt }, 1).
		Shuffle("src", "out").
		GlobalCtrl("ctlsrc", "ctl")
	c, err := Submit(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	defer c.Stop()
	<-bolt.entered
	waitFor(t, "the data backlog", func() bool { return c.Stats("op")[0].QueueLen == backlog })
	close(emit)
	waitFor(t, "the queued control message", func() bool { return c.Stats("op")[0].CtrlLen == 1 })
	close(bolt.release)
	if err := c.WaitComplete(5 * time.Second); err != nil {
		t.Fatalf("WaitComplete: %v", err)
	}
	order := bolt.seen()
	if len(order) != backlog+2 || order[0] != "out" || order[1] != "ctl" {
		t.Errorf("execution order %v: want the control message right after the held data message", order)
	}
}

// signalSpout emits one value on "ctl" once emit is closed.
type signalSpout struct {
	emit chan struct{}
	sent bool
}

func (s *signalSpout) Open(Context, *Collector) {}
func (s *signalSpout) Next(out *Collector) bool {
	if s.sent {
		return false
	}
	<-s.emit
	out.Emit("ctl", "go")
	s.sent = true
	return true
}
func (s *signalSpout) Close() {}

func TestEmitOnDirectStreamPanics(t *testing.T) {
	b := NewBuilder()
	b.AddSpout("src", func(int) Spout { return &badEmitSpout{} }, 1)
	b.AddBolt("sink", func(int) Bolt { return &sinkBolt{} }, 1).Direct("src", "out")
	c, err := Submit(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	defer c.Stop()
	if err := c.WaitComplete(5 * time.Second); err != nil {
		t.Fatalf("WaitComplete: %v", err)
	}
	// The bad Emit panicked inside the spout; the panic is isolated.
	if got := c.Stats("src")[0].Panics; got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
}

type badEmitSpout struct{ done bool }

func (s *badEmitSpout) Open(Context, *Collector) {}
func (s *badEmitSpout) Next(out *Collector) bool {
	if s.done {
		return false
	}
	s.done = true
	out.Emit("out", 1) // wrong: direct stream requires EmitDirect
	return true
}
func (s *badEmitSpout) Close() {}

func TestSubmitNilTopology(t *testing.T) {
	if _, err := Submit(nil, Config{}); err == nil {
		t.Error("Submit(nil) should error")
	}
}

func TestDrainTimeout(t *testing.T) {
	// A bolt that never finishes processing: drain must time out, not hang.
	block := make(chan struct{})
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(10), 1)
	b.AddBolt("stuck", func(int) Bolt {
		return execFunc(func(Message, *Collector) { <-block })
	}, 1).Shuffle("src", "out")
	c, err := Submit(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let the spout enqueue work first
	if err := c.Drain(50 * time.Millisecond); err == nil {
		t.Error("Drain should time out when a bolt is stuck")
	}
	close(block)
	c.Stop()
}

func TestMultipleSpoutTasks(t *testing.T) {
	sink := &sinkBolt{}
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(100), 4) // 4 tasks x 100 values
	b.AddBolt("sink", func(int) Bolt { return sink }, 1).Shuffle("src", "out")
	runAndDrain(t, b.MustBuild())
	if n := len(sink.messages()); n != 400 {
		t.Errorf("sink got %d, want 400", n)
	}
}

func TestCollectorContext(t *testing.T) {
	var mu sync.Mutex
	var got []Context
	b := NewBuilder()
	b.AddSpout("src", intsSpoutFactory(1), 1)
	b.AddBolt("op", func(int) Bolt {
		return prepFunc(func(ctx Context, out *Collector) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, out.Context())
		})
	}, 3).Shuffle("src", "out")
	runAndDrain(t, b.MustBuild())
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("prepared %d tasks, want 3", len(got))
	}
	for _, ctx := range got {
		if ctx.Component != "op" || ctx.Parallelism != 3 {
			t.Errorf("collector context = %+v", ctx)
		}
	}
}

// prepFunc is a bolt that only records Prepare.
type prepFunc func(Context, *Collector)

func (f prepFunc) Prepare(ctx Context, out *Collector) { f(ctx, out) }
func (prepFunc) Execute(Message, *Collector)           {}
func (prepFunc) Cleanup()                              {}
