package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fastjoin/internal/xhash"
)

// LocalCluster executes a Topology in-process: every task is a goroutine
// with a bounded data queue and a priority control queue.
type LocalCluster struct {
	cfg   Config
	tasks map[string][]*task // component -> tasks

	pending    atomic.Int64 // messages enqueued but not fully processed
	spoutsLive atomic.Int64 // spout tasks still producing

	done      chan struct{} // closed on Stop: everything unblocks
	spoutStop chan struct{} // closed on Drain: spouts stop producing
	stopOnce  sync.Once
	drainOnce sync.Once
	wg        sync.WaitGroup // executor goroutines
	tickWg    sync.WaitGroup // ticker goroutines
}

// task is one running instance of a component.
type task struct {
	ctx  Context
	data chan Message
	ctrl chan Message

	spout   Spout // exactly one of spout/bolt is set
	bolt    Bolt
	flusher Flusher       // bolt's optional batch-flush hook, resolved once
	subs    []*runtimeSub // outgoing subscriptions, resolved

	processed atomic.Int64
	emitted   atomic.Int64
	panics    atomic.Int64
	// queueHW is the deepest data backlog observed at dispatch time.
	// Written only by the task's own goroutine (load-then-store is safe);
	// read concurrently by Stats.
	queueHW atomic.Int64

	collector *Collector
}

// runtimeSub is a resolved subscription: messages emitted by a source task
// on (stream) are routed to the target component's tasks.
type runtimeSub struct {
	stream  string
	kind    groupKind
	keyFn   KeyFunc
	control bool
	target  []*task
	rr      atomic.Uint64 // round-robin cursor for shuffle
}

// Submit instantiates and starts the topology on a new local cluster.
func Submit(t *Topology, cfg Config) (*LocalCluster, error) {
	if t == nil {
		return nil, fmt.Errorf("engine: nil topology")
	}
	cfg = cfg.withDefaults()
	c := &LocalCluster{
		cfg:       cfg,
		tasks:     make(map[string][]*task),
		done:      make(chan struct{}),
		spoutStop: make(chan struct{}),
	}

	// Instantiate all tasks first so subscriptions can be resolved.
	for _, sd := range t.spouts {
		tasks := make([]*task, sd.parallelism)
		for i := range tasks {
			tasks[i] = &task{
				ctx:   Context{Component: sd.name, Task: i, Parallelism: sd.parallelism},
				data:  make(chan Message, cfg.QueueSize),
				ctrl:  make(chan Message, cfg.CtrlQueueSize),
				spout: sd.factory(i),
			}
		}
		c.tasks[sd.name] = tasks
	}
	for _, bd := range t.bolts {
		tasks := make([]*task, bd.parallelism)
		for i := range tasks {
			tasks[i] = &task{
				ctx:  Context{Component: bd.name, Task: i, Parallelism: bd.parallelism},
				data: make(chan Message, cfg.QueueSize),
				ctrl: make(chan Message, cfg.CtrlQueueSize),
				bolt: bd.factory(i),
			}
			tasks[i].flusher, _ = tasks[i].bolt.(Flusher)
		}
		c.tasks[bd.name] = tasks
	}

	// Resolve subscriptions: for each source component, collect the list of
	// outgoing routes; all tasks of the source share the route table.
	routes := make(map[string][]*runtimeSub)
	for _, bd := range t.bolts {
		for _, sub := range bd.subs {
			routes[sub.source] = append(routes[sub.source], &runtimeSub{
				stream:  sub.stream,
				kind:    sub.kind,
				keyFn:   sub.keyFn,
				control: sub.control,
				target:  c.tasks[bd.name],
			})
		}
	}
	for name, tasks := range c.tasks {
		for _, tk := range tasks {
			tk.subs = routes[name]
			tk.collector = &Collector{cluster: c, task: tk}
		}
	}

	// Start executors.
	for _, sd := range t.spouts {
		for _, tk := range c.tasks[sd.name] {
			c.spoutsLive.Add(1)
			c.wg.Add(1)
			go c.runSpout(tk)
		}
	}
	for _, bd := range t.bolts {
		for _, tk := range c.tasks[bd.name] {
			c.wg.Add(1)
			go c.runBolt(tk)
		}
		if bd.tickEvery > 0 {
			for _, tk := range c.tasks[bd.name] {
				c.tickWg.Add(1)
				go c.runTicker(tk, bd.tickEvery)
			}
		}
	}
	return c, nil
}

// send enqueues m, counting it as pending. It blocks under backpressure and
// aborts (returning false) if the cluster stops.
//
//lint:hotpath
func (c *LocalCluster) send(q chan Message, m Message) bool {
	c.pending.Add(1)
	select {
	case q <- m:
		return true
	default:
	}
	select {
	case q <- m:
		return true
	case <-c.done:
		c.pending.Add(-1)
		return false
	}
}

// sendLater enqueues m after d elapses. The message counts as pending from
// the moment of scheduling — while the producer is still inside its
// lifecycle callback — so quiescence detection never observes a window in
// which a delayed message is neither pending nor queued.
func (c *LocalCluster) sendLater(q chan Message, m Message, d time.Duration) {
	c.pending.Add(1)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-c.done:
			c.pending.Add(-1)
			return
		case <-t.C:
		}
		select {
		case q <- m:
		case <-c.done:
			c.pending.Add(-1)
		}
	}()
}

// runSpout drives one spout task.
func (c *LocalCluster) runSpout(tk *task) {
	defer c.wg.Done()
	defer c.spoutsLive.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			tk.panics.Add(1)
		}
		tk.spout.Close()
	}()
	tk.spout.Open(tk.ctx, tk.collector)
	for {
		// Stop closes spoutStop before done, so this one poll covers both.
		select {
		case <-c.spoutStop:
			return
		default:
		}
		if !c.safeNext(tk) {
			return
		}
	}
}

// safeNext calls Spout.Next with panic isolation; a panic ends the spout.
func (c *LocalCluster) safeNext(tk *task) (more bool) {
	defer func() {
		if r := recover(); r != nil {
			tk.panics.Add(1)
			more = false
		}
	}()
	return tk.spout.Next(tk.collector)
}

// runBolt drives one bolt task: control messages are consumed with strict
// priority over data.
//
// The hot selects here, in runSpout and in send are single-case with a
// default. Such a select compiles to a non-blocking channel operation that
// returns without taking the channel's lock when there is nothing to do,
// whereas a multi-case select locks every channel it names. done and
// spoutStop are shared by every task, so polling them inside a multi-case
// select would serialise the whole cluster on two locks per message. Only
// a task with nothing queued (or a producer facing a full queue) blocks in
// a multi-case select.
func (c *LocalCluster) runBolt(tk *task) {
	defer c.wg.Done()
	tk.bolt.Prepare(tk.ctx, tk.collector)
	defer tk.bolt.Cleanup()
	for {
		select {
		case <-c.done:
			return
		default:
		}
		// Priority pass: drain control first if available.
		select {
		case m := <-tk.ctrl:
			c.dispatch(tk, m)
			continue
		default:
		}
		select {
		case m := <-tk.data:
			c.dispatch(tk, m)
			continue
		default:
		}
		select {
		case <-c.done:
			return
		case m := <-tk.ctrl:
			c.dispatch(tk, m)
		case m := <-tk.data:
			c.dispatch(tk, m)
		}
	}
}

// dispatch runs one message through the bolt with panic isolation and
// settles the pending count. After the bolt runs, a Flusher task whose
// data queue has drained is flushed — still under this message's pending
// count, which is what makes the quiescence invariant hold: an open batch
// can only survive dispatch if another message is queued for the task,
// so pending stays positive until the batch is delivered.
//
//lint:hotpath
func (c *LocalCluster) dispatch(tk *task, m Message) {
	defer c.pending.Add(-1)
	// Sample the backlog left behind by this dequeue. Only this goroutine
	// writes queueHW, so a plain load-compare-store needs no CAS loop, and
	// the sample costs two atomic ops — nothing on the allocation front.
	if d := int64(len(tk.data)); d > tk.queueHW.Load() {
		tk.queueHW.Store(d)
	}
	c.execute(tk, m)
	if tk.flusher != nil && len(tk.data) == 0 {
		c.flush(tk)
	}
}

// execute runs the stall hook and the bolt callback with panic isolation.
//
//lint:hotpath
func (c *LocalCluster) execute(tk *task, m Message) {
	defer func() {
		if r := recover(); r != nil {
			tk.panics.Add(1)
		}
	}()
	if c.cfg.Stall != nil && m.Stream != TickStream {
		if d := c.cfg.Stall(tk.ctx, m.Stream, m.Value); d > 0 {
			// A stalled task sleeps with the message already dequeued: the
			// pending count stays positive, so Drain waits the stall out
			// (or reports it in its timeout diagnostic) instead of
			// declaring a false quiescence.
			time.Sleep(d)
		}
	}
	tk.bolt.Execute(m, tk.collector)
	tk.processed.Add(1)
}

// flush runs a Flusher's idle flush with the same panic isolation as
// Execute, so a batch poisoned by a downstream routing fault cannot kill
// the task loop — and an Execute panic still gets its batches flushed.
func (c *LocalCluster) flush(tk *task) {
	defer func() {
		if r := recover(); r != nil {
			tk.panics.Add(1)
		}
	}()
	tk.flusher.Flush(tk.collector)
}

// runTicker delivers periodic tick messages to one task's control queue.
func (c *LocalCluster) runTicker(tk *task, every time.Duration) {
	defer c.tickWg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-c.spoutStop:
			return
		case <-ticker.C:
			m := Message{FromComp: tk.ctx.Component, FromTask: tk.ctx.Task, Stream: TickStream}
			c.pending.Add(1)
			select {
			case tk.ctrl <- m:
			default:
				// Tick queue full: skip this tick rather than block.
				c.pending.Add(-1)
			}
		}
	}
}

// route fans one emitted value out according to a subscription. The
// per-target delivery lives in the enqueueOne method (not a closure) so
// the hot emit path costs no allocation beyond the value's own boxing.
//
//lint:hotpath
func (c *LocalCluster) route(tk *task, sub *runtimeSub, value any, directTask int) {
	m := Message{
		FromComp: tk.ctx.Component,
		FromTask: tk.ctx.Task,
		Stream:   sub.stream,
		Value:    value,
	}
	n := len(sub.target)
	switch sub.kind {
	case groupShuffle:
		c.enqueueOne(tk, sub, m, sub.target[int(sub.rr.Add(1)-1)%n])
	case groupFields:
		c.enqueueOne(tk, sub, m, sub.target[xhash.Partition(sub.keyFn(value), n)])
	case groupBroadcast:
		for _, target := range sub.target {
			c.enqueueOne(tk, sub, m, target)
		}
	case groupGlobal:
		c.enqueueOne(tk, sub, m, sub.target[0])
	case groupDirect:
		if directTask < 0 || directTask >= n {
			panic(fmt.Sprintf("engine: direct emit to task %d of %d on stream %q", //lint:allow panicpath direct-emit target out of range is a routing invariant violation; recovered and counted per task
				directTask, n, sub.stream))
		}
		c.enqueueOne(tk, sub, m, sub.target[directTask])
	}
}

// enqueueOne delivers one routed message to one target task, running the
// fault injector if configured.
//
//lint:hotpath
func (c *LocalCluster) enqueueOne(tk *task, sub *runtimeSub, m Message, target *task) {
	q := target.data
	if sub.control {
		q = target.ctrl
	}
	if c.cfg.Inject != nil {
		switch d := c.cfg.Inject(target.ctx, sub.stream, sub.control, m.Value); d.Op {
		case FaultDrop:
			// Silently discarded: not pending, not counted as emitted.
			return
		case FaultDup:
			if c.send(q, m) {
				tk.emitted.Add(1)
			}
		case FaultDelay:
			c.sendLater(q, m, d.Delay)
			tk.emitted.Add(1)
			return
		}
	}
	if c.send(q, m) {
		tk.emitted.Add(1)
	}
}

// Wrong-queue note: the pending counter is only correct if every enqueue
// happens while the producing message is still being processed (or from a
// spout/ticker, which count themselves). Collector enforces this by being
// usable only inside Open/Next/Prepare/Execute.

// WaitComplete waits until every spout has exhausted naturally (Next
// returned false) and every queued message, including all transitively
// emitted ones, has been processed. Use it for batch-style runs over finite
// inputs. A zero timeout means DefaultDrainTimeout.
func (c *LocalCluster) WaitComplete(timeout time.Duration) error {
	return c.settle(timeout)
}

// Drain stops the spouts and tickers immediately, then waits until every
// in-flight message has been processed, or the timeout elapses. A zero
// timeout means DefaultDrainTimeout. Drain does not stop the bolts; call
// Stop afterwards.
func (c *LocalCluster) Drain(timeout time.Duration) error {
	c.drainOnce.Do(func() { close(c.spoutStop) })
	return c.settle(timeout)
}

// settle waits for quiescence: no live spouts and no pending messages.
func (c *LocalCluster) settle(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = DefaultDrainTimeout
	}
	deadline := time.Now().Add(timeout)
	stable := 0
	for time.Now().Before(deadline) {
		if c.spoutsLive.Load() == 0 && c.pending.Load() == 0 {
			stable++
			// Require two consecutive quiet observations to dodge the
			// window between a send's pending-increment and enqueue.
			if stable >= 2 {
				return nil
			}
		} else {
			stable = 0
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("engine: drain timed out after %v (pending=%d, spouts=%d)",
		timeout, c.pending.Load(), c.spoutsLive.Load())
}

// Stop terminates all tasks immediately. Safe to call more than once and
// after Drain. Blocks until all goroutines exit.
func (c *LocalCluster) Stop() {
	c.drainOnce.Do(func() { close(c.spoutStop) })
	c.stopOnce.Do(func() { close(c.done) })
	c.tickWg.Wait()
	c.wg.Wait()
}

// Pending returns the number of in-flight messages (for tests/diagnostics).
func (c *LocalCluster) Pending() int64 { return c.pending.Load() }

// Stats returns the current per-task statistics of one component, or nil if
// the component does not exist.
func (c *LocalCluster) Stats(component string) []TaskStats {
	tasks, ok := c.tasks[component]
	if !ok {
		return nil
	}
	out := make([]TaskStats, len(tasks))
	for i, tk := range tasks {
		out[i] = TaskStats{
			Component:      component,
			Task:           i,
			Processed:      tk.processed.Load(),
			Emitted:        tk.emitted.Load(),
			Panics:         tk.panics.Load(),
			QueueLen:       len(tk.data),
			CtrlLen:        len(tk.ctrl),
			QueueHighWater: int(tk.queueHW.Load()),
		}
	}
	return out
}

// Components returns the names of all components.
func (c *LocalCluster) Components() []string {
	out := make([]string, 0, len(c.tasks))
	for name := range c.tasks {
		out = append(out, name)
	}
	return out
}

// Collector emits values from inside a task. It is valid only within the
// lifecycle callbacks of the owning spout/bolt; emitting from outside
// goroutines corrupts the quiescence accounting.
type Collector struct {
	cluster *LocalCluster
	task    *task
}

// Context returns the owning task's context.
func (o *Collector) Context() Context { return o.task.ctx }

// QueueLen returns the current length of the owning task's data queue —
// the backlog still waiting to be processed. Join instances report it as
// part of their load statistic (the paper's φ is a queue length).
func (o *Collector) QueueLen() int { return len(o.task.data) }

// Emit sends value on stream to all non-direct subscribers.
func (o *Collector) Emit(stream string, value any) {
	for _, sub := range o.task.subs {
		if sub.stream != stream {
			continue
		}
		if sub.kind == groupDirect {
			panic(fmt.Sprintf("engine: Emit on direct stream %q; use EmitDirect", stream)) //lint:allow panicpath Emit on a direct stream is a topology programming error; recovered and counted per task
		}
		o.cluster.route(o.task, sub, value, -1)
	}
}

// EmitDirect sends value on a direct stream to a specific task of each
// subscribing component.
func (o *Collector) EmitDirect(stream string, targetTask int, value any) {
	for _, sub := range o.task.subs {
		if sub.stream != stream {
			continue
		}
		if sub.kind != groupDirect {
			panic(fmt.Sprintf("engine: EmitDirect on non-direct stream %q", stream)) //lint:allow panicpath EmitDirect on a non-direct stream is a topology programming error; recovered and counted per task
		}
		o.cluster.route(o.task, sub, value, targetTask)
	}
}
