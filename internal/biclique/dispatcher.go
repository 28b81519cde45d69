package biclique

import (
	"slices"

	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/routing"
	"fastjoin/internal/stream"
)

// shufflerBolt is the pre-processing unit of the dispatching component
// (§III-A): it stamps event time on tuples that lack one, applies the
// user-defined pre-processing function if configured, and forwards the
// tuples to the dispatcher task owning the tuple's key. The key→task
// mapping lives here (not in an engine grouping) so that the bolt can
// accumulate a per-dispatcher lane and ship it as one ShuffleBatch; all
// traffic of one key flows through a single dispatcher task in arrival
// order.
type shufflerBolt struct {
	pre   func(stream.Tuple) stream.Tuple
	batch int
	// lanes holds the open batch of each dispatcher task; nil when empty.
	lanes []*ShuffleBatch
}

func newShufflerFactory(cfg *Config) engine.BoltFactory {
	return func(int) engine.Bolt {
		return &shufflerBolt{
			pre:   cfg.PreProcess,
			batch: cfg.BatchSize,
			lanes: make([]*ShuffleBatch, cfg.Dispatchers),
		}
	}
}

func (b *shufflerBolt) Prepare(engine.Context, *engine.Collector) {}

func (b *shufflerBolt) Execute(m engine.Message, out *engine.Collector) {
	if m.Stream == engine.TickStream {
		b.flushAll(out) // linger expired
		return
	}
	t, ok := m.Value.(stream.Tuple)
	if !ok {
		return
	}
	if b.pre != nil {
		t = b.pre(t)
	}
	if t.EventTime == 0 {
		t.EventTime = stream.Now()
	}
	target := int(uint64(t.Key) % uint64(len(b.lanes)))
	lb := b.lanes[target]
	if lb == nil {
		lb = getShuffleBatch()
		b.lanes[target] = lb
	}
	lb.Tuples = append(lb.Tuples, t)
	if len(lb.Tuples) >= b.batch {
		b.flushShuffleLane(target, out)
	}
}

// flushShuffleLane hands one lane's open batch to its dispatcher task,
// which recycles it.
func (b *shufflerBolt) flushShuffleLane(target int, out *engine.Collector) {
	if lb := b.lanes[target]; lb != nil {
		b.lanes[target] = nil
		out.EmitDirect(streamTuples, target, lb)
	}
}

func (b *shufflerBolt) flushAll(out *engine.Collector) {
	for target := range b.lanes {
		b.flushShuffleLane(target, out)
	}
}

// Flush implements engine.Flusher (see the invariant note there): no
// shuffle batch is left open while the system quiesces.
func (b *shufflerBolt) Flush(out *engine.Collector) { b.flushAll(out) }

func (b *shufflerBolt) Cleanup() {}

// dispatcherBolt routes every tuple twice: a store copy to the owner
// instance in the tuple's own side group and probe copies to the opposite
// group per the strategy. It maintains the routing table that FastJoin's
// migrations rewrite, acking every update back with a marker.
//
// Routed tuples accumulate per (side, target) lane and travel as one
// TupleBatch message once the lane holds Config.BatchSize tuples, a
// linger tick fires, or the engine's idle flush runs (the task's data
// queue drained). Lane order is preserved — a batch is one channel send
// carrying the lane's tuples in routing order — and every mark goes
// through fence, which flushes the lanes first (DESIGN.md "Lane
// fencing").
type dispatcherBolt struct {
	cfg    *Config
	router routing.Router
	met    *SystemMetrics
	// split is the task's hot-key splitting state (see split.go), nil
	// unless Config.Split.Threshold is set.
	split *splitTable
	ctx   engine.Context
	buf   []int // reusable probe-target buffer
	// seq numbers every routed tuple; see TupleMsg.Seq.
	seq uint64
	// applied orders routing updates per migration source so a delayed
	// stale update (e.g. a forward update overtaken by its own revert)
	// cannot rewind the table. Re-deliveries of the newest update are
	// re-applied (idempotent) and re-acked, which is what recovers
	// dropped markers.
	applied map[updateKey]uint64
	// lanes holds the open batch of each (side, joiner-task) pair; nil
	// when empty.
	lanes [2][]*TupleBatch
	// fenceTo is fence's reusable target buffer.
	fenceTo []int
}

// updateKey identifies the update stream of one migration source.
type updateKey struct {
	side   stream.Side
	source int
}

// updateOrd totally orders one source's updates: the revert of an epoch
// supersedes its forward update, and the next epoch supersedes both.
func updateOrd(u RouteUpdate) uint64 {
	ord := u.Epoch * 2
	if u.Revert {
		ord++
	}
	return ord
}

func newDispatcherBolt(cfg *Config, met *SystemMetrics) engine.BoltFactory {
	return func(task int) engine.Bolt {
		return &dispatcherBolt{cfg: cfg, met: met, router: newRouter(cfg, task), split: newSplitTable(cfg)}
	}
}

func (b *dispatcherBolt) Prepare(ctx engine.Context, _ *engine.Collector) {
	b.ctx = ctx
	b.lanes[stream.R] = make([]*TupleBatch, b.cfg.JoinersPerSide)
	b.lanes[stream.S] = make([]*TupleBatch, b.cfg.JoinersPerSide)
}

//lint:hotpath
func (b *dispatcherBolt) Execute(m engine.Message, out *engine.Collector) {
	switch v := m.Value.(type) {
	case *ShuffleBatch:
		// One clock read per delivered batch. It is taken before any of
		// the batch's tuples is routed, so a stamp is never later than a
		// per-tuple read would be and the joiner's latency stays an upper
		// bound.
		now := stream.Now()
		for i := range v.Tuples {
			b.routeTuple(v.Tuples[i], now, out)
		}
		putShuffleBatch(v)
	case RouteUpdate:
		if b.applied == nil {
			b.applied = make(map[updateKey]uint64)
		}
		k := updateKey{side: v.Side, source: v.Source}
		ord := updateOrd(v)
		if ord < b.applied[k] {
			return // stale: a newer update from this source already applied
		}
		// First sighting of this update (re-deliveries re-apply and re-ack
		// but are not re-traced).
		first := ord > b.applied[k]
		b.applied[k] = ord
		b.router.ApplyUpdate(v.Side, b.filterFrozenKeys(v.Keys), v.NewOwner)
		if first {
			b.cfg.Tracer.Emit(obs.Event{
				Kind:       obs.KindRouteApplied,
				Span:       obs.NewSpanID(uint8(v.Side), v.Source, v.Epoch),
				Side:       uint8(v.Side),
				Instance:   b.ctx.Task,
				Dispatcher: b.ctx.Task,
				Source:     v.Source,
				Target:     v.NewOwner,
				Epoch:      v.Epoch,
				Keys:       len(v.Keys),
				Revert:     v.Revert,
			})
		}
		// The marker fences the instance waiting on the handshake (source
		// for forward updates, target for reverts): proof that no tuple
		// this task routed there before the update remains in flight. A
		// revert fences the source too: it replays the merged buffers only
		// after ITS lanes are clean, since the forward markers that would
		// have fenced them are the very messages whose loss triggered the
		// abort.
		b.fenceTo = append(b.fenceTo[:0], v.MarkerTo)
		if v.Revert {
			b.fenceTo = append(b.fenceTo, v.Source)
		}
		b.fence(v.Side, Marker{
			Side:           v.Side,
			DispatcherTask: b.ctx.Task,
			Origin:         v.Source,
			Epoch:          v.Epoch,
			Revert:         v.Revert,
		}, b.fenceTo, out)
	case SplitAck:
		b.handleSplitAck(v, out)
	case SplitDrained:
		b.handleSplitDrained(v, out)
	default:
		if m.Stream == engine.TickStream {
			// Linger expired: ship whatever the lanes hold.
			b.flushAll(out)
		}
	}
}

// routeTuple sends the store copy and the probe copies, stamped now.
//
//lint:hotpath
func (b *dispatcherBolt) routeTuple(t stream.Tuple, now int64, out *engine.Collector) {
	b.seq++
	ownSide, oppSide := t.Side, t.Side.Opposite()

	if b.split != nil {
		// Feed the detector before emitting, so an activation triggered by
		// this very tuple fences the lanes ahead of it.
		b.observeSplit(t.Key, out)
		if e := b.splitLookup(t.Key); e != nil {
			b.routeSplit(t, e, now, out)
			return
		}
	}

	// Store in the tuple's own group.
	storeAt := b.router.StoreTarget(ownSide, t.Key)
	b.emitTuple(ownSide, storeAt, TupleMsg{T: t, Op: OpStore, SentAt: now, Seq: b.seq}, out)

	// Probe the opposite group: the tuple joins against the other stream's
	// stored tuples, then is discarded there.
	b.buf = b.router.ProbeTargets(oppSide, t.Key, b.buf[:0])
	for _, target := range b.buf {
		b.emitTuple(oppSide, target, TupleMsg{T: t, Op: OpProbe, SentAt: now, Seq: b.seq}, out)
	}
}

// emitTuple adds one routed tuple to its lane's open batch, flushing the
// batch at capacity.
//
//lint:hotpath
func (b *dispatcherBolt) emitTuple(side stream.Side, target int, tm TupleMsg, out *engine.Collector) {
	lb := b.lanes[side][target]
	if lb == nil {
		lb = getTupleBatch()
		b.lanes[side][target] = lb
	}
	lb.Msgs = append(lb.Msgs, tm)
	if len(lb.Msgs) >= b.cfg.BatchSize {
		b.flushLane(side, target, out)
	}
}

// flushLane emits one lane's open batch as a single TupleBatch message,
// handing it to the joiner, which recycles it.
func (b *dispatcherBolt) flushLane(side stream.Side, target int, out *engine.Collector) {
	if lb := b.lanes[side][target]; lb != nil {
		b.lanes[side][target] = nil
		out.EmitDirect(tupleStream(side), target, lb)
	}
}

// flushAll drains every open lane batch.
func (b *dispatcherBolt) flushAll(out *engine.Collector) {
	for side := range b.lanes {
		for target := range b.lanes[side] {
			b.flushLane(stream.Side(side), target, out)
		}
	}
}

// fence flushes every open lane batch, then emits mark on side's data
// lane once to each distinct instance in targets, so on each of those
// lanes the mark rides behind every tuple this task routed before it
// (DESIGN.md "Lane fencing"). Every mark type passed here is registered
// in ChaosClassify.
func (b *dispatcherBolt) fence(side stream.Side, mark any, targets []int, out *engine.Collector) {
	b.flushAll(out)
	for i, target := range targets {
		if !slices.Contains(targets[:i], target) {
			out.EmitDirect(tupleStream(side), target, mark)
		}
	}
}

// Flush implements engine.Flusher: the engine calls it whenever this
// task's data queue drains, so a batch is never left open while the
// system quiesces (see the invariant note on engine.Flusher).
func (b *dispatcherBolt) Flush(out *engine.Collector) { b.flushAll(out) }

func (b *dispatcherBolt) Cleanup() {}
