package overlay

import (
	"sort"
	"sync"

	"vdm/internal/eventq"
	"vdm/internal/rng"
	"vdm/internal/underlay"
)

// Handler receives messages addressed to one node.
type Handler interface {
	HandleMessage(from NodeID, m Message)
}

// SendProbe observes every Send on a simulated bus, including sends the
// network subsequently drops — the profiling tap behind the simulation
// flight recorder. It runs on the hot path of every message, so
// implementations must be cheap and are per-shard (never shared across
// goroutines).
type SendProbe interface {
	ObserveSend(from, to NodeID, m Message)
}

// Keyed-draw stream ids (distinct per edge under the router's seed).
const (
	drawStreamData uint32 = 1
	drawStreamCtrl uint32 = 2
)

// edgeKey packs a directed edge for the per-edge draw counters.
func edgeKey(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// AliveAtFunc answers whether a node is registered at virtual time t.
// The simulator precomputes this from the scenario script (joins and
// leaves are the only registration changes, and a leave unregisters
// synchronously), so a sender can learn a remote destination's liveness
// without touching the destination shard.
type AliveAtFunc func(id NodeID, at float64) bool

// Router is the simulated overlay network: S shard-local buses (Network)
// over one underlay. Node id belongs to shard id mod S. Same-shard sends
// schedule directly on the shard's event queue; cross-shard sends are
// buffered in per-destination outboxes and enqueued at epoch barriers by
// Exchange, in a deterministic total order. With one shard every send is
// local and the router is a plain discrete-event network.
//
// Each message arrives one one-way delay after it was sent. Data chunks
// are subject to the underlay's end-to-end loss; control messages are
// reliable (they stand for small retransmitted TCP exchanges, as in the
// PlanetLab implementation) unless CtrlLossProb injects loss. Every draw
// decision (loss, control loss, delivery jitter) is keyed — a pure
// function of (seed, edge, per-edge send index) — which is what makes the
// event stream independent of shard interleaving. The router also keeps
// the control/data counters behind the paper's overhead metric, in the
// Counters struct it shares with the live transports.
type Router struct {
	u underlay.Underlay

	// CtrlLossProb, when positive, drops each control message with this
	// probability — fault injection for protocol-robustness tests. The
	// default 0 models control over retransmitting transport (TCP), as
	// the PlanetLab implementation ran.
	CtrlLossProb float64

	drawSeed int64
	aliveAt  AliveAtFunc
	nets     []*Network
	ctrs     Counters

	// traceMu serializes the debugging trace tap across shards. Trace
	// callbacks observe sends in real-time order, which across shards is
	// only loosely related to virtual-time order — a documented limitation
	// of tracing a multi-shard run (experiment outputs are unaffected).
	traceMu sync.Mutex
	traceFn func(at float64, from, to NodeID, m Message)

	scratch []xdelivery
}

// xdelivery is one cross-shard message awaiting exchange.
type xdelivery struct {
	at       float64 // absolute delivery time
	from, to NodeID
	m        Message
	idx      uint64 // per-source-shard send counter, for total ordering
}

// NewRouter builds the network over u with one shard per event queue in
// sims. aliveAt is the membership timeline remote liveness checks consult;
// it is never called with a single shard and may then be nil.
func NewRouter(u underlay.Underlay, drawSeed int64, sims []*eventq.Sim, aliveAt AliveAtFunc) *Router {
	r := &Router{
		u:        u,
		drawSeed: drawSeed,
		aliveAt:  aliveAt,
	}
	for i, s := range sims {
		r.nets = append(r.nets, &Network{
			r:      r,
			idx:    i,
			Sim:    s,
			outbox: make([][]xdelivery, len(sims)),
		})
	}
	return r
}

// NewNetwork builds a one-shard network over u driven by sim and returns
// its bus: every node registers there. Protocol tests and benchmarks use
// it to run peers on a plain discrete-event network.
func NewNetwork(sim *eventq.Sim, u underlay.Underlay, drawSeed int64) *Network {
	return NewRouter(u, drawSeed, []*eventq.Sim{sim}, nil).Net(0)
}

// Net returns shard i's bus.
func (r *Router) Net(i int) *Network { return r.nets[i] }

// ShardOf returns the shard that owns node id.
func (r *Router) ShardOf(id NodeID) int {
	if len(r.nets) == 1 {
		return 0 // skips the division on the one-shard hot path
	}
	return int(id) % len(r.nets)
}

// Counters returns the shared traffic counters.
func (r *Router) Counters() *Counters { return &r.ctrs }

// Overhead returns the cumulative control-to-data message ratio, the
// paper's overhead metric. It returns 0 before any data flowed.
func (r *Router) Overhead() float64 { return r.ctrs.Overhead() }

// SetTraceFn installs the debugging trace tap, which observes every send
// (including drops); it is serialized across shards.
func (r *Router) SetTraceFn(fn func(at float64, from, to NodeID, m Message)) {
	r.traceFn = fn
}

// Exchange drains every outbox into the destination shards' event queues,
// in (deliverAt, from, sendIdx) order — a total order, since a sender's
// send indices are unique. Call only at epoch barriers, with every shard
// paused: it touches all shard queues. It returns how many deliveries
// moved.
func (r *Router) Exchange() int {
	moved := 0
	for d, dst := range r.nets {
		batch := r.scratch[:0]
		for _, src := range r.nets {
			batch = append(batch, src.outbox[d]...)
			// Clear message references so the outbox backing array does
			// not pin payloads until the next exchange.
			ob := src.outbox[d]
			for i := range ob {
				ob[i].m = nil
			}
			src.outbox[d] = ob[:0]
		}
		sort.Slice(batch, func(i, j int) bool {
			if batch[i].at != batch[j].at {
				return batch[i].at < batch[j].at
			}
			if batch[i].from != batch[j].from {
				return batch[i].from < batch[j].from
			}
			return batch[i].idx < batch[j].idx
		})
		for i := range batch {
			x := &batch[i]
			dst.scheduleDelivery(x.at, x.from, x.to, x.m)
			x.m = nil
		}
		moved += len(batch)
		r.scratch = batch[:0]
	}
	return moved
}

// DiscardOutboxes drops any deliveries still buffered. The simulator calls
// it at the final barrier: deliveries past the session end never run.
func (r *Router) DiscardOutboxes() {
	for _, src := range r.nets {
		for d := range src.outbox {
			ob := src.outbox[d]
			for i := range ob {
				ob[i].m = nil
			}
			src.outbox[d] = ob[:0]
		}
	}
}

// Network is one shard's Bus. Peers owned by the shard register here;
// everything a peer does (message handling, timers) runs on the shard's
// event queue.
type Network struct {
	r   *Router
	idx int
	Sim *eventq.Sim
	// handlers is indexed by NodeID (simulated ids are dense slot
	// numbers); nil means not registered, and only slots owned by this
	// shard are ever non-nil. A slice costs 8 bytes per slot against ~50
	// per map entry and makes the delivery-path lookup a bounds check
	// instead of a hash probe.
	handlers  []Handler
	edgeDraws rng.CounterTable
	outbox    [][]xdelivery
	sendIdx   uint64
	// freeDel recycles delivery records: every Send schedules one, so
	// without reuse delivery closures dominate a session's allocations.
	freeDel *delivery
	// deliveries counts delivery events fired on this shard, dropped
	// ones included; every other event on the shard's queue is a timer.
	deliveries uint64

	// adj backs the children/fosters sets of every peer on this shard
	// (see AdjPool): one shared chunk slab instead of two maps per peer.
	// Shard-confined, so no locking.
	adj AdjPool

	// probe is this shard's profiling tap. Each shard owns a private
	// probe, so the hot path needs no locks; the controller merges them
	// at epoch barriers.
	probe SendProbe
}

var _ Bus = (*Network)(nil)

// SetSendProbe attaches (or, with nil, detaches) this shard's profiling
// tap. Call before the shard workers start, or only from the controller
// at a barrier.
func (n *Network) SetSendProbe(p SendProbe) { n.probe = p }

// delivery is one in-flight message, the recycled argument of its
// delivery event, so the hot send path allocates nothing in steady state.
type delivery struct {
	net      *Network
	from, to NodeID
	m        Message
	next     *delivery // free-list link
}

// deliver hands the message to its destination handler and recycles the
// record first, so a handler that sends more messages can reuse it
// immediately.
func deliver(a any) {
	d := a.(*delivery)
	n, from, to, m := d.net, d.from, d.to, d.m
	n.deliveries++
	d.m = nil
	d.next = n.freeDel
	n.freeDel = d
	if h := n.handler(to); h != nil {
		h.HandleMessage(from, m)
	}
}

// scheduleDelivery enqueues a delivery at absolute time at. Also used by
// Exchange (single-threaded at barriers).
func (n *Network) scheduleDelivery(at float64, from, to NodeID, m Message) {
	del := n.freeDel
	if del == nil {
		del = &delivery{net: n}
	} else {
		n.freeDel = del.next
		del.next = nil
	}
	del.from, del.to, del.m = from, to, m
	n.Sim.At(at, deliver, del)
}

// Deliveries reports how many message deliveries have fired on this
// shard, including those dropped because the destination had left. The
// engine profiler splits the queue's events into deliveries and timers
// with it.
func (n *Network) Deliveries() uint64 { return n.deliveries }

// AdjPool returns the shard-local adjacency slab peers on this bus store
// their children/fosters in.
func (n *Network) AdjPool() *AdjPool { return &n.adj }

// handler returns the handler for id, or nil.
func (n *Network) handler(id NodeID) Handler {
	if id < 0 || int(id) >= len(n.handlers) {
		return nil
	}
	return n.handlers[id]
}

// Register attaches a handler for node id (must be owned by this shard).
func (n *Network) Register(id NodeID, h Handler) {
	if int(id) >= len(n.handlers) {
		want := int(id) + 1
		if min := 2 * len(n.handlers); want < min {
			want = min
		}
		grown := make([]Handler, want)
		copy(grown, n.handlers)
		n.handlers = grown
	}
	n.handlers[id] = h
}

// Unregister removes node id; in-flight messages to it are dropped at
// delivery time.
func (n *Network) Unregister(id NodeID) {
	if id >= 0 && int(id) < len(n.handlers) {
		n.handlers[id] = nil
	}
}

// IsAlive reports whether id has a handler (local) or is alive per the
// membership timeline (remote).
func (n *Network) IsAlive(id NodeID) bool { return n.isAlive(id, n.r.ShardOf(id)) }

// isAlive is IsAlive for a node known to live on shard.
func (n *Network) isAlive(id NodeID, shard int) bool {
	if shard == n.idx {
		return n.handler(id) != nil
	}
	return n.r.aliveAt(id, n.Sim.Now())
}

// Now returns the shard's virtual time in seconds.
func (n *Network) Now() float64 { return n.Sim.Now() }

// After schedules fn(arg) on this shard d virtual seconds from now.
func (n *Network) After(d float64, fn func(any), arg any) { n.Sim.After(d, fn, arg) }

// Counters returns the router's shared traffic counters.
func (n *Network) Counters() *Counters { return &n.r.ctrs }

// Send schedules delivery of m from→to one keyed one-way delay later,
// after the trace tap, the counter bump and the keyed loss draw. It
// reports whether the destination was registered at send time (a
// transport-level failure signal, standing for a TCP reset). A remote
// destination's liveness comes from the membership timeline and its
// delivery goes to the outbox for the next exchange.
func (n *Network) Send(from, to NodeID, m Message) bool {
	r := n.r
	if r.traceFn != nil {
		r.traceMu.Lock()
		r.traceFn(n.Sim.Now(), from, to, m)
		r.traceMu.Unlock()
	}
	if n.probe != nil {
		n.probe.ObserveSend(from, to, m)
	}
	draw := n.edgeDraws.Next(edgeKey(from, to))
	if _, data := m.(DataChunk); data {
		r.ctrs.Data.Add(1)
		if rng.KeyedBool(r.drawSeed, uint64(uint32(from)), uint64(uint32(to)), drawStreamData, draw, r.u.LossRate(int(from), int(to))) {
			r.ctrs.DataDrops.Add(1)
			return true
		}
	} else {
		r.ctrs.Ctrl.Add(1)
		if r.CtrlLossProb > 0 && rng.KeyedBool(r.drawSeed, uint64(uint32(from)), uint64(uint32(to)), drawStreamCtrl, draw, r.CtrlLossProb) {
			r.ctrs.CtrlDrops.Add(1)
			return true
		}
	}
	ds := r.ShardOf(to)
	if !n.isAlive(to, ds) {
		r.ctrs.Undeliver.Add(1)
		return false
	}
	at := n.Sim.Now() + r.u.OneWayDelayMSKeyed(int(from), int(to), draw)/1000
	if ds != n.idx {
		n.outbox[ds] = append(n.outbox[ds], xdelivery{at: at, from: from, to: to, m: m, idx: n.sendIdx})
		n.sendIdx++
		return true
	}
	n.scheduleDelivery(at, from, to, m)
	return true
}
