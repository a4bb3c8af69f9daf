// Package eventq implements the discrete-event scheduler that drives every
// simulation and emulation in this repository.
//
// Time is virtual and measured in seconds (float64). Events scheduled for
// the same instant fire in scheduling order, which — together with seeded
// random streams — makes every run fully deterministic.
package eventq

import (
	"container/heap"
	"fmt"
)

// Event is a callback scheduled to run at a virtual time. An event holds
// either a plain callback fn or an arg-carrying callback fnArg+arg
// (scheduled via AtArg); the latter lets hot callers schedule a static
// function with a recycled argument record instead of allocating a
// closure per event.
type event struct {
	at    float64
	seq   uint64
	fn    func()
	fnArg func(any)
	arg   any
	timer bool   // arg-form event that is a timer, not a delivery
	next  *event // free-list link while recycled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a single-threaded discrete-event simulator.
// The zero value is not usable; call New.
type Sim struct {
	now          float64
	seq          uint64
	events       eventHeap
	processed    uint64
	processedArg uint64
	stopped      bool

	// free holds fired events for reuse, so a steady-state simulation
	// (every fired event schedules a successor) allocates no event
	// structs after warm-up. Periodic trimming (see trimFree) keeps the
	// list from pinning the high-water mark of a load spike for the rest
	// of the run.
	free    *event
	freeLen int

	// freeSlack overrides DefaultFreeSlack when positive (SetFreeSlack).
	freeSlack int
}

// DefaultFreeSlack is how many recycled events the free list may hold
// beyond the current pending count before trimming releases the excess to
// the GC. A small cushion avoids alloc/free churn when load oscillates;
// anything beyond it is spike residue — which matters after a join storm,
// when the pending count collapses from its burst peak.
const DefaultFreeSlack = 256

// SetFreeSlack tunes the free-list decay cap (n <= 0 restores the
// default). Large-population sessions set a tighter cap than the default
// once their join phase drains, so burst residue is returned to the GC
// instead of being pinned for the steady-state remainder of the run.
func (s *Sim) SetFreeSlack(n int) { s.freeSlack = n }

// trimInterval is how often (in processed events) the run loops check the
// free list, as a power-of-two mask.
const trimInterval = 4096 - 1

// trimFree releases free-list entries beyond the pending count plus a
// slack cushion. Without this, a burst that grows the heap to N pins ~N
// recycled event structs for the rest of the run.
func (s *Sim) trimFree() {
	slack := s.freeSlack
	if slack <= 0 {
		slack = DefaultFreeSlack
	}
	limit := len(s.events) + slack
	for s.freeLen > limit {
		e := s.free
		s.free = e.next
		e.next = nil
		s.freeLen--
	}
}

// FreeLen reports how many recycled events the free list currently holds.
func (s *Sim) FreeLen() int { return s.freeLen }

// alloc takes an event off the free list, or makes one.
func (s *Sim) alloc(at float64, fn func()) *event {
	e := s.free
	if e == nil {
		e = &event{}
	} else {
		s.free = e.next
		e.next = nil
		s.freeLen--
	}
	s.seq++
	e.at, e.seq, e.fn = at, s.seq, fn
	return e
}

// recycle puts a fired event on the free list. The callback and argument
// are dropped immediately so recycled events never pin their captures.
func (s *Sim) recycle(e *event) {
	e.fn, e.fnArg, e.arg, e.timer = nil, nil, nil, false
	e.next = s.free
	s.free = e
	s.freeLen++
}

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now reports the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Processed reports how many events have fired so far.
func (s *Sim) Processed() uint64 { return s.processed }

// ProcessedArg reports how many of the fired events were scheduled in the
// arg-carrying form (AtArg/AfterArg). Message deliveries use that form and
// timers/closures use the plain one, so the split is a cheap
// delivery-vs-timer classification for the engine profiler.
func (s *Sim) ProcessedArg() uint64 { return s.processedArg }

// Pending reports how many events are scheduled but not yet fired.
func (s *Sim) Pending() int { return len(s.events) }

// At schedules fn to run at absolute virtual time t.
// Scheduling in the past panics: that is always a protocol bug.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, s.now))
	}
	heap.Push(&s.events, s.alloc(t, fn))
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t. Passing a static
// function plus a reusable argument record avoids the per-event closure
// allocation that At's fn would cost on hot paths (message delivery
// schedules millions of events per simulated session).
func (s *Sim) AtArg(t float64, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, s.now))
	}
	e := s.alloc(t, nil)
	e.fnArg, e.arg = fn, arg
	heap.Push(&s.events, e)
}

// AfterArg schedules fn(arg) d seconds from now.
func (s *Sim) AfterArg(d float64, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.AtArg(s.now+d, fn, arg)
}

// AtTimer schedules fn(arg) at absolute time t like AtArg, but keeps the
// event out of the ProcessedArg (delivery) count: it is a timer that
// merely uses the allocation-free arg-carrying form. Protocol timeouts
// and periodic ticks use this so the engine profiler's delivery-vs-timer
// split stays truthful.
func (s *Sim) AtTimer(t float64, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, s.now))
	}
	e := s.alloc(t, nil)
	e.fnArg, e.arg, e.timer = fn, arg, true
	heap.Push(&s.events, e)
}

// AfterTimer schedules fn(arg) d seconds from now (see AtTimer).
func (s *Sim) AfterTimer(d float64, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.AtTimer(s.now+d, fn, arg)
}

// Stop aborts a Run in progress after the current event returns.
func (s *Sim) Stop() { s.stopped = true }

// SetSeqBase raises the sequence counter to at least base. The simulator
// uses this to separate "setup" events (tick starter, scripted scenario
// actions — scheduled before the run starts) from everything scheduled at
// runtime: with all setup sequence numbers below base, a barrier can fire
// exactly the setup-band events at an instant (RunBand), then run its own
// measurements before the runtime events at that instant.
func (s *Sim) SetSeqBase(base uint64) {
	if s.seq < base {
		s.seq = base
	}
}

// NextAt reports the timestamp of the earliest pending event, and whether
// one exists.
func (s *Sim) NextAt() (float64, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// fire pops and executes the head event.
func (s *Sim) fire() {
	next := heap.Pop(&s.events).(*event)
	s.now = next.at
	s.processed++
	if s.processed&trimInterval == 0 {
		s.trimFree()
	}
	fn, fnArg, arg, timer := next.fn, next.fnArg, next.arg, next.timer
	s.recycle(next)
	if fnArg != nil {
		if !timer {
			s.processedArg++
		}
		fnArg(arg)
	} else {
		fn()
	}
}

// Run fires events in timestamp order until the queue is empty or the next
// event is later than until. The clock is left at until when it would
// otherwise end earlier.
func (s *Sim) Run(until float64) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		if s.events[0].at > until {
			break
		}
		s.fire()
	}
	if s.now < until {
		s.now = until
	}
	s.trimFree()
}

// RunBefore fires every event strictly earlier than t and leaves the
// clock at t. It is the epoch step of the simulator: events at
// exactly t belong to the next epoch (or to the barrier band, see
// RunBand).
func (s *Sim) RunBefore(t float64) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		if s.events[0].at >= t {
			break
		}
		s.fire()
	}
	if s.now < t {
		s.now = t
	}
	s.trimFree()
}

// RunBand fires every event strictly earlier than t, plus the events at
// exactly t whose sequence number is below seqBelow (the setup band — see
// SetSeqBase), and leaves the clock at t. Runtime events scheduled at
// exactly t stay queued for the next epoch: setup events at an instant
// carry lower sequence numbers than anything scheduled while the run is
// in flight, so they fire first, as one Run would fire them.
func (s *Sim) RunBand(t float64, seqBelow uint64) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		head := s.events[0]
		if head.at > t || (head.at == t && head.seq >= seqBelow) {
			break
		}
		s.fire()
	}
	if s.now < t {
		s.now = t
	}
	s.trimFree()
}

// Drain runs every remaining event regardless of timestamp.
func (s *Sim) Drain() {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		s.fire()
	}
	s.trimFree()
}
