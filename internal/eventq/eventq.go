// Package eventq implements the discrete-event scheduler that drives every
// simulation and emulation in this repository.
//
// Time is virtual and measured in seconds (float64). Events scheduled for
// the same instant fire in scheduling order, which — together with seeded
// random streams — makes every run fully deterministic.
//
// There is one scheduling form: a static callback plus an argument,
// fn(arg). Hot callers (message delivery, protocol timeouts, periodic
// ticks) pass a package-level function and a recycled record, so a
// steady-state simulation allocates neither closures nor event structs.
// Callers that need a closure pass func(any){…} and a nil argument.
package eventq

import (
	"container/heap"
	"fmt"
	"math"
)

// event is one scheduled callback fn(arg) at virtual time at.
type event struct {
	at   float64
	seq  uint64
	fn   func(any)
	arg  any
	next *event // free-list link while recycled
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
	now       float64
	seq       uint64
	events    eventHeap
	processed uint64

	// free holds fired events for reuse, so a steady-state simulation
	// (every fired event schedules a successor) allocates no event
	// structs after warm-up. Periodic trimming (see trimFree) keeps the
	// list from pinning the high-water mark of a load spike for the rest
	// of the run.
	free    *event
	freeLen int
}

// DefaultFreeSlack is how many recycled events the free list may hold
// beyond the current pending count before trimming releases the excess to
// the GC. A small cushion avoids alloc/free churn when load oscillates;
// anything beyond it is spike residue — which matters after a join storm,
// when the pending count collapses from its burst peak.
const DefaultFreeSlack = 256

// trimInterval is how often (in processed events) the run loop checks the
// free list, as a power-of-two mask.
const trimInterval = 4096 - 1

// trimFree releases free-list entries beyond the pending count plus a
// slack cushion. Without this, a burst that grows the heap to N pins ~N
// recycled event structs for the rest of the run.
func (s *Sim) trimFree() {
	limit := len(s.events) + DefaultFreeSlack
	for s.freeLen > limit {
		e := s.free
		s.free = e.next
		e.next = nil
		s.freeLen--
	}
}

// FreeLen reports how many recycled events the free list currently holds.
func (s *Sim) FreeLen() int { return s.freeLen }

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now reports the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Processed reports how many events have fired so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet fired.
func (s *Sim) Pending() int { return len(s.events) }

// At schedules fn(arg) at absolute virtual time t, taking the next
// sequence number. The event struct comes off the free list when one is
// there. Scheduling in the past panics: that is always a protocol bug.
func (s *Sim) At(t float64, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, s.now))
	}
	e := s.free
	if e == nil {
		e = &event{}
	} else {
		s.free = e.next
		e.next = nil
		s.freeLen--
	}
	s.seq++
	e.at, e.seq, e.fn, e.arg = t, s.seq, fn, arg
	heap.Push(&s.events, e)
}

// After schedules fn(arg) d seconds from now (a negative d means now).
func (s *Sim) After(d float64, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn, arg)
}

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

// Run fires events in timestamp order until the queue is empty or the next
// event is later than until. The clock is left at until when it would
// otherwise end earlier; Run(math.Inf(1)) drains the queue.
func (s *Sim) Run(until float64) { s.RunBand(until, math.MaxUint64) }

// RunBefore fires every event strictly earlier than t and leaves the
// clock at t. It is the epoch step of the simulator: events at
// exactly t belong to the next epoch (or to the barrier band, see
// RunBand).
func (s *Sim) RunBefore(t float64) { s.RunBand(t, 0) }

// RunBand fires every event strictly earlier than t, plus the events at
// exactly t whose sequence number is below seqBelow (the setup band — see
// SetSeqBase), and leaves the clock at t. Runtime events scheduled at
// exactly t stay queued for the next epoch: setup events at an instant
// carry lower sequence numbers than anything scheduled while the run is
// in flight, so they fire first, as one Run would fire them.
//
// This is the one run loop: Run is RunBand(t, MaxUint64) and RunBefore
// is RunBand(t, 0).
func (s *Sim) RunBand(t float64, seqBelow uint64) {
	for len(s.events) > 0 {
		head := s.events[0]
		if head.at > t || (head.at == t && head.seq >= seqBelow) {
			break
		}
		heap.Pop(&s.events)
		s.now = head.at
		s.processed++
		if s.processed&trimInterval == 0 {
			s.trimFree()
		}
		// Recycle before firing, dropping the callback and argument so a
		// recycled event never pins them; the callback may then reuse the
		// struct for the event it schedules.
		fn, arg := head.fn, head.arg
		head.fn, head.arg = nil, nil
		head.next = s.free
		s.free = head
		s.freeLen++
		fn(arg)
	}
	if s.now < t {
		s.now = t
	}
	s.trimFree()
}
