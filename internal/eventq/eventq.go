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
// steady-state simulation allocates neither closures nor queue entries.
// Callers that need a closure pass func(any){…} and a nil argument.
//
// The queue is a 4-ary min-heap of value keys {at, seq, slot} ordered by
// (at, seq). A key's slot indexes a slab of {fn, arg} records; fired
// records are cleared and their slots go on a free-slot stack for the next
// event to reuse. Sifts compare keys in place — no interface calls and no
// pointer chasing — and a slot never affects the order, so slab
// compaction (see compact) can renumber slots without moving any event.
package eventq

import (
	"fmt"
	"math"
)

// key is one pending event's place in the heap: its firing time, its
// tie-breaking sequence number and the slab slot holding its callback.
type key struct {
	at   float64
	seq  uint64
	slot uint32
}

// less orders keys by (at, seq); seq is unique, so the order is total.
func less(a, b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// record is the callback fn(arg) of one scheduled event.
type record struct {
	fn  func(any)
	arg any
}

// Sim is a single-threaded discrete-event simulator.
// The zero value is not usable; call New.
type Sim struct {
	now       float64
	seq       uint64
	heap      []key // 4-ary min-heap: children of i are 4i+1 … 4i+4
	processed uint64

	// recs is the record slab and free the stack of its unused slots, so
	// a steady-state simulation (every fired event schedules a successor)
	// allocates nothing after warm-up. Periodic compaction keeps the slab
	// from pinning the high-water mark of a load spike for the rest of
	// the run.
	recs []record
	free []uint32
}

// DefaultFreeSlack is how many free record slots the slab may hold beyond
// the current pending count before compaction releases the excess to the
// GC. A small cushion avoids alloc/free churn when load oscillates;
// anything beyond it is spike residue — which matters after a join storm,
// when the pending count collapses from its burst peak.
const DefaultFreeSlack = 256

// compactInterval is how often (in processed events) the run loop checks
// the slab, as a power-of-two mask.
const compactInterval = 4096 - 1

// compact moves the pending records into a fresh dense slab with room for
// DefaultFreeSlack more, rewriting each key's slot, once the free slots
// exceed the pending count plus that cushion. Without this, a burst that
// grows the queue to N pins N records, N heap keys and an N-slot free
// stack for the rest of the run. The heap is rebuilt in the same pass at
// the same positions: (at, seq) is untouched, so the heap order holds.
func (s *Sim) compact() {
	n := len(s.heap)
	if len(s.free) <= n+DefaultFreeSlack {
		return
	}
	recs := make([]record, n, n+DefaultFreeSlack)
	h := make([]key, n, n+DefaultFreeSlack)
	for i, k := range s.heap {
		recs[i] = s.recs[k.slot]
		k.slot = uint32(i)
		h[i] = k
	}
	s.recs, s.heap, s.free = recs, h, nil
}

// FreeLen reports how many free record slots the slab currently holds.
func (s *Sim) FreeLen() int { return len(s.free) }

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now reports the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Processed reports how many events have fired so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet fired.
func (s *Sim) Pending() int { return len(s.heap) }

// At schedules fn(arg) at absolute virtual time t, taking the next
// sequence number. The record takes a free slab slot when one is there.
// Scheduling in the past or at a NaN time panics: that is always a
// protocol bug, and a NaN key would break the heap order for every later
// event.
func (s *Sim) At(t float64, fn func(any), arg any) {
	if !(t >= s.now) {
		if math.IsNaN(t) {
			panic("eventq: scheduling at NaN")
		}
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, s.now))
	}
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.recs[slot] = record{fn, arg}
	} else {
		slot = uint32(len(s.recs))
		s.recs = append(s.recs, record{fn, arg})
	}
	s.seq++
	s.push(key{t, s.seq, slot})
}

// push adds k to the heap, sifting the hole at the end up to k's place.
func (s *Sim) push(k key) {
	h := append(s.heap, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(k, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	s.heap = h
}

// pop removes the heap's minimum (the heap must not be empty), sifting the
// hole at the root down to where the last key belongs.
func (s *Sim) pop() key {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	s.heap = h
	return top
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
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
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
	for len(s.heap) > 0 {
		head := s.heap[0]
		if head.at > t || (head.at == t && head.seq >= seqBelow) {
			break
		}
		s.pop()
		s.now = head.at
		// Free the slot before firing, clearing the record so a free slot
		// never pins a callback or argument; the callback may then reuse
		// the slot for the event it schedules.
		r := s.recs[head.slot]
		s.recs[head.slot] = record{}
		s.free = append(s.free, head.slot)
		s.processed++
		if s.processed&compactInterval == 0 {
			s.compact()
		}
		r.fn(r.arg)
	}
	if s.now < t {
		s.now = t
	}
	s.compact()
}
