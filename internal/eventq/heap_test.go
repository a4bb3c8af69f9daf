package eventq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// queue is the scheduling surface the differential test drives: Sim and
// the reference refQueue both implement it.
type queue interface {
	At(t float64, fn func(any), arg any)
	RunBand(t float64, seqBelow uint64)
	SetSeqBase(base uint64)
	Now() float64
}

// refQueue is the reference scheduler: an unordered slice scanned for the
// (at, seq) minimum on every step.
type refQueue struct {
	now     float64
	seq     uint64
	pending []refEvent
}

type refEvent struct {
	at  float64
	seq uint64
	fn  func(any)
	arg any
}

func (q *refQueue) At(t float64, fn func(any), arg any) {
	q.seq++
	q.pending = append(q.pending, refEvent{t, q.seq, fn, arg})
}

func (q *refQueue) SetSeqBase(base uint64) {
	if q.seq < base {
		q.seq = base
	}
}

func (q *refQueue) Now() float64 { return q.now }

func (q *refQueue) RunBand(t float64, seqBelow uint64) {
	for len(q.pending) > 0 {
		m := 0
		for i, e := range q.pending {
			if e.at < q.pending[m].at || (e.at == q.pending[m].at && e.seq < q.pending[m].seq) {
				m = i
			}
		}
		e := q.pending[m]
		if e.at > t || (e.at == t && e.seq >= seqBelow) {
			break
		}
		q.pending = append(q.pending[:m], q.pending[m+1:]...)
		q.now = e.at
		e.fn(e.arg)
	}
	if q.now < t {
		q.now = t
	}
}

// mix is a splitmix64 finalizer: callbacks derive their children from
// their own id, so both queues see the same schedule whatever order they
// fire in.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

type fired struct {
	id int
	at float64
}

// drive runs one seeded script against q: batches of events on a coarse
// time grid (so many share an instant), callbacks that schedule children
// at the same instant or a little later, seq-base raises, and band cuts
// at every kind of boundary. It returns the fire log.
func drive(q queue, seed int64) []fired {
	rnd := rand.New(rand.NewSource(seed))
	var log []fired
	next := 0
	var fire func(arg any)
	fire = func(arg any) {
		id := arg.(int)
		log = append(log, fired{id, q.Now()})
		h := mix(uint64(id))
		for c := uint64(0); c < h%3 && next < 4000; c++ {
			d := float64(h >> (8 + 4*c) % 4) // 0 schedules at the current instant
			if h>>(20+c)&1 == 1 {
				d += 0.5
			}
			next++
			q.At(q.Now()+d, fire, next)
		}
	}
	for phase := 0; phase < 40; phase++ {
		for i, n := 0, rnd.Intn(40); i < n; i++ {
			next++
			q.At(q.Now()+float64(rnd.Intn(6)), fire, next)
		}
		base := uint64(phase+1) << 32
		if rnd.Intn(2) == 0 {
			q.SetSeqBase(base)
		}
		t := q.Now() + float64(rnd.Intn(4))
		var seqBelow uint64
		switch rnd.Intn(3) {
		case 0:
			seqBelow = 0
		case 1:
			seqBelow = base
		default:
			seqBelow = math.MaxUint64
		}
		q.RunBand(t, seqBelow)
	}
	q.RunBand(math.Inf(1), math.MaxUint64)
	return log
}

// TestDifferentialAgainstReferenceSort checks, over seeded scripts full
// of equal timestamps, events scheduled while firing and band cuts, that
// the heap fires exactly what a (at, seq) reference sort fires, in the
// same order.
func TestDifferentialAgainstReferenceSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := drive(New(), seed)
		want := drive(&refQueue{}, seed)
		if len(got) < 1000 {
			t.Fatalf("seed %d: only %d events fired; the script exercises too little", seed, len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: heap fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// checkHeap reports whether every key orders no earlier than its parent.
func checkHeap(h []key) bool {
	for i := 1; i < len(h); i++ {
		if less(h[i], h[(i-1)/4]) {
			return false
		}
	}
	return true
}

// Property: the 4-ary heap invariant holds after every push and pop, and
// every pop returns a key no later than any key still queued.
func TestPropertyHeapInvariant(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		var pushed, popped uint64
		pop := func() bool {
			k := s.pop()
			popped++
			return checkHeap(s.heap) && (len(s.heap) == 0 || !less(s.heap[0], k))
		}
		for _, op := range ops {
			if op%3 != 0 || len(s.heap) == 0 {
				pushed++
				s.push(key{at: float64(rnd.Intn(8)), seq: pushed})
				if !checkHeap(s.heap) {
					return false
				}
			} else if !pop() {
				return false
			}
		}
		for len(s.heap) > 0 {
			if !pop() {
				return false
			}
		}
		return popped == pushed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
