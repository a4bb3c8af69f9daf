package eventq

import (
	"math"
	"testing"
)

func TestRunBeforeExcludesBoundary(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{1, 2, 3, 3, 4} {
		at := at
		s.At(at, func(any) { got = append(got, at) }, nil)
	}
	s.RunBefore(3)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("RunBefore(3) fired %v, want [1 2]", got)
	}
	if s.Now() != 3 {
		t.Fatalf("clock at %v, want 3", s.Now())
	}
	if s.Pending() != 3 {
		t.Fatalf("%d pending, want 3", s.Pending())
	}
	// Scheduling at exactly now must still be legal after the clock moved.
	s.At(3, func(any) { got = append(got, 3.5) }, nil)
}

func TestRunBandFiresSetupBandOnly(t *testing.T) {
	s := New()
	var got []string
	s.At(5, func(any) { got = append(got, "setup-a") }, nil)
	s.At(5, func(any) { got = append(got, "setup-b") }, nil)
	s.At(2, func(any) { got = append(got, "early") }, nil)
	s.SetSeqBase(1 << 40)
	s.At(5, func(any) { got = append(got, "runtime") }, nil)

	s.RunBand(5, 1<<40)
	want := []string{"early", "setup-a", "setup-b"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if s.Pending() != 1 {
		t.Fatalf("%d pending, want the runtime event", s.Pending())
	}
	s.Run(5)
	if got[len(got)-1] != "runtime" {
		t.Fatalf("runtime event did not fire on the inclusive run: %v", got)
	}
}

func TestNextAt(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt reported an event on an empty queue")
	}
	s.At(7, func(any) {}, nil)
	s.At(3, func(any) {}, nil)
	if at, ok := s.NextAt(); !ok || at != 3 {
		t.Fatalf("NextAt = %v, %v; want 3, true", at, ok)
	}
}

func TestSetSeqBaseOnlyRaises(t *testing.T) {
	s := New()
	s.SetSeqBase(100)
	s.SetSeqBase(50) // must not lower
	var got []int
	s.At(1, func(any) { got = append(got, 1) }, nil) // seq ≥ 101
	s.RunBand(1, 100)
	if len(got) != 0 {
		t.Fatal("event below a lowered seq base fired inside the band")
	}
	s.Run(1)
	if len(got) != 1 {
		t.Fatal("event never fired")
	}
}

// TestFreeListShrinksAfterSpike pins the fix for unbounded slab
// retention: a burst that grows the queue must not pin its high-water mark
// of free record slots for the rest of the run.
func TestFreeListShrinksAfterSpike(t *testing.T) {
	s := New()
	const spike = 50000
	for i := 0; i < spike; i++ {
		s.At(float64(i), func(any) {}, nil)
	}
	s.Run(math.Inf(1))
	if got := s.FreeLen(); got > DefaultFreeSlack {
		t.Fatalf("slab holds %d free slots after the spike drained, want ≤ %d", got, DefaultFreeSlack)
	}
	if got := cap(s.recs); got > DefaultFreeSlack {
		t.Fatalf("slab keeps room for %d records after the spike drained, want ≤ %d", got, DefaultFreeSlack)
	}

	// Steady state afterwards still reuses slots rather than allocating:
	// a self-rescheduling chain keeps the stack near its small cushion.
	n := 0
	var tick func(any)
	tick = func(any) {
		n++
		if n < 10000 {
			s.After(1, tick, nil)
		}
	}
	s.After(1, tick, nil)
	s.Run(math.Inf(1))
	if got := s.FreeLen(); got > DefaultFreeSlack {
		t.Fatalf("free slots grew to %d in steady state, want ≤ %d", got, DefaultFreeSlack)
	}
}

// TestCompactionKeepsPendingEvents runs compaction while events are still
// queued — mid-band at the periodic check and again at the end of the band
// — and checks every event still fires once, in (at, seq) order, with its
// own argument.
func TestCompactionKeepsPendingEvents(t *testing.T) {
	s := New()
	const spike, late = 10000, 300
	var got []int
	midBand := false
	record := func(arg any) {
		id := *arg.(*int)
		if id == spike-1 {
			midBand = len(s.recs) < spike && s.Pending() == late
		}
		got = append(got, id)
	}
	for i := 0; i < spike; i++ {
		i := i
		s.At(float64(i), record, &i)
	}
	// The late events share three instants, so their order rests on seq.
	for j := 0; j < late; j++ {
		id := spike + j
		s.At(1e6+float64(j%3), record, &id)
	}
	s.Run(spike)
	if !midBand {
		t.Fatal("no compaction ran mid-band while events were pending")
	}
	if len(s.recs) != late || s.FreeLen() != 0 {
		t.Fatalf("slab not compacted: %d records, %d free slots, want %d and 0", len(s.recs), s.FreeLen(), late)
	}
	s.Run(math.Inf(1))

	var want []int
	for i := 0; i < spike; i++ {
		want = append(want, i)
	}
	for r := 0; r < 3; r++ {
		for j := r; j < late; j += 3 {
			want = append(want, spike+j)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as id %d, want %d", i, got[i], want[i])
		}
	}
}
