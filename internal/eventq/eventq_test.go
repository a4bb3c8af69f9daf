package eventq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFiresInTimestampOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func(any) { got = append(got, at) }, nil)
	}
	s.Run(10)
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEqualTimestampsFireInScheduleOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func(any) { got = append(got, i) }, nil)
	}
	s.Run(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v", got)
		}
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func(any) { fired++ }, nil)
	s.At(5, func(any) { fired++ }, nil)
	s.Run(3)
	if fired != 1 {
		t.Fatalf("fired %d events before t=3, want 1", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("clock %v, want 3", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want 1", s.Pending())
	}
	s.Run(10)
	if fired != 2 {
		t.Fatalf("fired %d after second run, want 2", fired)
	}
}

func TestClockAdvancesToUntilOnEmptyQueue(t *testing.T) {
	s := New()
	s.Run(42)
	if s.Now() != 42 {
		t.Fatalf("clock %v, want 42", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at float64
	s.At(10, func(any) {
		s.After(5, func(any) { at = s.Now() }, nil)
	}, nil)
	s.Run(100)
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	s := New()
	fired := false
	s.At(10, func(any) { s.After(-3, func(any) { fired = true }, nil) }, nil)
	s.Run(100)
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func(any) {}, nil)
	s.Run(20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduling before now")
		}
	}()
	s.At(5, func(any) {}, nil)
}

func TestDrainRunsEverything(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func(any) { fired++ }, nil)
	s.At(1e9, func(any) { fired++ }, nil)
	s.Run(math.Inf(1))
	if fired != 2 {
		t.Fatalf("drain fired %d, want 2", fired)
	}
	if s.Processed() != 2 {
		t.Fatalf("processed %d, want 2", s.Processed())
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	s := New()
	depth := 0
	var recurse func(any)
	recurse = func(any) {
		if depth < 100 {
			depth++
			s.After(0.5, recurse, nil)
		}
	}
	s.At(0, recurse, nil)
	s.Run(60)
	if depth != 100 {
		t.Fatalf("chained to depth %d, want 100", depth)
	}
}

// Property: any batch of randomly timestamped events fires in sorted order.
func TestPropertyRandomScheduleSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		count := int(n%64) + 1
		times := make([]float64, count)
		var fired []float64
		for i := range times {
			times[i] = rnd.Float64() * 1000
			at := times[i]
			s.At(at, func(any) { fired = append(fired, at) }, nil)
		}
		s.Run(2000)
		if len(fired) != count {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventFreeListReuse pins slot reuse: once the slab's high-water
// mark is reached, a schedule/fire cycle takes a free record slot instead
// of allocating.
func TestEventFreeListReuse(t *testing.T) {
	s := New()
	var tick func(any)
	tick = func(any) { s.After(1, tick, nil) }
	s.At(0, tick, nil)
	s.Run(16) // warm up the slab and the free-slot stack
	allocs := testing.AllocsPerRun(100, func() {
		s.Run(s.Now() + 8)
	})
	if allocs != 0 {
		t.Fatalf("steady-state run allocated %v objects per cycle, want 0", allocs)
	}
}

// TestFreeListDropsClosure checks a free record slot pins neither the
// fired callback nor its argument.
func TestFreeListDropsClosure(t *testing.T) {
	s := New()
	s.At(1, func(any) {}, new(int))
	s.Run(2)
	if len(s.free) == 0 {
		t.Fatal("fired event's slot not freed")
	}
	for _, slot := range s.free {
		if r := s.recs[slot]; r.fn != nil || r.arg != nil {
			t.Fatal("free record slot retains its callback or argument")
		}
	}
}

func TestSchedulingAtNaNPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduling at NaN")
		}
		if s.Pending() != 0 {
			t.Fatalf("NaN event entered the queue: %d pending", s.Pending())
		}
	}()
	s.At(math.NaN(), func(any) {}, nil)
}
