package eventq

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(float64(j%97), func(any) {}, nil)
		}
		s.Run(100)
	}
}

func BenchmarkSelfRescheduling(b *testing.B) {
	s := New()
	var tick func(any)
	n := 0
	tick = func(any) {
		n++
		s.After(1, tick, nil)
	}
	s.At(0, tick, nil)
	b.ResetTimer()
	s.Run(float64(b.N))
	if n < b.N {
		b.Fatalf("ticked %d < %d", n, b.N)
	}
}

// BenchmarkEventQ is the steady-state cycle the simulations spend their
// time in: every fired event schedules a successor. With free record
// slots reused this runs allocation-free after warm-up. It keeps one event
// pending, so it never exercises heap depth; BenchmarkEventQDeep does.
func BenchmarkEventQ(b *testing.B) {
	s := New()
	var tick func(any)
	tick = func(any) { s.After(1, tick, nil) }
	s.At(0, tick, nil)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(float64(b.N))
}

// deepPending is BenchmarkEventQDeep's queue depth: about the peak a
// 20k-peer join storm reaches.
const deepPending = 32768

// BenchmarkEventQDeep is the steady-state cycle at the depth of a large
// session: deepPending events stay queued, and every fired event
// reschedules itself at a seeded pseudo-random delay (uniform on [0, 2) s),
// so each op is one pop and one push through a heap of that size.
func BenchmarkEventQDeep(b *testing.B) {
	s := New()
	x := uint64(0x9e3779b97f4a7c15) // xorshift64 state, fixed seed
	delay := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 52)
	}
	n := 0
	var tick func(any)
	tick = func(any) {
		n++
		s.After(delay(), tick, nil)
	}
	for i := 0; i < deepPending; i++ {
		s.At(delay(), tick, nil)
	}
	s.Run(4) // settle into the steady mix of delays
	b.ReportAllocs()
	b.ResetTimer()
	for n = 0; n < b.N; {
		s.Run(s.Now() + 1.0/64)
	}
}
