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
// time in: every fired event schedules a successor. With the free list
// this runs allocation-free after warm-up.
func BenchmarkEventQ(b *testing.B) {
	s := New()
	var tick func(any)
	tick = func(any) { s.After(1, tick, nil) }
	s.At(0, tick, nil)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(float64(b.N))
}
