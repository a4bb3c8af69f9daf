package core

import (
	"testing"

	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
	"vdm/internal/rng"
)

// benchJoinSession runs one full join wave of n peers over a random 2-D
// placement and returns nothing; the cost measured is the whole iterative
// join procedure (info/probe/connect rounds) for every peer.
func benchJoinSession(b *testing.B, n int, sink obs.Sink) {
	rnd := rng.New(42)
	points := make([]protocoltest.Point, n)
	for i := 1; i < n; i++ {
		points[i] = protocoltest.Point{X: rnd.Uniform(-100, 100), Y: rnd.Uniform(-100, 100)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := protocoltest.New(points)
		for j := 0; j < n; j++ {
			id := overlay.NodeID(j)
			node := New(r.Net, r.PeerConfig(id, 4), Config{}, nil)
			if sink != nil {
				node.SetTracer(obs.NewTracer(sink, "vdm", id, r.Net.Now))
			}
			r.Net.Register(id, node)
			if j != 0 {
				at := float64(j) * 5
				r.Sim.At(at, func(any) { node.StartJoin() }, nil)
			}
		}
		r.Run(float64(n)*5 + 30)
	}
}

// BenchmarkJoin measures the cost of building a 32-peer tree with the
// iterative directional join, tracing disabled — the core-path number
// `make bench` archives.
func BenchmarkJoin(b *testing.B) { benchJoinSession(b, 32, nil) }

// BenchmarkJoinTraced is the same session with a protocol tracer
// installed (null sink), isolating the instrumentation overhead.
func BenchmarkJoinTraced(b *testing.B) {
	benchJoinSession(b, 32, obs.FuncSink(func(obs.Event) {}))
}

func BenchmarkClassify(b *testing.B) {
	triples := [][3]float64{
		{25, 10, 15}, {6, 10, 4}, {8, 10, 18}, {10, 10, 10}, {40, 25, 16},
	}
	var sink Case
	for i := 0; i < b.N; i++ {
		t := triples[i%len(triples)]
		sink = Classify(t[0], t[1], t[2], 0.85)
	}
	_ = sink
}
