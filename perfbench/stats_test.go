package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuantileNearestRankAndCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		got, n := quantile(xs, c.q)
		if got != c.want || n != len(xs) {
			t.Errorf("quantile(q=%v) = %v, n=%d; want %v, n=%d", c.q, got, n, c.want, len(xs))
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if v, n := quantile(nil, 0.5); !math.IsNaN(v) || n != 0 {
		t.Errorf("quantile(nil) = %v, %d; want NaN, 0", v, n)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median = %v", m)
	}
}

func TestSupportedQuantileNeedsTenBeyond(t *testing.T) {
	qs := []float64{0.99, 0.999, 0.9999}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{999, 0, false}, {1000, 0.99, true}, {32000, 0.999, true}, {100000, 0.9999, true}} {
		got, ok := supportedQuantile(c.n, 10, qs)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestCapacityStopsAtFirstFailingRung(t *testing.T) {
	ok := func(rate float64) rung { return rung{Rate: rate, Expected: 10, Delivered: 10, P99MS: 5} }
	slow := func(rate float64) rung { return rung{Rate: rate, Expected: 10, Delivered: 10, P99MS: 80} }
	lossy := func(rate float64) rung { return rung{Rate: rate, Expected: 10, Delivered: 9, P99MS: 5} }
	for _, c := range []struct {
		name   string
		ladder []rung
		want   int
	}{
		{"all pass", []rung{ok(1), ok(2), ok(3)}, 2},
		{"latency limit", []rung{ok(1), slow(2), ok(3)}, 0},
		{"a lost copy fails", []rung{ok(1), ok(2), lossy(3)}, 1},
		{"bottom fails", []rung{lossy(1), ok(2)}, -1},
		{"empty", nil, -1},
	} {
		if got := capacity(c.ladder, 50); got != c.want {
			t.Errorf("%s: capacity = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	var f tally
	if f.ratio() != 1 {
		t.Errorf("empty tally ratio = %v, want 1 (nothing shown to succeed)", f.ratio())
	}
	f.add(100, 0)
	f.add(100, 5)
	f.add(10, 50) // a fully failed unit cannot fail more than it attempted
	f.add(10, -1)
	if f.Attempted != 220 || f.Failed != 15 {
		t.Fatalf("tally = %+v, want 220 attempted, 15 failed", f)
	}
	if r := f.ratio(); r != 15.0/220 {
		t.Errorf("ratio = %v", r)
	}
}

// TestCatalogMatchesBenchmarkJSON holds the metric and workload names
// the program prints to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, program has %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, program has %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
