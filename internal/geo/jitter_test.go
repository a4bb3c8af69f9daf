package geo_test

import (
	"math"
	"testing"

	"vdm/internal/geo"
	"vdm/internal/rng"
	"vdm/internal/underlay"
)

// nonLazySites returns the first n sites without think time, so delivery
// delays carry only the model's lognormal jitter.
func nonLazySites(m *geo.Model, n int) []int {
	var sites []int
	for i := 0; i < m.NumSites() && len(sites) < n; i++ {
		if !m.Sites[i].Lazy {
			sites = append(sites, i)
		}
	}
	return sites
}

// TestSampleRTTJitterStatistics checks that RTT samples and delivery
// delays drawn through the keyed underlay path vary lognormally around
// the model's base values: positive, not constant, centred within 5%.
func TestSampleRTTJitterStatistics(t *testing.T) {
	m := geo.Generate(geo.DefaultConfig(), rng.New(4))
	sites := nonLazySites(m, 41)
	u := underlay.NewGeoKeyed(m, sites, 7)
	a, b := 0, 40
	base := u.BaseRTT(a, b)
	if base != m.BaseRTT(sites[a], sites[b]) {
		t.Fatal("underlay base RTT differs from the model's")
	}
	const n = 2000
	rttSum, owSum := 0.0, 0.0
	varied := false
	for i := 0; i < n; i++ {
		v := u.RTT(a, b)
		if v <= 0 {
			t.Fatalf("sampled RTT %v", v)
		}
		if v != base {
			varied = true
		}
		rttSum += v
		owSum += u.OneWayDelayMSKeyed(a, b, uint64(i))
	}
	if !varied {
		t.Fatal("model jitter configured but RTT constant")
	}
	if mean := rttSum / n; math.Abs(mean-base)/base > 0.05 {
		t.Fatalf("RTT jitter not centred: mean %.1f vs base %.1f", mean, base)
	}
	if mean := owSum / n; math.Abs(mean-base/2)/(base/2) > 0.05 {
		t.Fatalf("delay jitter not centred: mean %.1f vs base one-way %.1f", mean, base/2)
	}
}

// TestSampleRTTNoJitterConfig checks that a model without jitter yields
// its base values on every keyed draw.
func TestSampleRTTNoJitterConfig(t *testing.T) {
	cfg := geo.DefaultConfig()
	cfg.JitterSigma = 0
	m := geo.Generate(cfg, rng.New(5))
	u := underlay.NewGeoKeyed(m, nonLazySites(m, 2), 1)
	base := u.BaseRTT(0, 1)
	for i := 0; i < 10; i++ {
		if got := u.RTT(0, 1); got != base {
			t.Fatalf("zero jitter: RTT %v, want the base %v", got, base)
		}
		if got := u.OneWayDelayMSKeyed(0, 1, uint64(i)); got != base/2 {
			t.Fatalf("zero jitter: delay %v, want half the base %v", got, base/2)
		}
	}
}
