package underlay

import (
	"testing"

	"vdm/internal/rng"
	"vdm/internal/topology"
)

func budgetTestUnderlay(t *testing.T, sptBudget, plBudget int) *RouterUnderlay {
	t.Helper()
	ts, err := topology.GenerateTransitStub(topology.ScaledTransitStub(100), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ts.AssignLinkLoss(0.05, rng.New(6))
	attach := ts.AttachHosts(64, rng.New(7))
	return NewRouter(ts.Graph, attach).WithCacheBudget(sptBudget, plBudget)
}

// TestCacheBudgetBoundsResidency pins the satellite fix: with a budget
// set, the lazy SPT and path-loss caches stay bounded no matter how many
// distinct pairs are queried, and eviction never changes a value.
func TestCacheBudgetBoundsResidency(t *testing.T) {
	const sptBudget, plBudget = 4, 16
	bounded := budgetTestUnderlay(t, sptBudget, plBudget)
	unbounded := budgetTestUnderlay(t, 0, 0)

	n := bounded.NumHosts()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if got, want := bounded.BaseRTT(a, b), unbounded.BaseRTT(a, b); got != want {
				t.Fatalf("BaseRTT(%d,%d) = %v under budget, %v unbounded", a, b, got, want)
			}
			if got, want := bounded.LossRate(a, b), unbounded.LossRate(a, b); got != want {
				t.Fatalf("LossRate(%d,%d) = %v under budget, %v unbounded", a, b, got, want)
			}
			spts, pl := bounded.CacheStats()
			if spts > sptBudget {
				t.Fatalf("SPT cache grew to %d entries, budget %d", spts, sptBudget)
			}
			if pl > plBudget {
				t.Fatalf("path-loss cache grew to %d entries, budget %d", pl, plBudget)
			}
		}
	}

	// Unbudgeted: caches hold everything (the pre-existing behavior).
	spts, _ := unbounded.CacheStats()
	if spts <= sptBudget {
		t.Fatalf("unbounded SPT cache has only %d entries; test is not exercising eviction", spts)
	}
}

// TestJitteredDelayBounds checks the conservative-lookahead contract:
// every keyed delivery delay respects the advertised minimum.
func TestJitteredDelayBounds(t *testing.T) {
	u := budgetTestUnderlay(t, 0, 0).WithLogNormalJitter(99, 0.1)
	min := u.MinOneWayDelayMS()
	if min <= 0 {
		t.Fatalf("MinOneWayDelayMS = %v, want > 0", min)
	}
	n := u.NumHosts()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			for draw := uint64(0); draw < 8; draw++ {
				d := u.OneWayDelayMSKeyed(a, b, draw)
				if d < min {
					t.Fatalf("delay(%d,%d,%d) = %v below advertised minimum %v", a, b, draw, d, min)
				}
				if again := u.OneWayDelayMSKeyed(a, b, draw); again != d {
					t.Fatalf("keyed delay not deterministic")
				}
			}
		}
	}
}
