package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"vdm/internal/experiments"
	"vdm/internal/geo"
	"vdm/internal/lab"
	"vdm/internal/rng"
	"vdm/internal/underlay"
)

// paper-figures regenerates three figure groups through experiments.Run
// at a reduced time scale: ch3-churn (VDM vs HMTP on the router
// underlay), ch4-time (per-link loss and the path-loss memo) and
// ch5-refine (VDM with and without refinement on the synthetic PlanetLab
// lab). The chapter-5 group is ch5-refine rather than ch5-churn: the
// 100-peer, 10%-churn sessions of ch5-churn need 125 usable sites, and at
// a few percent of seeds the synthetic model offers fewer, so lab.Run
// refuses the session and the group cannot run at all.
var figureGroups = []string{"ch3-churn", "ch4-time", "ch5-refine"}

// figureTables is how many tables each group renders: a group that
// errors counts all of its tables as failed.
var figureTables = map[string]int{"ch3-churn": 4, "ch4-time": 4, "ch5-refine": 3}

const (
	figureReps      = 2
	figureTimeScale = 0.1
	// figureSetupReps is how many times one repetition builds the
	// figure sessions' underlays to time set-up.
	figureSetupReps = 11
	// figureLabPeers is the largest chapter-5 population the lab samples
	// sites for (ch5-refine's 50 peers).
	figureLabPeers = 50
)

// tableDigest fingerprints one rendered figure table.
func tableDigest(t *experiments.Table) string {
	sum := sha256.Sum256([]byte(t.Format()))
	return hex.EncodeToString(sum[:8])
}

func runFigures(h *harness) error {
	var want map[string]string
	if h.seed == fingerprintSeed {
		want = recordedTables
	}
	return h.repeat(func(traced bool) error {
		setups := make([]float64, figureSetupReps)
		for i := range setups {
			setups[i] = figureSetup(h, h.seed)
		}
		setup := median(setups)

		sessions := 0
		tables := map[string]*experiments.Table{}
		var order []string
		missing := 0 // tables of groups that errored
		p, err := measure(traced, func() error {
			for _, g := range figureGroups {
				id := h.spans.begin("figure-group:"+g, 0)
				ts, err := experiments.Run(g, experiments.Options{
					Seed:      h.seed,
					Reps:      figureReps,
					TimeScale: figureTimeScale,
					Jobs:      runtime.GOMAXPROCS(0),
					Progress:  func(string, ...any) { sessions++ },
				})
				h.spans.end(id)
				if err != nil {
					// A group that cannot run is a failed output, not a
					// reason to stop measuring the others.
					h.check("figure group %s: %v", g, err)
					missing += figureTables[g]
					continue
				}
				for _, t := range ts {
					tables[t.ID] = t
					order = append(order, t.ID)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if sessions == 0 {
			return fmt.Errorf("figure groups ran no sessions")
		}

		digests := map[string]string{}
		failed := missing
		for _, id := range order {
			t := tables[id]
			d := tableDigest(t)
			digests[id] = d
			bad := ""
			switch {
			case !wellFormed(t):
				bad = "has no points or a non-finite value"
			case want != nil && want[id] != d:
				bad = fmt.Sprintf("digest %s, recorded %s", d, want[id])
			}
			if bad != "" {
				h.check("figure %s %s", id, bad)
				failed++
			}
		}
		if want == nil {
			// Later repetitions of the same seed must reproduce the first.
			want = digests
		}
		h.fails.add(int64(len(order)+missing), int64(failed))

		h.record(traced, p.Wall, map[string]float64{
			"setup_s":          setup,
			"wall_s":           p.Wall,
			"events_per_s":     float64(sessions) / p.Wall,
			"peak_heap_mb":     p.PeakMB,
			"cpu_us_per_event": p.CPU * 1e6 / float64(sessions),
		})
		h.rep.Reps = append(h.rep.Reps, map[string]any{
			"traced": traced, "wall_s": p.Wall, "setup_s": setup, "sessions": sessions,
			"cpu_s": p.CPU, "peak_heap_mb": p.PeakMB, "table_digests": digests,
		})
		if traced {
			vals := p.layerValues()
			vals["topology.setup_s"] = setup
			h.addLayer(vals)
		}
		return nil
	})
}

// wellFormed reports whether a table has points and only finite values.
func wellFormed(t *experiments.Table) bool {
	if len(t.Points) == 0 {
		return false
	}
	for _, p := range t.Points {
		for _, s := range p.Series {
			if math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) {
				return false
			}
		}
	}
	return true
}

// figureSetup times the public constructors behind one session of each
// figure group: the chapter-3 router underlay (200 peers plus churn
// replacements), the chapter-4 one with per-link loss (500 peers) and the
// chapter-5 synthetic PlanetLab model with its node selection for the
// largest ch5-refine session.
func figureSetup(h *harness, seed int64) float64 {
	id := h.spans.begin("figure-setup", 0)
	t0 := time.Now()
	timeRouterUnderlay(h, id, seed, 784, 256, 0)
	timeRouterUnderlay(h, id, seed, 784, 501, 0.02)
	model := geo.Generate(geo.DefaultConfig(), rng.Derive(seed, "geo"))
	sites, err := lab.SelectNodes(model, true).Sample(figureLabPeers, rng.Derive(seed, "sites"))
	if err != nil {
		h.check("lab node selection: %v", err)
	} else {
		underlay.NewGeoKeyed(model, sites, rng.DeriveSeed(seed, "jitter"))
	}
	d := time.Since(t0).Seconds()
	h.spans.end(id)
	return d
}
