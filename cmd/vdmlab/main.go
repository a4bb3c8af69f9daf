// Command vdmlab runs one chapter-5-style emulation on the synthetic
// PlanetLab through the lab front end: node-selection pipeline (figure
// 5.2), Colorado source, pool sampling, full session, and the paper's
// PlanetLab metrics — optionally with the sample tree of figures 5.5/5.6.
//
//	vdmlab -protocol vdm -nodes 100 -churn 10 -tree
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vdm/internal/lab"
	"vdm/internal/obs/simprof"
	"vdm/internal/parallel"
	"vdm/internal/sim"
)

func main() {
	var (
		protocol = flag.String("protocol", "vdm", "vdm | hmtp | btp | nice | random")
		nodes    = flag.Int("nodes", 100, "overlay population")
		churn    = flag.Float64("churn", 10, "churn percent per interval")
		degree   = flag.Int("degree", 4, "node degree")
		refine   = flag.Float64("refine", 0, "VDM refinement period (s), 0 = off")
		foster   = flag.Bool("foster", false, "VDM quick-start (foster join)")
		duration = flag.Float64("duration", 5000, "session length (s)")
		joinS    = flag.Float64("join", 2000, "join phase length (s)")
		rate     = flag.Float64("rate", 10, "stream rate (chunks/s)")
		seed     = flag.Int64("seed", 1, "seed")
		usOnly   = flag.Bool("us", true, "restrict to US sites (paper setup)")
		tree     = flag.Bool("tree", false, "print the final overlay tree")
		dot      = flag.Bool("dot", false, "print the final tree as Graphviz DOT")
		mstRatio = flag.Bool("mst", false, "compute tree/MST cost ratio")
		reps     = flag.Int("reps", 1, "repetitions with derived seeds; metrics are averaged")
		jobs     = flag.Int("j", 0, "parallel workers for repetitions (0 = all cores, 1 = serial)")
		shards   = flag.Int("shards", 1, "event-queue shards per repetition; S > 1 runs S parallel workers (identical results at every S)")
		progress = flag.Float64("progress", 0, "print progress to stderr every N simulated seconds (single rep only)")
		profOut  = flag.String("profileout", "", "write the flight-recorder JSONL stream here (single rep only)")
		profS    = flag.Float64("profile", 0, "flight-recorder flush interval in simulated seconds (0 = default 10; needs -profileout)")
	)
	flag.Parse()

	var progressFn func(sim.ProgressInfo)
	if *progress > 0 && *reps == 1 {
		start := time.Now()
		progressFn = func(p sim.ProgressInfo) {
			fmt.Fprintf(os.Stderr, "t=%.0fs/%.0fs  events=%d  epochs=%d  ev/s=%.0f  wall=%.1fs\n",
				p.T, *duration, p.Events, p.Epochs, p.EventsPerSec, time.Since(start).Seconds())
		}
	}

	var profile *simprof.Options
	if *profOut != "" && *reps == 1 {
		f, err := os.Create(*profOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		profile = &simprof.Options{W: f, EveryS: *profS}
	}

	cfg := lab.Config{
		Seed:           *seed,
		Protocol:       sim.ProtocolKind(*protocol),
		Nodes:          *nodes,
		Degree:         *degree,
		ChurnPct:       *churn,
		Refine:         *refine,
		Foster:         *foster,
		USOnly:         *usOnly,
		Duration:       *duration,
		JoinPhase:      *joinS,
		DataRate:       *rate,
		MST:            *mstRatio,
		Shards:         *shards,
		Progress:       progressFn,
		ProgressEveryS: *progress,
		Profile:        profile,
	}
	if *reps < 1 {
		*reps = 1
	}
	// Repetitions are independent cells: each derives its own seed, so
	// the aggregate is identical at any worker count.
	results, err := parallel.Map(*reps, *jobs, func(rep int) (*lab.Result, error) {
		c := cfg
		c.Seed = cfg.Seed + int64(rep)*7_919
		return lab.Run(c)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := results[0]
	if *reps > 1 {
		fmt.Printf("aggregated over %d repetitions (mean; tree/clustering from rep 0)\n", *reps)
		res = meanResult(results)
	}

	fmt.Printf("node selection: %s\n", res.Selection)
	fmt.Printf("protocol=%s nodes=%d degree=%d churn=%.1f%%\n", *protocol, *nodes, *degree, *churn)
	fmt.Printf("  startup     avg %.3fs max %.3fs\n", res.StartupAvg, res.StartupMax)
	fmt.Printf("  reconnect   avg %.3fs max %.3fs (%d reconnections)\n", res.ReconnAvg, res.ReconnMax, res.ReconnCount)
	fmt.Printf("  stretch     %.3f (min %.2f leaf %.2f max %.2f)\n", res.Stretch, res.MinStretch, res.LeafStretch, res.MaxStretch)
	fmt.Printf("  hopcount    %.2f (leaf %.2f max %.0f)\n", res.Hopcount, res.LeafHopcount, res.MaxHopcount)
	fmt.Printf("  usage       %.1f ms (normalized %.3f)\n", res.UsageMS, res.UsageNorm)
	fmt.Printf("  loss        %.3f%%\n", res.Loss*100)
	fmt.Printf("  overhead    %.4f\n", res.Overhead)
	if *mstRatio {
		fmt.Printf("  MST ratio   %.3f\n", res.MSTRatio)
	}
	fmt.Printf("  final       %d alive, %d reachable\n", res.FinalAlive, res.FinalReachable)

	intra, inter, perRegion := lab.ClusterStats(res.Result)
	fmt.Printf("  clustering  %d intra-region edges, %d cross-region (%s)\n",
		intra, inter, strings.Join(lab.Regions(perRegion), " "))

	if *tree {
		fmt.Println("\nfinal overlay tree (indent = depth):")
		fmt.Print(lab.RenderTree(res.Result))
	}
	if *dot {
		fmt.Print(lab.DOT(res.Result))
	}
}

// meanResult averages the session metrics over repetitions, keeping the
// first repetition's selection, tree and clustering for display.
func meanResult(results []*lab.Result) *lab.Result {
	first := results[0]
	agg := *first
	s := *first.Result
	s.Stress, s.MaxStress = 0, 0
	s.Stretch, s.MinStretch, s.MaxStretch, s.LeafStretch = 0, 0, 0, 0
	s.Hopcount, s.LeafHopcount, s.MaxHopcount = 0, 0, 0
	s.UsageMS, s.UsageNorm, s.Loss, s.Overhead = 0, 0, 0, 0
	s.StartupAvg, s.StartupMax, s.ReconnAvg, s.ReconnMax = 0, 0, 0, 0
	s.MSTRatio, s.DCMSTRatio = 0, 0
	var reconns, alive, reach float64
	inv := 1 / float64(len(results))
	for _, r := range results {
		s.Stress += r.Stress * inv
		s.MaxStress += r.MaxStress * inv
		s.Stretch += r.Stretch * inv
		s.MinStretch += r.MinStretch * inv
		s.MaxStretch += r.MaxStretch * inv
		s.LeafStretch += r.LeafStretch * inv
		s.Hopcount += r.Hopcount * inv
		s.LeafHopcount += r.LeafHopcount * inv
		s.MaxHopcount += r.MaxHopcount * inv
		s.UsageMS += r.UsageMS * inv
		s.UsageNorm += r.UsageNorm * inv
		s.Loss += r.Loss * inv
		s.Overhead += r.Overhead * inv
		s.StartupAvg += r.StartupAvg * inv
		s.StartupMax += r.StartupMax * inv
		s.ReconnAvg += r.ReconnAvg * inv
		s.ReconnMax += r.ReconnMax * inv
		s.MSTRatio += r.MSTRatio * inv
		s.DCMSTRatio += r.DCMSTRatio * inv
		reconns += float64(r.ReconnCount) * inv
		alive += float64(r.FinalAlive) * inv
		reach += float64(r.FinalReachable) * inv
	}
	s.ReconnCount = int(reconns + 0.5)
	s.FinalAlive = int(alive + 0.5)
	s.FinalReachable = int(reach + 0.5)
	agg.Result = &s
	return &agg
}
