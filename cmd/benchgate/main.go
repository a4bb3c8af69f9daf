// Command benchgate turns the data-plane bench from report-only into a
// pass/fail CI gate. It reads a BENCH_dataplane.json written by
// cmd/benchpump and exits non-zero when the batched data plane delivers
// a smaller fraction of the offered stream than the unbatched baseline —
// the one regression the batching + reliability work must never cause.
//
// The comparison is only meaningful when both passes faced the same
// offered load, so the gate insists the bench ran paced (config.rate > 0)
// and that the two passes' measured offered loads agree; a run where the
// source's emit loop throttled differently per pass proves nothing and
// fails as invalid rather than passing silently.
//
// With -scale the gate switches to the simulation-scale report written
// by cmd/benchscale and enforces the memory budget instead: every cell
// at or above the population floor must stay under the absolute
// bytes-per-peer cap (-maxbpp), and — when a baseline report is given
// via -scalebase and was produced by an identically-configured sweep —
// must not regress more than -bpptol relative to the matching
// (peers, shards) baseline cell. Peak heap only means anything at equal
// GC settings, so a baseline with a different GOGC (or sweep shape) is
// skipped with a note rather than compared.
//
// A missing report is a skip, not a failure: fresh checkouts gate on the
// committed report, while CI regenerates it in the step before this one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type passStats struct {
	Mode              string  `json:"mode"`
	OfferedLoadMBps   float64 `json:"offered_load_mbps"`
	DeliveryRatio     float64 `json:"delivery_ratio"`
	GoodputMBps       float64 `json:"goodput_mbps"`
	SyscallsPerPacket float64 `json:"syscalls_per_packet"`
}

type linkKillStats struct {
	RecoveryMs          float64 `json:"recovery_ms"`
	VictimDeliveryRatio float64 `json:"victim_delivery_ratio"`
	ParentChanged       bool    `json:"parent_changed"`
}

type report struct {
	Config struct {
		Rate int `json:"rate"`
	} `json:"config"`
	Baseline passStats `json:"baseline"`
	Batched  passStats `json:"batched"`
	Capacity *struct {
		GoodputRatio           float64 `json:"goodput_ratio"`
		SyscallsPerPacketRatio float64 `json:"syscalls_per_packet_ratio"`
	} `json:"capacity,omitempty"`
	LinkKill *linkKillStats `json:"link_kill,omitempty"`
}

func main() {
	in := flag.String("in", "BENCH_dataplane.json", "benchpump report to gate on")
	slack := flag.Float64("slack", 0.02, "absolute delivery-ratio noise floor: fail only if batched < baseline - slack")
	loadTol := flag.Float64("loadtol", 0.2, "max relative offered-load mismatch between passes before the run is invalid")
	scale := flag.String("scale", "", "gate a benchscale report's memory budget instead of the data plane")
	scaleBase := flag.String("scalebase", "", "baseline benchscale report for the bytes-per-peer regression check")
	maxBPP := flag.Float64("maxbpp", 0, "absolute bytes-per-peer cap for cells at/above -bppfloor (0 = no absolute check)")
	bppTol := flag.Float64("bpptol", 0.10, "max relative bytes-per-peer regression vs the baseline cell")
	bppFloor := flag.Int("bppfloor", 100_000, "population floor for memory checks; smaller cells are fixed-cost-dominated noise")
	flag.Parse()

	if *scale != "" {
		gateScale(*scale, *scaleBase, *maxBPP, *bppTol, *bppFloor)
		return
	}

	data, err := os.ReadFile(*in)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchgate: %s missing; nothing to gate (run `make bench` first)\n", *in)
			return
		}
		fatal("read %s: %v", *in, err)
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		fatal("parse %s: %v", *in, err)
	}

	if r.Config.Rate <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s was an unpaced run (rate=0); delivery ratios are not load-matched, skipping\n", *in)
		return
	}
	base, batch := r.Baseline, r.Batched
	if base.OfferedLoadMBps <= 0 || batch.OfferedLoadMBps <= 0 {
		fatal("%s predates offered-load accounting; regenerate it", *in)
	}
	if mismatch := relDiff(base.OfferedLoadMBps, batch.OfferedLoadMBps); mismatch > *loadTol {
		fatal("offered load diverged between passes (baseline %.2f vs batched %.2f MB/s, %.0f%% apart); run invalid",
			base.OfferedLoadMBps, batch.OfferedLoadMBps, 100*mismatch)
	}

	fmt.Printf("benchgate: offered %.2f MB/s | delivery baseline %.4f vs batched %.4f | goodput %.2fx | syscalls %.2fx\n",
		base.OfferedLoadMBps, base.DeliveryRatio, batch.DeliveryRatio,
		ratio(batch.GoodputMBps, base.GoodputMBps), ratio(batch.SyscallsPerPacket, base.SyscallsPerPacket))

	failed := false
	if batch.DeliveryRatio < base.DeliveryRatio-*slack {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL batched delivery %.4f < baseline %.4f (slack %.2f) at equal offered load\n",
			batch.DeliveryRatio, base.DeliveryRatio, *slack)
		failed = true
	}
	if cs := r.Capacity; cs != nil {
		// Capacity (unpaced ceiling) stays report-only: absolute
		// throughput on shared CI runners is too noisy to gate, while
		// delivery at equal offered load is a correctness property.
		fmt.Printf("benchgate: capacity %.2fx goodput, %.2fx syscalls/packet (report-only)\n",
			cs.GoodputRatio, cs.SyscallsPerPacketRatio)
	}
	if lk := r.LinkKill; lk != nil {
		fmt.Printf("benchgate: linkkill recovery %.0f ms, victim delivery %.4f, reparented=%v\n",
			lk.RecoveryMs, lk.VictimDeliveryRatio, lk.ParentChanged)
		if lk.ParentChanged {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL link-kill recovery re-parented the victim; repair must not touch the tree")
			failed = true
		}
		if lk.VictimDeliveryRatio < 0.95 {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL victim recovered only %.4f of the stream after link kill\n", lk.VictimDeliveryRatio)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchgate: OK")
}

// scaleReport mirrors the cmd/benchscale fields the memory gate reads.
type scaleReport struct {
	DurationS       float64 `json:"duration_s"`
	JoinPhaseS      float64 `json:"join_phase_s"`
	DataRate        float64 `json:"data_rate"`
	ChurnPct        float64 `json:"churn_pct"`
	GOGC            int     `json:"gogc"`
	IdenticalOutput bool    `json:"identical_output"`
	Cells           []struct {
		Peers        int     `json:"peers"`
		Shards       int     `json:"shards"`
		PeakHeapMB   float64 `json:"peak_heap_mb"`
		BytesPerPeer float64 `json:"bytes_per_peer"`
	} `json:"cells"`
}

// gateScale enforces the memory budget on a benchscale report: an
// absolute bytes-per-peer cap, plus a relative regression check against
// a baseline report when one is comparable (same sweep shape and GOGC).
func gateScale(path, basePath string, maxBPP, bppTol float64, floor int) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchgate: %s missing; nothing to gate (run `make bench-scale` first)\n", path)
			return
		}
		fatal("read %s: %v", path, err)
	}
	var r scaleReport
	if err := json.Unmarshal(data, &r); err != nil {
		fatal("parse %s: %v", path, err)
	}
	if len(r.Cells) == 0 {
		fatal("%s has no cells; regenerate it", path)
	}

	failed := false
	if !r.IdenticalOutput {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL %s recorded an output divergence across shard counts\n", path)
		failed = true
	}

	// Cells under the population floor are dominated by fixed costs
	// (topology, routing caches) and would read as absurd per-peer
	// numbers; gate only at scale. A sweep that never reaches the floor
	// (CI smoke) still gets its largest population gated so -maxbpp
	// asserts something everywhere.
	gateAt := 0
	for _, c := range r.Cells {
		if c.Peers > gateAt {
			gateAt = c.Peers
		}
	}
	if gateAt > floor {
		gateAt = floor
	}
	for _, c := range r.Cells {
		if c.Peers < gateAt {
			continue
		}
		fmt.Printf("benchgate: scale peers=%d shards=%d  %.1f MB peak  %.0f B/peer\n",
			c.Peers, c.Shards, c.PeakHeapMB, c.BytesPerPeer)
		if maxBPP > 0 && c.BytesPerPeer > maxBPP {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL peers=%d shards=%d uses %.0f B/peer, over the %.0f B/peer budget\n",
				c.Peers, c.Shards, c.BytesPerPeer, maxBPP)
			failed = true
		}
	}

	if basePath != "" {
		failed = gateScaleRegression(&r, basePath, bppTol, gateAt) || failed
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("benchgate: OK")
}

// gateScaleRegression compares bytes-per-peer against the matching
// (peers, shards) cells of a baseline report, returning whether any cell
// regressed beyond tol. Reports produced under different sweep settings
// are incomparable and skipped with a note.
func gateScaleRegression(r *scaleReport, basePath string, tol float64, floor int) bool {
	data, err := os.ReadFile(basePath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchgate: baseline %s missing; skipping regression check\n", basePath)
			return false
		}
		fatal("read %s: %v", basePath, err)
	}
	var base scaleReport
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("parse %s: %v", basePath, err)
	}
	if base.DurationS != r.DurationS || base.JoinPhaseS != r.JoinPhaseS ||
		base.DataRate != r.DataRate || base.ChurnPct != r.ChurnPct || base.GOGC != r.GOGC {
		fmt.Fprintf(os.Stderr, "benchgate: baseline %s ran a different sweep (duration/join/rate/churn/gogc); skipping regression check\n", basePath)
		return false
	}
	type key struct{ peers, shards int }
	baseBPP := map[key]float64{}
	for _, c := range base.Cells {
		baseBPP[key{c.Peers, c.Shards}] = c.BytesPerPeer
	}
	failed := false
	for _, c := range r.Cells {
		if c.Peers < floor {
			continue
		}
		want, ok := baseBPP[key{c.Peers, c.Shards}]
		if !ok || want <= 0 {
			continue
		}
		if c.BytesPerPeer > want*(1+tol) {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL peers=%d shards=%d regressed to %.0f B/peer (baseline %.0f, tolerance %.0f%%)\n",
				c.Peers, c.Shards, c.BytesPerPeer, want, 100*tol)
			failed = true
		}
	}
	return failed
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if a < b {
		a = b
	}
	return d / a
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
