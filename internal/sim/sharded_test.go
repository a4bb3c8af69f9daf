package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// renderResult serializes everything a Result reports into a canonical
// text form. Byte-comparing these strings is the determinism contract:
// %v prints each float64 with the shortest exactly-round-tripping
// representation, so two renderings are equal iff every number is
// bit-identical. (Result cannot go through encoding/json: Config carries
// func-typed fields.)
func renderResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "loss=%v overhead=%v\n", r.Loss, r.Overhead)
	fmt.Fprintf(&b, "stress=%v max=%v\n", r.Stress, r.MaxStress)
	fmt.Fprintf(&b, "stretch=%v min=%v max=%v leaf=%v\n", r.Stretch, r.MinStretch, r.MaxStretch, r.LeafStretch)
	fmt.Fprintf(&b, "hop=%v leaf=%v max=%v\n", r.Hopcount, r.LeafHopcount, r.MaxHopcount)
	fmt.Fprintf(&b, "usage=%v norm=%v\n", r.UsageMS, r.UsageNorm)
	fmt.Fprintf(&b, "startup=%v/%v reconn=%v/%v n=%d\n", r.StartupAvg, r.StartupMax, r.ReconnAvg, r.ReconnMax, r.ReconnCount)
	fmt.Fprintf(&b, "mst=%v dcmst=%v\n", r.MSTRatio, r.DCMSTRatio)
	fmt.Fprintf(&b, "events=%d alive=%d reachable=%d\n", r.EventsProcessed, r.FinalAlive, r.FinalReachable)
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "sample t=%v tree=%+v loss=%v overhead=%v\n", s.T, s.Tree, s.Loss, s.Overhead)
	}
	for _, e := range r.FinalTree {
		fmt.Fprintf(&b, "edge %+v\n", e)
	}
	for _, e := range r.InvariantErrors {
		fmt.Fprintf(&b, "invariant %s\n", e)
	}
	return b.String()
}

// parityConfigs are the workload styles the chapter experiments use: a
// chapter-3 churn session (VDM, delay metric, control-loss injection), a
// chapter-4 batch-growth session (HMTP, loss metric over lossy links) and
// a VDM session on the estimated-loss metric, whose per-pair estimates
// must not depend on which shard queries first. Small enough to sweep
// four shard counts in a test run.
func parityConfigs() map[string]Config {
	return map[string]Config{
		"ch3-churn": {
			Seed:         42,
			Protocol:     VDM,
			Nodes:        32,
			RouterMin:    100,
			ChurnPct:     20,
			JoinPhaseS:   200,
			IntervalS:    100,
			SettleS:      50,
			DurationS:    600,
			CtrlLossProb: 0.01,
			Validate:     true,
			ComputeMST:   true,
		},
		"ch4-batch": {
			Seed:        7,
			Protocol:    HMTP,
			Metric:      "loss",
			Nodes:       32,
			BatchSize:   8,
			RouterMin:   100,
			IntervalS:   100,
			SettleS:     40,
			LinkLossMax: 0.05,
			ComputeMST:  true,
		},
		"loss-est": {
			Seed:        11,
			Protocol:    VDM,
			Metric:      "loss-est",
			Nodes:       32,
			RouterMin:   100,
			ChurnPct:    20,
			JoinPhaseS:  200,
			IntervalS:   100,
			SettleS:     50,
			DurationS:   600,
			LinkLossMax: 0.05,
			Validate:    true,
		},
	}
}

// TestShardedRunsAreByteIdentical is the engine's determinism contract:
// every shard count produces byte-identical experiment output to one
// shard.
func TestShardedRunsAreByteIdentical(t *testing.T) {
	for name, cfg := range parityConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Shards = 1
			one, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := renderResult(one)
			if one.EventsProcessed == 0 || len(one.Samples) == 0 {
				t.Fatalf("S=1 run is degenerate: %d events, %d samples", one.EventsProcessed, len(one.Samples))
			}
			for _, shards := range []int{2, 4, 8} {
				scfg := cfg
				scfg.Shards = shards
				res, err := Run(scfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := renderResult(res); got != want {
					t.Fatalf("shards=%d diverged from S=1:\n%s", shards, firstDiff(want, got))
				}
			}
		})
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length: want %d lines, got %d lines", len(wl), len(gl))
}

// TestShardedDeliveryHammer drives a denser cross-shard workload for the
// race detector: every peer talks across shard boundaries constantly.
// Run with -race, this is the memory-model check on the epoch barriers.
func TestShardedDeliveryHammer(t *testing.T) {
	cfg := Config{
		Seed:       99,
		Protocol:   VDM,
		Nodes:      48,
		RouterMin:  100,
		BatchSize:  12,
		IntervalS:  60,
		SettleS:    30,
		Shards:     8,
		DataRate:   4,
		Validate:   true,
		ComputeMST: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalReachable == 0 {
		t.Fatal("no peers reachable after hammer run")
	}
}

// TestCheckpointResume checks the replay-based resume: a second run
// finding the checkpoint must reproduce the first run exactly, including
// across a different shard count.
func TestCheckpointResume(t *testing.T) {
	base := parityConfigs()["ch4-batch"]
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(ref)

	path := filepath.Join(t.TempDir(), "cp.json")
	cfg := base
	cfg.Shards = 2
	cfg.CheckpointPath = path
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResult(first); got != want {
		t.Fatalf("checkpointing run diverged:\n%s", firstDiff(want, got))
	}

	// Resume at a different shard count: the checkpoint identity excludes
	// the shard count because runs are byte-identical at every S.
	cfg.Shards = 4
	resumed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResult(resumed); got != want {
		t.Fatalf("resumed run diverged:\n%s", firstDiff(want, got))
	}
}

// TestCheckpointResumeWithValidate interrupts validated sessions midway
// and resumes them from the checkpoint. The replayed barriers must re-run
// validation and queue the same follow-up re-checks, so the resumed
// Result — invariant errors included — matches the uninterrupted one.
// The harsh variant (heavy churn measured one second after each round,
// 10% control loss) does report invariant errors, so the re-derivation
// is exercised, not just the empty case.
func TestCheckpointResumeWithValidate(t *testing.T) {
	harsh := parityConfigs()["ch3-churn"]
	harsh.Seed = 3
	harsh.ChurnPct = 50
	harsh.IntervalS = 20
	harsh.SettleS = 1
	harsh.CtrlLossProb = 0.1
	for name, cfg := range map[string]Config{"ch3-churn": parityConfigs()["ch3-churn"], "ch3-churn-harsh": harsh} {
		t.Run(name, func(t *testing.T) {
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := renderResult(ref)
			if name == "ch3-churn-harsh" && len(ref.InvariantErrors) == 0 {
				t.Fatal("harsh session reports no invariant errors; the test no longer covers follow-up re-derivation")
			}

			cfg.CheckpointPath = filepath.Join(t.TempDir(), "cp.json")
			cut := cfg.DurationS * 0.6
			interrupted := cfg
			interrupted.ProgressEveryS = 1
			interrupted.Progress = func(p ProgressInfo) {
				if p.T >= cut {
					panic("interrupted")
				}
			}
			func() {
				defer func() {
					if r := recover(); r != "interrupted" {
						t.Fatalf("interrupted run: recovered %v", r)
					}
				}()
				Run(interrupted)
			}()
			data, err := os.ReadFile(cfg.CheckpointPath)
			if err != nil {
				t.Fatalf("interrupted run wrote no checkpoint: %v", err)
			}
			var f checkpointFile
			if err := json.Unmarshal(data, &f); err != nil {
				t.Fatal(err)
			}
			if f.T <= 0 || f.T >= cut {
				t.Fatalf("checkpoint at t=%v, want one inside (0, %v)", f.T, cut)
			}

			resumed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderResult(resumed); got != want {
				t.Fatalf("resumed run diverged from the uninterrupted one:\n%s", firstDiff(want, got))
			}
		})
	}
}
