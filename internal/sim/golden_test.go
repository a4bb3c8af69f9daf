package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointGoldenFingerprint pins the checkpoint identity and final
// state hash of one fixed two-shard session to golden values. The
// parity tests prove every shard count agrees with S=1; this test proves
// the whole stack agrees with its own history — any change that perturbs
// the event sequence (an RNG draw added or reordered, a timer scheduled
// differently, a metric computed in another order) moves the state hash
// and fails here, even if it moves every shard count in lockstep. The memory-layout work (slab-allocated timer and scenario
// records, compacted underlay caches, narrowed flow windows) was landed
// against these exact values.
//
// If this fails because the event history changed ON PURPOSE, re-pin:
//
//	go test ./internal/sim -run TestCheckpointGoldenFingerprint -v
//
// and copy the printed values — but say so in the commit message, since
// existing on-disk checkpoints stop resuming across that commit.
func TestCheckpointGoldenFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("several-second full session")
	}
	const (
		goldenIdentity  = uint64(8017969634256029170)
		goldenStateHash = uint64(18383255440439279947)
		goldenEvents    = uint64(80476)
	)
	path := filepath.Join(t.TempDir(), "cp.json")
	cfg := Config{
		Seed:             7,
		Protocol:         VDM,
		Nodes:            300,
		ChurnPct:         5,
		DurationS:        400,
		JoinPhaseS:       200,
		DataRate:         0.5,
		RouterMin:        120,
		Underlay:         Router,
		Shards:           2,
		CheckpointPath:   path,
		CheckpointEveryS: 200,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	var f struct {
		Identity  uint64 `json:"identity"`
		StateHash uint64 `json:"state_hash"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	t.Logf("identity=%d state_hash=%d events=%d reach=%d loss=%v stress=%v",
		f.Identity, f.StateHash, res.EventsProcessed, res.FinalReachable, res.Loss, res.Stress)
	if f.Identity != goldenIdentity {
		t.Errorf("checkpoint identity = %d, golden %d (config fingerprinting changed)", f.Identity, goldenIdentity)
	}
	if f.StateHash != goldenStateHash {
		t.Errorf("state hash = %d, golden %d (event history drifted)", f.StateHash, goldenStateHash)
	}
	if res.EventsProcessed != goldenEvents {
		t.Errorf("events processed = %d, golden %d", res.EventsProcessed, goldenEvents)
	}
	if res.FinalReachable != cfg.Nodes || res.Loss != 0 {
		t.Errorf("session degenerate: reachable=%d loss=%v", res.FinalReachable, res.Loss)
	}
}
