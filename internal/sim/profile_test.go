package sim

import (
	"bytes"
	"testing"

	"vdm/internal/obs/simprof"
)

// TestProfiledRunsAreByteIdentical is the flight recorder's determinism
// contract: attaching the profiler — at any shard count — must not
// change a single byte of the experiment output. The
// recorder observes (send probes, queue snapshots at barriers) but never
// schedules, so Result must render identically with profiling off or on.
func TestProfiledRunsAreByteIdentical(t *testing.T) {
	cfg := parityConfigs()["ch3-churn"]

	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(base)
	if base.EventsProcessed == 0 || len(base.Samples) == 0 {
		t.Fatalf("baseline run is degenerate: %d events, %d samples", base.EventsProcessed, len(base.Samples))
	}

	for _, shards := range []int{0, 1, 4} {
		var buf bytes.Buffer
		pcfg := cfg
		pcfg.Shards = shards
		pcfg.Profile = &simprof.Options{W: &buf, EveryS: 50}
		res, err := Run(pcfg)
		if err != nil {
			t.Fatalf("shards=%d profiled: %v", shards, err)
		}
		if got := renderResult(res); got != want {
			t.Fatalf("shards=%d profiled diverged from unprofiled:\n%s", shards, firstDiff(want, got))
		}

		rec, err := simprof.Read(&buf)
		if err != nil {
			t.Fatalf("shards=%d: reading recording: %v", shards, err)
		}
		// Shards 0 means one shard.
		wantEngine, wantShards := "sharded", max(shards, 1)
		if rec.Header.Engine != wantEngine || rec.Header.Shards != wantShards {
			t.Fatalf("shards=%d: header engine=%q shards=%d, want %q/%d",
				shards, rec.Header.Engine, rec.Header.Shards, wantEngine, wantShards)
		}
		if rec.Header.Nodes != cfg.Nodes || rec.Header.Seed != cfg.Seed {
			t.Fatalf("shards=%d: header nodes=%d seed=%d, want %d/%d",
				shards, rec.Header.Nodes, rec.Header.Seed, cfg.Nodes, cfg.Seed)
		}
		if len(rec.Records) == 0 {
			t.Fatalf("shards=%d: recording has no interval records", shards)
		}
		var events uint64
		var sawProto bool
		for _, r := range rec.Records {
			events += r.Events
			if r.T <= 0 || r.T > cfg.DurationS {
				t.Fatalf("shards=%d: record t=%v outside (0, %v]", shards, r.T, cfg.DurationS)
			}
			if r.Proto != nil {
				sawProto = true
			}
		}
		if events == 0 {
			t.Fatalf("shards=%d: recording counted zero events", shards)
		}
		// Queue events only; the controller's own measure/follow-up events
		// are engine bookkeeping the recorder does not see.
		if events > uint64(res.EventsProcessed) {
			t.Fatalf("shards=%d: recording counted %d events, result only %d",
				shards, events, res.EventsProcessed)
		}
		if !sawProto {
			t.Fatalf("shards=%d: no record carries a protocol sample", shards)
		}
		last := rec.Records[len(rec.Records)-1]
		if last.T != cfg.DurationS {
			t.Fatalf("shards=%d: last record at t=%v, want %v", shards, last.T, cfg.DurationS)
		}
	}
}

// TestProfiledEventCountsPinned pins the flight recorder's event ledger
// for a small fixed-seed session: the total events, and their split into
// message deliveries (counted by the bus that owns them) and timers.
// Every shard count must see the same totals.
func TestProfiledEventCountsPinned(t *testing.T) {
	const wantEvents, wantDeliveries, wantTimers = 21786, 17458, 4328
	for _, shards := range []int{1, 4} {
		cfg := parityConfigs()["ch3-churn"]
		cfg.Shards = shards
		var buf bytes.Buffer
		cfg.Profile = &simprof.Options{W: &buf, EveryS: 50}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		rec, err := simprof.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var events, deliveries, timers uint64
		for _, r := range rec.Records {
			events += r.Events
			deliveries += r.Deliveries
			timers += r.Timers
		}
		if events != wantEvents || deliveries != wantDeliveries || timers != wantTimers {
			t.Fatalf("shards=%d: events/deliveries/timers = %d/%d/%d, want %d/%d/%d",
				shards, events, deliveries, timers, wantEvents, wantDeliveries, wantTimers)
		}
	}
}

// TestObserverBoundariesCutBarriers pins the barrier cadence of the
// observers at S=1, where the lookahead is unbounded and the controller
// would otherwise stop only at measurements: a Progress callback lands on
// every multiple of ProgressEveryS, the first one no later than
// ProgressEveryS itself, and the flight recorder cuts one record per
// EveryS, each on its boundary.
func TestObserverBoundariesCutBarriers(t *testing.T) {
	cfg := parityConfigs()["ch3-churn"]
	cfg.Shards = 1
	const every = 0.5
	var reports []float64
	cfg.ProgressEveryS = every
	cfg.Progress = func(p ProgressInfo) { reports = append(reports, p.T) }
	var buf bytes.Buffer
	const flushS = 25.0
	cfg.Profile = &simprof.Options{W: &buf, EveryS: flushS}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	if len(reports) == 0 || reports[0] > every {
		t.Fatalf("first progress report at %v, want T <= %v", reports, every)
	}
	if want := int(cfg.DurationS / every); len(reports) != want {
		t.Fatalf("%d progress reports, want %d (one per %v s)", len(reports), want, every)
	}
	for i, T := range reports {
		if want := float64(i+1) * every; T != want {
			t.Fatalf("progress report %d at T=%v, want %v", i, T, want)
		}
	}

	rec, err := simprof.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(cfg.DurationS / flushS); len(rec.Records) != want {
		t.Fatalf("%d flight-recorder records, want %d (one per %v s)", len(rec.Records), want, flushS)
	}
	for i, r := range rec.Records {
		if want := float64(i+1) * flushS; r.T != want {
			t.Fatalf("record %d at T=%v, want %v", i, r.T, want)
		}
	}
}

// TestProfileRecordsShardRows checks the sharded recorder attributes
// work to every shard: each interval record carries one row per shard
// and epoch/horizon accounting.
func TestProfileRecordsShardRows(t *testing.T) {
	cfg := parityConfigs()["ch3-churn"]
	cfg.Shards = 4
	var buf bytes.Buffer
	cfg.Profile = &simprof.Options{W: &buf, EveryS: 100}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	rec, err := simprof.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var epochs uint64
	var rowEvents uint64
	for _, r := range rec.Records {
		if len(r.Shards) != 4 {
			t.Fatalf("record t=%v has %d shard rows, want 4", r.T, len(r.Shards))
		}
		epochs += r.Epochs
		for _, row := range r.Shards {
			rowEvents += row.Events
		}
		if d := r.HorizonAdvMS; r.Epochs > 0 && (d == nil || d.N == 0) {
			t.Fatalf("record t=%v has %d epochs but no horizon distribution", r.T, r.Epochs)
		}
	}
	if epochs == 0 {
		t.Fatal("recording counted zero epochs")
	}
	var total uint64
	for _, r := range rec.Records {
		total += r.Events
	}
	if rowEvents != total {
		t.Fatalf("shard rows sum to %d events, records total %d", rowEvents, total)
	}
}

// TestFinishWithUnjoinedRosterSlots pins the nil-guard in finish: when the
// session ends before the join phase does, the preallocated membership
// roster still holds nil entries for slots that never joined, and finish
// must skip them rather than dereference.
func TestFinishWithUnjoinedRosterSlots(t *testing.T) {
	cfg := parityConfigs()["ch3-churn"]
	cfg.DurationS = 120 // well inside the 200 s join phase
	cfg.IntervalS = 60
	cfg.SettleS = 20
	cfg.Validate = false
	cfg.ComputeMST = false
	cfg.Shards = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalAlive >= cfg.Nodes {
		t.Fatalf("FinalAlive = %d; want a partially-joined session (< %d) for this regression to bite", res.FinalAlive, cfg.Nodes)
	}
}
