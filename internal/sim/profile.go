package sim

import (
	"math"
	"time"

	"vdm/internal/obs/simprof"
	"vdm/internal/overlay"
	"vdm/internal/scenario"
	"vdm/internal/underlay"
)

// ProgressInfo is one progress callback's payload.
type ProgressInfo struct {
	T            float64 // virtual time reached
	Events       uint64  // cumulative events fired
	Epochs       uint64  // cumulative epoch barriers
	EventsPerSec float64 // wall-clock event throughput since the previous callback
}

// progressReporter rate-limits Progress callbacks and computes the
// wall-clock event throughput between them. Report boundaries are the
// multiples of the reporting step, indexed by an integer count so that
// they never drift (the controller cuts a barrier at each one). A nil
// reporter is inert.
type progressReporter struct {
	fn         func(ProgressInfo)
	every      bool    // ProgressEveryS = 0: report at every barrier
	step       float64 // boundary spacing in simulated seconds
	k          float64 // index of the next boundary
	lastWall   time.Time
	lastEvents uint64
}

func newProgressReporter(cfg Config) *progressReporter {
	if cfg.Progress == nil {
		return nil
	}
	p := &progressReporter{
		fn:       cfg.Progress,
		step:     cfg.ProgressEveryS,
		k:        1,
		lastWall: time.Now(),
	}
	if p.step <= 0 {
		p.every, p.step = true, 1
	}
	return p
}

// nextAt returns the next report boundary (+Inf when reporting is off).
func (p *progressReporter) nextAt() float64 {
	if p == nil {
		return math.Inf(1)
	}
	return p.k * p.step
}

func (p *progressReporter) report(t float64, events, epochs uint64) {
	if p == nil {
		return
	}
	due := t >= p.nextAt()
	if due {
		p.k = nextBoundary(t, p.step)
	}
	if !due && !p.every {
		return
	}
	now := time.Now()
	var rate float64
	if d := now.Sub(p.lastWall).Seconds(); d > 0 {
		rate = float64(events-p.lastEvents) / d
	}
	p.fn(ProgressInfo{T: t, Events: events, Epochs: epochs, EventsPerSec: rate})
	p.lastWall, p.lastEvents = now, events
}

// nextBoundary returns the index k of the first multiple k·step strictly
// after t.
func nextBoundary(t, step float64) float64 {
	k := math.Floor(t/step) + 1
	for k*step <= t {
		k++
	}
	return k
}

// newSessionRecorder builds the flight recorder for a session, or nil when
// profiling is off (no Profile options or no destination writer).
func newSessionRecorder(cfg Config, scn *scenario.Scenario, shards int, lookaheadS float64) *simprof.Recorder {
	if cfg.Profile == nil || cfg.Profile.W == nil {
		return nil
	}
	return simprof.NewRecorder(*cfg.Profile, simprof.RunInfo{
		Engine:     "sharded",
		Shards:     shards,
		Pool:       scn.PoolSize,
		LookaheadS: lookaheadS,
		Protocol:   string(cfg.Protocol),
		Nodes:      cfg.Nodes,
		Seed:       cfg.Seed,
		DurationS:  cfg.DurationS,
	}, shards)
}

// shardState snapshots one shard's event queue and bus for a profiler
// flush.
func shardState(net *overlay.Network) simprof.ShardState {
	q := net.Sim
	return simprof.ShardState{
		Processed:  q.Processed(),
		Deliveries: net.Deliveries(),
		Queue:      q.Pending(),
		Free:       q.FreeLen(),
	}
}

// protoSample takes the flight recorder's protocol-level sample: live
// population and attachment, session-cumulative orphan/reconnect counts,
// and a tree cost/depth pass over the reachable peers (the same memoized
// depth walk finalTree uses). all may contain nil entries (the
// preallocated membership roster).
func protoSample(views []overlay.TreeView, all []*overlay.Peer, u underlay.Underlay) simprof.Proto {
	var p simprof.Proto
	p.Alive = len(views)

	byID := make(map[overlay.NodeID]overlay.TreeView, len(views))
	for _, v := range views {
		byID[v.ID()] = v
	}
	depth := map[overlay.NodeID]int{0: 0}
	var depthOf func(id overlay.NodeID) int
	depthOf = func(id overlay.NodeID) int {
		if d, ok := depth[id]; ok {
			return d
		}
		v, ok := byID[id]
		if !ok || v.ParentID() == overlay.None {
			depth[id] = -1
			return -1
		}
		depth[id] = len(views) + 1 // cycle guard while recursing
		pd := depthOf(v.ParentID())
		if pd < 0 {
			depth[id] = -1
		} else {
			depth[id] = pd + 1
		}
		return depth[id]
	}

	var depthSum, reachNonSrc int
	for _, v := range views {
		if v.IsSource() {
			p.Reachable++
			continue
		}
		if v.ParentID() == overlay.None {
			p.Unattached++
			continue
		}
		d := depthOf(v.ID())
		if d < 0 {
			continue
		}
		p.Reachable++
		reachNonSrc++
		depthSum += d
		if d > p.DepthMax {
			p.DepthMax = d
		}
		p.TreeCostMS += u.BaseRTT(int(v.ID()), int(v.ParentID()))
	}
	if reachNonSrc > 0 {
		p.DepthMean = float64(depthSum) / float64(reachNonSrc)
	}

	for _, peer := range all {
		if peer == nil {
			continue
		}
		st := peer.Stats()
		p.Orphans += st.OrphanCount
		p.Reconnects += len(st.Reconnects)
	}
	return p
}

// epochSampleEvery is the flight recorder's epoch-timing sample rate:
// wall clocks are read on every Nth barrier round and the busy/wait
// totals scaled back up at flush. The engine runs hundreds of thousands
// of sub-millisecond epochs per session, so timing each one would cost
// more than everything it measures; at 1-in-8 the per-interval estimate
// still averages thousands of sampled rounds.
const epochSampleEvery = 8

// shardProf couples the flight recorder to the engine controller: it
// tracks per-worker cumulative busy-time snapshots between barriers and
// cuts records at flush barriers. A nil *shardProf is inert, so the
// controller calls it unconditionally.
type shardProf struct {
	rec       *simprof.Recorder
	prevBusy  []int64
	busyDelta []int64
	states    []simprof.ShardState
	lastT     float64
	epochIdx  uint64
}

func newShardProf(rec *simprof.Recorder, shards int) *shardProf {
	if rec == nil {
		return nil
	}
	return &shardProf{
		rec:       rec,
		prevBusy:  make([]int64, shards),
		busyDelta: make([]int64, shards),
		states:    make([]simprof.ShardState, shards),
	}
}

// nextFlush returns the recorder's next flush boundary (+Inf when
// profiling is off).
func (sp *shardProf) nextFlush() float64 {
	if sp == nil {
		return math.Inf(1)
	}
	return sp.rec.NextFlush()
}

// beginEpoch decides whether the coming barrier round is timing-sampled
// and publishes the decision to the workers (via ss.timeEpoch, ordered by
// the command-channel sends). Nil-safe: off means never sampled.
func (sp *shardProf) beginEpoch(ss *session) bool {
	if sp == nil {
		return false
	}
	timed := sp.epochIdx%epochSampleEvery == 0
	sp.epochIdx++
	ss.timeEpoch = timed
	return timed
}

// epochWall converts a sampled round's start time into the wall-clock
// argument noteEpoch expects (negative = round not sampled).
func epochWall(timed bool, t0 time.Time) int64 {
	if !timed {
		return -1
	}
	return int64(time.Since(t0))
}

// noteEpoch folds one barrier round ending at virtual time t. Worker
// busy-time fields are read after the done-channel handshake, which orders
// the reads after the workers' writes.
func (sp *shardProf) noteEpoch(ss *session, t float64, moved int, wallNS int64) {
	if sp == nil {
		return
	}
	busy := sp.busyDelta[:0:0]
	if wallNS >= 0 {
		for i, w := range ss.workers {
			sp.busyDelta[i] = w.busyNS - sp.prevBusy[i]
			sp.prevBusy[i] = w.busyNS
		}
		busy = sp.busyDelta
	}
	adv := t - sp.lastT
	if sp.lastT > t {
		adv = 0
	}
	sp.rec.NoteEpoch(adv, moved, wallNS, busy)
	sp.lastT = t
}

// maybeFlush cuts a record at virtual time t when one is due (or forced,
// at the session end).
func (sp *shardProf) maybeFlush(ss *session, t float64, force bool) {
	if sp == nil || (!force && !sp.rec.Due(t)) {
		return
	}
	for i := range ss.workers {
		sp.states[i] = shardState(ss.router.Net(i))
	}
	sp.rec.Flush(t, sp.states, func() simprof.Proto {
		return protoSample(ss.views(), ss.allByMem, ss.u)
	})
}

func (sp *shardProf) close() error {
	if sp == nil {
		return nil
	}
	return sp.rec.Close()
}
