// The simulation engine: a conservative bounded-lookahead discrete-event
// core over S event-queue shards. S = 1 is a plain single-queue
// simulation; every S produces byte-identical results.
//
// Peers are partitioned across shards (slot mod S), each shard owning a
// private event queue. Shard 0 runs on the controller's goroutine and
// shards 1..S-1 on their own. Execution alternates between epochs and
// barriers:
//
//   - An epoch runs every shard forward to a shared horizon
//     min-next-event + lookahead, where lookahead is the underlay's
//     minimum one-way delay (unbounded at S = 1). Any message an event at
//     time τ sends lands at τ + delay ≥ τ + lookahead ≥ horizon, so
//     nothing a shard does inside the epoch can affect another shard
//     within the same epoch — the classic conservative-lookahead argument.
//   - At the barrier, cross-shard messages buffered in per-destination
//     outboxes are exchanged into the destination queues in a
//     deterministic total order (deliver-time, sender, send-index).
//
// Barriers also fall at every progress-report and flight-recorder flush
// boundary, so observers see the run at the cadence they asked for even
// when the lookahead is unbounded. Those barriers only observe: cutting
// an epoch in two fires the same events in the same order.
//
// Determinism does not come from the barriers alone: every random draw
// that would consume a shared stream in global event order (chunk loss,
// control loss, delivery jitter, probe jitter, loss estimates) is keyed —
// a pure function of (seed, edge, per-edge send index) — so the values
// cannot depend on how events interleave across shards. That is why every
// S produces identical experiment output (guarded by
// TestShardedRunsAreByteIdentical).
//
// Measurements, validation follow-ups and checkpoints run on the
// controller at stop barriers, in a single queue's equal-time order:
// setup-band events, then measures, then follow-ups, then runtime events.
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"vdm/internal/eventq"
	"vdm/internal/metrics"
	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/rng"
	"vdm/internal/scenario"
	"vdm/internal/underlay"
	"vdm/internal/vdist"
)

// runtimeSeqBase separates setup-scheduled events (tick starter, scenario
// script) from events created while the simulation runs. At a stop
// barrier the shards fire exactly the setup band of that instant
// (eventq.RunBand), the controller then measures, and runtime events at
// the same instant fire afterwards — the order one queue's monotone
// sequence numbers give when measures are scheduled at setup.
const runtimeSeqBase = uint64(1) << 40

// Membership-plan actions. A join for an already-alive slot and a leave
// for a dead slot (or the source) are no-ops; the plan precomputes those
// decisions so every shard sees the same membership ordinals without
// coordination.
const (
	actNone = iota
	actSpawn
	actLeave
)

type plannedEvent struct {
	ev     scenario.Event
	act    int
	memIdx int // membership ordinal for actSpawn (source = 0)
}

// aliveSpan is one membership of a slot: [join, leave).
type aliveSpan struct{ join, leave float64 }

// membershipPlan is the precomputed membership timeline. It exists so a
// sender can answer "is the destination registered at virtual time t?"
// without touching the destination shard: leaves unregister
// synchronously, so registration is a pure function of the scenario
// script.
type membershipPlan struct {
	events    []plannedEvent
	spans     [][]aliveSpan // by slot
	totalMems int
}

func planMemberships(scn *scenario.Scenario) *membershipPlan {
	p := &membershipPlan{
		events: make([]plannedEvent, len(scn.Events)),
		spans:  make([][]aliveSpan, scn.PoolSize),
	}
	alive := make([]bool, scn.PoolSize)
	alive[0] = true // the source is spawned at build time
	p.spans[0] = []aliveSpan{{0, math.Inf(1)}}
	next := 1
	for i, ev := range scn.Events {
		pe := plannedEvent{ev: ev, act: actNone, memIdx: -1}
		if ev.Join {
			if !alive[ev.Slot] {
				alive[ev.Slot] = true
				pe.act = actSpawn
				pe.memIdx = next
				next++
				p.spans[ev.Slot] = append(p.spans[ev.Slot], aliveSpan{ev.T, math.Inf(1)})
			}
		} else if ev.Slot != 0 && alive[ev.Slot] {
			alive[ev.Slot] = false
			pe.act = actLeave
			spans := p.spans[ev.Slot]
			spans[len(spans)-1].leave = ev.T
		}
		p.events[i] = pe
	}
	p.totalMems = next
	return p
}

// aliveAt reports whether slot id is registered at time t. A membership
// spans [join, leave): the join event registers at its own timestamp, the
// leave unregisters at its.
func (p *membershipPlan) aliveAt(id overlay.NodeID, t float64) bool {
	spans := p.spans[int(id)]
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if spans[mid].join <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && t < spans[lo-1].leave
}

// lockedSink serializes trace emission across shard goroutines.
type lockedSink struct {
	mu sync.Mutex
	s  obs.Sink
}

func (l *lockedSink) Emit(e obs.Event) {
	l.mu.Lock()
	l.s.Emit(e)
	l.mu.Unlock()
}

// Epoch commands sent to shard workers.
const (
	cmdBefore    = iota // RunBefore(t): fire events strictly before t
	cmdBand             // RunBand(t, runtimeSeqBase): before t plus t's setup band
	cmdInclusive        // Run(t): everything up to and including t
)

type epochCmd struct {
	mode int
	t    float64
}

type shardWorker struct {
	sim  *eventq.Sim
	cmds chan epochCmd // nil for shard 0, which the controller runs

	// timed turns on busy-time accounting for the flight recorder (set
	// before the worker goroutines start). busyNS is cumulative wall time
	// spent executing epoch commands on sampled epochs (the controller
	// raises timeEpoch on every Nth epoch; clock reads on each of the
	// engine's very small epochs would dominate the recorder's overhead).
	// A worker goroutine writes busyNS before the done handshake and the
	// controller reads it after, so no atomics needed.
	timed  bool
	busyNS int64
}

type followupCheck struct {
	fireT float64 // measure time + 5 s, the re-check delay
	measT float64
	first map[string]bool
}

// session is one running simulation.
type session struct {
	cfg    Config
	scn    *scenario.Scenario
	u      underlay.Underlay
	metric vdist.Metric

	degrees   []int
	protoSeed int64
	dataDT    float64

	router  *overlay.Router
	workers []*shardWorker
	done    chan error

	// bySlot is the live roster, indexed by host slot (nil = slot not
	// alive); allByMem holds every membership's peer base by membership
	// ordinal. Both are written by shard goroutines at disjoint indices (a
	// slot belongs to exactly one shard; membership ordinals are
	// precomputed) and read by the controller only at barriers, where the
	// done-channel handshake provides the happens-before edge.
	bySlot   []overlay.Protocol
	allByMem []*overlay.Peer

	samples    []Sample
	invErrs    []string
	ctrlEvents uint64 // controller-fired measures + follow-ups, counted as events

	// sink is the trace sink spawns use (lock-wrapped across shards).
	sink obs.Sink
	// scnFires and tick are the event-argument slabs of the join-storm
	// flattening: one record per scenario event and a single mutated
	// ticker record, instead of a closure per event.
	scnFires []scnFire
	tick     dataTick

	// timeEpoch marks the current epoch as timing-sampled. The controller
	// writes it before dispatching the epoch's commands and workers read
	// it after receiving them, so the channel send orders the accesses.
	timeEpoch bool
}

// Run executes one session and returns its aggregated result.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	S := cfg.Shards
	if S < 0 {
		return nil, fmt.Errorf("sim: Shards must be ≥ 0, got %d", S)
	}
	if S == 0 {
		S = 1
	}

	scn, cfg := buildScenario(cfg)
	u, err := buildUnderlay(cfg, scn.PoolSize)
	if err != nil {
		return nil, err
	}

	plan := planMemberships(scn)
	s := &session{
		cfg:       cfg,
		scn:       scn,
		u:         u,
		metric:    buildMetric(cfg.Metric, u, rng.DeriveSeed(cfg.Seed, "estimator")),
		degrees:   drawDegrees(cfg, scn.PoolSize, rng.Derive(cfg.Seed, "degrees")),
		protoSeed: rng.DeriveSeed(cfg.Seed, "proto"),
		dataDT:    1 / cfg.DataRate,
		done:      make(chan error, S-1), // one slot per worker goroutine
		bySlot:    make([]overlay.Protocol, scn.PoolSize),
		allByMem:  make([]*overlay.Peer, plan.totalMems),
		sink:      cfg.EventSink,
	}

	sims := make([]*eventq.Sim, S)
	for i := range sims {
		sims[i] = eventq.New()
		w := &shardWorker{sim: sims[i]}
		if i > 0 {
			w.cmds = make(chan epochCmd)
		}
		s.workers = append(s.workers, w)
	}
	s.router = overlay.NewRouter(u, rng.DeriveSeed(cfg.Seed, "net"), sims, plan.aliveAt)
	s.router.CtrlLossProb = cfg.CtrlLossProb
	if cfg.Trace != nil {
		trace := cfg.Trace
		s.router.SetTraceFn(func(at float64, from, to overlay.NodeID, m overlay.Message) {
			trace(at, int(from), int(to), fmt.Sprintf("%T", m))
		})
	}
	if s.sink != nil && S > 1 {
		s.sink = &lockedSink{s: s.sink}
	}

	// Setup band: the source, the data stream, the scenario script.
	// Equal-time events on one shard keep this schedule order.
	s.spawn(s.router.Net(0), 0, 0)
	s.tick = dataTick{s: s, sim: sims[0]}
	sims[0].At(0, dataTickRun, &s.tick)
	s.scnFires = make([]scnFire, len(plan.events))
	for i := range plan.events {
		pe := &plan.events[i]
		sh := s.router.ShardOf(overlay.NodeID(pe.ev.Slot))
		s.scnFires[i] = scnFire{s: s, net: s.router.Net(sh), pe: pe}
		sims[sh].At(pe.ev.T, scnFireRun, &s.scnFires[i])
	}
	for _, q := range sims {
		q.SetSeqBase(runtimeSeqBase)
	}

	lookahead := math.Inf(1)
	if S > 1 {
		lookahead = u.MinOneWayDelayMS() / 1000
	}

	// Flight recorder: per-shard send probes (lock-free; merged at
	// barriers) and busy-time accounting on the workers.
	prof := newShardProf(newSessionRecorder(cfg, scn, S, lookahead), S)
	if prof != nil {
		for i, w := range s.workers {
			s.router.Net(i).SetSendProbe(prof.rec.Probe(i))
			w.timed = true
		}
	}

	s.startWorkers()
	defer s.stopWorkers()
	if err := s.controllerLoop(lookahead, prof); err != nil {
		return nil, err
	}
	if err := prof.close(); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// dataTick is the source's chunk ticker: one record, mutated in place and
// rescheduled, instead of a fresh closure pair per emitted chunk.
type dataTick struct {
	s   *session
	sim *eventq.Sim
	seq int64
}

// dataTickRun emits the next chunk and reschedules (arg: *dataTick).
func dataTickRun(a any) {
	t := a.(*dataTick)
	if src := t.s.bySlot[0]; src != nil {
		src.Base().EmitChunk(t.seq)
	}
	t.seq++
	t.sim.After(t.s.dataDT, dataTickRun, t)
}

// scnFire carries one planned scenario event to its owning shard.
type scnFire struct {
	s   *session
	net *overlay.Network
	pe  *plannedEvent
}

// scnFireRun applies one scheduled membership event (arg: *scnFire).
// No-op events still fire and count.
func scnFireRun(a any) {
	f := a.(*scnFire)
	switch f.pe.act {
	case actSpawn:
		f.s.spawn(f.net, f.pe.ev.Slot, f.pe.memIdx)
	case actLeave:
		p := f.s.bySlot[f.pe.ev.Slot]
		f.s.bySlot[f.pe.ev.Slot] = nil
		p.Leave()
	}
}

// spawn builds, registers and starts the protocol instance of one
// membership on its owning shard's bus.
func (s *session) spawn(net *overlay.Network, slot, memIdx int) {
	p := buildProtocol(s.cfg, net, s.metric, s.degrees, slot, memIdx, s.protoSeed, s.sink)
	if s.cfg.StatusPeriodS > 0 {
		if slot == 0 && s.cfg.StatusHandler != nil {
			p.Base().SetStatusHandler(s.cfg.StatusHandler)
		}
		p.Base().EnableStatusReports(s.cfg.StatusPeriodS)
	}
	net.Register(overlay.NodeID(slot), p)
	s.bySlot[slot] = p
	s.allByMem[memIdx] = p.Base()
	if slot != 0 {
		p.StartJoin()
	}
}

// startWorkers starts a goroutine for every shard but shard 0.
func (s *session) startWorkers() {
	for _, w := range s.workers[1:] {
		go func(w *shardWorker) {
			for cmd := range w.cmds {
				s.done <- s.runCmd(w, cmd)
			}
		}(w)
	}
}

func (s *session) stopWorkers() {
	for _, w := range s.workers[1:] {
		close(w.cmds)
	}
}

// runCmd executes one epoch command on w's queue, adding its wall time to
// w's busy total on timing-sampled epochs.
func (s *session) runCmd(w *shardWorker, cmd epochCmd) error {
	if !w.timed || !s.timeEpoch {
		return runEpochCmd(w.sim, cmd)
	}
	t0 := time.Now()
	err := runEpochCmd(w.sim, cmd)
	w.busyNS += int64(time.Since(t0))
	return err
}

func runEpochCmd(sim *eventq.Sim, cmd epochCmd) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: shard panic: %v\n%s", r, debug.Stack())
		}
	}()
	switch cmd.mode {
	case cmdBefore:
		sim.RunBefore(cmd.t)
	case cmdBand:
		sim.RunBand(cmd.t, runtimeSeqBase)
	case cmdInclusive:
		sim.Run(cmd.t)
	}
	return nil
}

// phase runs one epoch command on every shard that has work before the
// horizon — shard 0 inline, the others on their goroutines — and waits
// for all of them. Shards with nothing to do are skipped (their clock
// lags, which is harmless: every event they will ever receive is
// timestamped at or after the horizon).
func (s *session) phase(mode int, t float64) error {
	cmd := epochCmd{mode: mode, t: t}
	hasWork := func(w *shardWorker) bool {
		at, ok := w.sim.NextAt()
		return ok && at <= t && !(mode == cmdBefore && at == t)
	}
	n := 0
	for _, w := range s.workers[1:] {
		if hasWork(w) {
			w.cmds <- cmd
			n++
		}
	}
	var firstErr error
	if w := s.workers[0]; hasWork(w) {
		firstErr = s.runCmd(w, cmd)
	}
	for i := 0; i < n; i++ {
		if err := <-s.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *session) eventsProcessed() uint64 {
	total := s.ctrlEvents
	for _, w := range s.workers {
		total += w.sim.Processed()
	}
	return total
}

// controllerLoop advances the shards epoch by epoch, stopping at
// measurement instants, follow-up re-checks and the session end, and
// cutting plain barriers at progress and flush boundaries. prof, when
// non-nil, records engine telemetry at barriers (it never schedules
// events, so profiled and unprofiled runs fire the identical sequence).
func (s *session) controllerLoop(lookahead float64, prof *shardProf) error {
	cfg := s.cfg
	duration := cfg.DurationS

	// Measurement instants in firing order: (time, schedule order).
	measures := make([]float64, 0, len(s.scn.MeasureTimes))
	for _, t := range s.scn.MeasureTimes {
		if t <= duration {
			measures = append(measures, t)
		}
	}
	sort.Stable(sort.Float64Slice(measures))
	mIdx := 0

	var followups []followupCheck

	cp, resume, err := s.loadCheckpoint()
	if err != nil {
		return err
	}

	lastCp := math.Inf(-1)
	prog := newProgressReporter(cfg)
	var epochs uint64
	progress := func(t float64) {
		prog.report(t, s.eventsProcessed(), epochs)
	}

	for {
		nextStop := duration
		if mIdx < len(measures) && measures[mIdx] < nextStop {
			nextStop = measures[mIdx]
		}
		if len(followups) > 0 && followups[0].fireT < nextStop {
			nextStop = followups[0].fireT
		}

		tmin := math.Inf(1)
		for _, w := range s.workers {
			if at, ok := w.sim.NextAt(); ok && at < tmin {
				tmin = at
			}
		}
		horizon := math.Min(tmin+lookahead, math.Min(prog.nextAt(), prof.nextFlush()))

		if horizon < nextStop {
			// Plain epoch: no measurement inside, just advance and
			// exchange. Every cross-shard delivery sent by an event at
			// τ ≥ tmin lands at τ + delay ≥ tmin + lookahead ≥ horizon,
			// after the barrier.
			timedEpoch := prof.beginEpoch(s)
			var t0 time.Time
			if timedEpoch {
				t0 = time.Now()
			}
			if err := s.phase(cmdBefore, horizon); err != nil {
				return err
			}
			moved := s.router.Exchange()
			epochs++
			if prof != nil {
				prof.noteEpoch(s, horizon, moved, epochWall(timedEpoch, t0))
				prof.maybeFlush(s, horizon, false)
			}
			progress(horizon)
			continue
		}

		// Stop barrier at nextStop: fire everything before it plus its
		// setup band, then run the controller work for this instant.
		t := nextStop
		timedEpoch := prof.beginEpoch(s)
		var t0 time.Time
		if timedEpoch {
			t0 = time.Now()
		}
		if err := s.phase(cmdBand, t); err != nil {
			return err
		}
		moved := s.router.Exchange()
		epochs++
		if prof != nil {
			prof.noteEpoch(s, t, moved, epochWall(timedEpoch, t0))
		}

		for mIdx < len(measures) && measures[mIdx] == t {
			s.ctrlEvents++
			// A resumed run takes the samples up to the checkpoint from
			// the file but still validates, so it queues the same
			// follow-ups as the uninterrupted run.
			followups = s.measure(t, followups, duration, resume == nil || t > resume.T)
			mIdx++
		}
		for len(followups) > 0 && followups[0].fireT == t {
			s.ctrlEvents++
			s.recheck(followups[0])
			followups = followups[1:]
		}

		if resume != nil && t >= resume.T {
			if err := s.verifyResume(resume, t, mIdx); err != nil {
				return err
			}
			resume = nil
			lastCp = t // the on-disk checkpoint is already this barrier
		} else if cp != nil && resume == nil && mIdx > 0 && measures[mIdx-1] == t {
			if t-lastCp >= cfg.CheckpointEveryS {
				if err := cp.write(s, t, mIdx); err != nil {
					return err
				}
				lastCp = t
			}
		}
		if prof != nil && t < duration {
			prof.maybeFlush(s, t, false)
		}
		progress(t)

		if t == duration {
			// The session end is inclusive: runtime events at exactly the
			// end instant still fire. Their sends schedule deliveries that
			// never run, so buffered cross-shard ones are discarded.
			timedEpoch = prof.beginEpoch(s)
			if timedEpoch {
				t0 = time.Now()
			}
			if err := s.phase(cmdInclusive, duration); err != nil {
				return err
			}
			s.router.DiscardOutboxes()
			epochs++
			if prof != nil {
				prof.noteEpoch(s, duration, 0, epochWall(timedEpoch, t0))
				prof.maybeFlush(s, duration, true)
			}
			progress(duration)
			return nil
		}
	}
}

// measure takes the sample at a stop barrier (unless record is false: a
// resumed run replaying past its checkpoint already has it) and validates
// the tree, returning the (possibly extended) follow-up queue.
func (s *session) measure(t float64, followups []followupCheck, duration float64, record bool) []followupCheck {
	if record {
		s.samples = append(s.samples, Sample{
			T:        t,
			Tree:     metrics.Collect(s.views(), 0, s.u),
			Loss:     lossOverPeers(s.allByMem, s.dataDT, t),
			Overhead: s.router.Overhead(),
		})
	}
	if !s.cfg.Validate {
		return followups
	}
	errs := s.validate()
	// Parent/child symmetry is eventually consistent (a Detach or
	// ParentChange may be in flight at the snapshot instant), so only
	// violations still present 5 s later are real. Re-checks past the
	// session end never fire.
	if len(errs) == 0 || t+5 > duration {
		return followups
	}
	first := make(map[string]bool, len(errs))
	for _, e := range errs {
		first[e] = true
	}
	return append(followups, followupCheck{fireT: t + 5, measT: t, first: first})
}

func (s *session) recheck(f followupCheck) {
	for _, e := range s.validate() {
		if f.first[e] {
			s.invErrs = append(s.invErrs, fmt.Sprintf("t=%.0f: %s", f.measT, e))
		}
	}
}

func (s *session) validate() []string {
	return metrics.Validate(s.views(), 0, func(id overlay.NodeID) int { return s.degrees[int(id)] })
}

// views lists the live protocol instances in ascending slot order.
func (s *session) views() []overlay.TreeView {
	out := make([]overlay.TreeView, 0, len(s.bySlot))
	for _, p := range s.bySlot {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}
