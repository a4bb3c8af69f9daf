package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"vdm/internal/obs"
	"vdm/internal/obs/simprof"
	"vdm/internal/rng"
	"vdm/internal/sim"
	"vdm/internal/topology"
	"vdm/internal/underlay"
)

// The join-storm session: 20,000 VDM peers on the ~784-router
// transit-stub underlay, 5% churn, a join phase of half the session and
// a 0.2 chunks/s stream. sharded-join runs the same session on the
// sharded engine with one shard per core of the benchmark's two.
const (
	stormPeers    = 20_000
	stormRouters  = 784
	stormDuration = 300.0
	stormJoin     = 150.0
	stormRate     = 0.2
	stormChurn    = 5.0
	// stormIntervalS is the churn interval. The simulator's default
	// (400 s) never fires in a 300 s session; 50 s intervals with a 10 s
	// settle give the steady half three rounds of 5% churn.
	stormIntervalS = 50.0
	stormSettleS   = 10.0
	shardedShards  = 2
	// progressEveryS is the progress-callback cadence in simulated
	// seconds: the first callback marks the end of set-up and the first
	// one past the join phase the end of the join storm.
	progressEveryS = 0.01
)

func stormConfig(seed int64, shards int) sim.Config {
	return sim.Config{
		Seed:       seed,
		Protocol:   sim.VDM,
		Nodes:      stormPeers,
		ChurnPct:   stormChurn,
		IntervalS:  stormIntervalS,
		SettleS:    stormSettleS,
		DurationS:  stormDuration,
		JoinPhaseS: stormJoin,
		DataRate:   stormRate,
		RouterMin:  stormRouters,
		Underlay:   sim.Router,
		Shards:     shards,
	}
}

// resultDigest fingerprints a session's Result: every field but the
// Config (which differs between engines and holds callbacks), printed
// with exact float formatting and hashed.
func resultDigest(r *sim.Result) string {
	c := *r
	c.Config = sim.Config{}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(sum[:8])
}

// runSimWorkload drives join-storm (shards = 0, the serial engine) or
// sharded-join. Every repetition runs the same seeded session, so every
// Result must carry the same digest; sharded-join first runs the serial
// engine once, outside the measuring time, and holds each sharded Result
// to its digest.
func runSimWorkload(h *harness, shards int) error {
	want := ""
	if shards != 0 {
		id := h.spans.begin("reference-serial-session", 0)
		ref, err := sim.Run(stormConfig(h.seed, 0))
		h.spans.end(id)
		if err != nil {
			return fmt.Errorf("serial reference session: %w", err)
		}
		want = resultDigest(ref)
		// The reference is a check, not a measurement: the measuring time
		// starts after it.
		h.start = time.Now()
	}
	if d, ok := recordedDigests["join-storm"]; ok && h.seed == fingerprintSeed {
		if want != "" && want != d {
			h.check("serial reference digest %s differs from the recorded %s", want, d)
		}
		want = d
	}
	return h.repeat(func(traced bool) error {
		s, err := simSession(h, stormConfig(h.seed, shards), traced)
		if err != nil {
			return err
		}
		res := s.res
		failed := int64(res.FinalAlive - res.FinalReachable)
		if failed != 0 {
			h.check("%d of %d alive peers unreachable at session end", failed, res.FinalAlive)
		}
		d := resultDigest(res)
		if want == "" {
			want = d
		} else if d != want {
			h.check("result digest %s, want %s", d, want)
			failed = int64(res.FinalAlive)
		}
		h.fails.add(int64(res.FinalAlive), failed)

		p := s.probe
		work := p.Wall - s.setup
		h.record(traced, p.Wall, map[string]float64{
			"setup_s":          s.setup,
			"wall_s":           p.Wall,
			"events_per_s":     float64(res.EventsProcessed) / work,
			"peak_heap_mb":     p.PeakMB,
			"cpu_us_per_event": p.CPU * 1e6 / float64(res.EventsProcessed),
		})
		h.rep.Reps = append(h.rep.Reps, map[string]any{
			"traced": traced, "wall_s": p.Wall, "setup_s": s.setup, "join_wall_s": s.joinWall,
			"events": res.EventsProcessed, "cpu_s": p.CPU, "peak_heap_mb": p.PeakMB, "digest": d,
		})
		if traced {
			vals := p.layerValues()
			vals["sim.join_wall_s"] = s.joinWall
			vals["sim.steady_wall_s"] = p.Wall - s.setup - s.joinWall
			vals["topology.setup_s"] = timeRouterUnderlay(h, 0, h.seed, stormRouters, stormPeers+1, 0)
			for k, v := range s.layers {
				vals[k] = v
			}
			h.addLayer(vals)
		}
		return nil
	})
}

// simRun is one measured session.
type simRun struct {
	res      *sim.Result
	probe    probe
	setup    float64 // sim.Run call to the first processed step
	joinWall float64 // first step to the end of the join phase
	layers   map[string]float64
}

// simSession runs one session through sim.Run. Traced sessions also
// switch on the flight recorder and the protocol event sink.
func simSession(h *harness, cfg sim.Config, traced bool) (simRun, error) {
	var out simRun
	sess := h.spans.begin("session", 0)
	setup := h.spans.begin("setup", sess)
	var join, steady int
	var firstStep, joinEnd time.Time
	cfg.ProgressEveryS = progressEveryS
	cfg.Progress = func(p sim.ProgressInfo) {
		now := time.Now()
		if firstStep.IsZero() {
			firstStep = now
			h.spans.endAt(setup, now)
			join = h.spans.begin("join-phase", sess)
		}
		if joinEnd.IsZero() && p.T >= cfg.JoinPhaseS {
			joinEnd = now
			h.spans.endAt(join, now)
			steady = h.spans.begin("steady-phase", sess)
		}
	}
	var rec bytes.Buffer
	joins := &joinSink{}
	if traced {
		cfg.Profile = &simprof.Options{W: &rec}
		cfg.EventSink = joins
	}
	var res *sim.Result
	var start time.Time
	p, err := measure(traced, func() error {
		var err error
		start = time.Now()
		res, err = sim.Run(cfg)
		return err
	})
	end := time.Now()
	if steady != 0 {
		h.spans.endAt(steady, end)
	}
	h.spans.endAt(sess, end)
	if err != nil {
		return out, fmt.Errorf("sim.Run: %w", err)
	}
	if firstStep.IsZero() || joinEnd.IsZero() {
		return out, fmt.Errorf("session reported no progress past the join phase")
	}
	out = simRun{
		res: res, probe: p,
		setup:    firstStep.Sub(start).Seconds(),
		joinWall: joinEnd.Sub(firstStep).Seconds(),
	}
	if traced {
		recording, err := simprof.Read(&rec)
		if err != nil {
			return out, fmt.Errorf("flight recording: %w", err)
		}
		out.layers = recordingLayers(recording)
		for k, v := range joins.layers() {
			out.layers[k] = v
		}
	}
	return out, nil
}

// overlayMsgTypes are the message types reported by name from the flight
// recorder's message mix.
var overlayMsgTypes = []string{
	"DataChunk", "Ping", "InfoRequest", "InfoResponse", "ConnRequest",
	"ConnResponse", "ParentChange", "LeaveNotify",
}

// recordingLayers sums a flight recording into the eventq, overlay and
// sharded-engine layer metrics.
func recordingLayers(r *simprof.Recording) map[string]float64 {
	out := map[string]float64{}
	var events, deliveries, timers, epochs, xshard uint64
	queuePeak := 0
	var horizonSum float64
	var horizonN uint64
	msgs := map[string]uint64{}
	var busy, wait []float64
	for _, rec := range r.Records {
		events += rec.Events
		deliveries += rec.Deliveries
		timers += rec.Timers
		epochs += rec.Epochs
		xshard += rec.XShardMsgs
		if rec.Queue > queuePeak {
			queuePeak = rec.Queue
		}
		if d := rec.HorizonAdvMS; d != nil && d.N > 0 {
			horizonSum += d.Mean * float64(d.N)
			horizonN += d.N
		}
		for k, v := range rec.Msgs {
			msgs[k] += v
		}
		for i, s := range rec.Shards {
			for len(busy) <= i {
				busy = append(busy, 0)
				wait = append(wait, 0)
			}
			busy[i] += s.BusyMS
			wait[i] += s.WaitMS
		}
	}
	out["eventq.events"] = float64(events)
	out["eventq.deliveries"] = float64(deliveries)
	out["eventq.timers"] = float64(timers)
	out["eventq.queue_peak"] = float64(queuePeak)
	out["sim.epochs"] = float64(epochs)
	out["sim.xshard_msgs"] = float64(xshard)
	if horizonN > 0 {
		out["sim.horizon_adv_mean_ms"] = horizonSum / float64(horizonN)
	}
	if len(busy) > 0 {
		var busyTot, waitTot, busyMax float64
		for i := range busy {
			busyTot += busy[i]
			waitTot += wait[i]
			busyMax = math.Max(busyMax, busy[i])
		}
		if busyTot+waitTot > 0 {
			out["sim.barrier_wait_share"] = waitTot / (busyTot + waitTot)
		}
		if busyTot > 0 {
			out["sim.busy_imbalance"] = busyMax / (busyTot / float64(len(busy)))
		}
	}
	var total uint64
	for _, v := range msgs {
		total += v
	}
	for _, t := range overlayMsgTypes {
		out["overlay.msgs."+t] = float64(msgs[t])
	}
	out["overlay.msgs.total"] = float64(total)
	if data := msgs["DataChunk"]; data > 0 {
		out["overlay.control_per_data"] = float64(total-data) / float64(data)
	}
	return out
}

// joinSink collects the join lifecycle from the protocol event stream.
// Sharded sessions emit from several workers, hence the lock.
type joinSink struct {
	mu         sync.Mutex
	joins      int
	reconnects int
	steps      []float64
	durations  []float64
}

func (s *joinSink) Emit(e obs.Event) {
	if e.Type != obs.EvJoinDone {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case e.Detail == "join":
		s.joins++
	case strings.HasPrefix(e.Detail, "reconnect"):
		s.reconnects++
	default:
		return
	}
	s.steps = append(s.steps, float64(e.Step))
	s.durations = append(s.durations, e.Value)
}

func (s *joinSink) layers() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]float64{
		"core.joins":      float64(s.joins),
		"core.reconnects": float64(s.reconnects),
	}
	if len(s.steps) > 0 {
		out["core.join_steps_mean"] = mean(s.steps)
		out["core.join_sim_p50_s"], _ = quantile(s.durations, 0.50)
		out["core.join_sim_p99_s"], _ = quantile(s.durations, 0.99)
	}
	return out
}

// timeRouterUnderlay times the public constructors a router-underlay
// session runs before its first event: transit-stub generation, optional
// per-link loss, host attachment and the router underlay itself.
func timeRouterUnderlay(h *harness, parent int, seed int64, routers, hosts int, lossMax float64) float64 {
	id := h.spans.begin("topology-setup", parent)
	ts, err := topology.GenerateTransitStub(topology.ScaledTransitStub(routers), rng.Derive(seed, "topology"))
	if err != nil {
		h.check("topology: %v", err)
		return h.spans.end(id)
	}
	if lossMax > 0 {
		ts.AssignLinkLoss(lossMax, rng.Derive(seed, "linkloss"))
	}
	attach := ts.AttachHosts(hosts, rng.Derive(seed, "attach"))
	underlay.NewRouter(ts.Graph, attach)
	return h.spans.end(id)
}
