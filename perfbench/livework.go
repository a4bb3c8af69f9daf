package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vdm/internal/core"
	"vdm/internal/flow"
	"vdm/internal/live"
	"vdm/internal/metrics"
	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/rng"
	"vdm/internal/transport"
)

// live-udp: a real-clock cluster of a source and 16 joiners, degree 4, on
// UDP loopback sockets (not a real link), with the default batched data
// plane and flow control on. The source sends 256 B chunks open-loop on
// a fixed schedule; each chunk is timed from when it was due.
const (
	liveJoiners = 16
	liveDegree  = 4
	livePayload = 256
	// liveOpRate is the operating rate, below capacity, at which latency,
	// CPU and delivery are measured; liveOpChunks is one second of it.
	liveOpRate   = 2000
	liveOpChunks = 2000
	// liveRungS is the stream length of each ladder rung.
	liveRungS = 0.5
	// liveLimitMS is the ladder's latency limit on the p99.
	liveLimitMS = 50
	// liveQuiet ends a drain once no copy has arrived for this long;
	// liveDrainCap bounds a drain (an overloaded rung may never finish).
	liveQuiet    = 200 * time.Millisecond
	liveDrainCap = 5 * time.Second
	liveBootCap  = 20 * time.Second
)

// liveLadder is the fixed rate ladder in chunks/s. Every rung runs,
// including those above capacity, so the report shows the flow plane's
// overload behaviour rather than stopping short of it.
var liveLadder = []float64{1000, 2000, 4000, 6000, 9000, 14000}

func runLive(h *harness) error {
	// The ladder runs once per process, untraced, before the operating-
	// rate repetitions.
	ladder := make([]rung, len(liveLadder))
	for i, rate := range liveLadder {
		id := h.spans.begin(fmt.Sprintf("ladder-rung:%g", rate), 0)
		r, err := runLiveRound(h, id, h.seed+int64(i+1), rate, int(rate*liveRungS), nil)
		h.spans.end(id)
		if err != nil {
			return err
		}
		ladder[i] = r.rung()
	}
	h.rep.Ladder = ladder
	maxRate := 0.0
	if c := capacity(ladder, liveLimitMS); c >= 0 {
		maxRate = ladder[c].Achieved
	} else {
		h.check("lowest ladder rung %g chunks/s missed the %d ms p99 limit or lost copies", liveLadder[0], liveLimitMS)
	}

	var lat50, lat99, latTail, samples, cpuChunk, genLate []float64
	round := 0
	err := h.repeat(func(traced bool) error {
		// Each round draws its own peer seeds and payloads from the run's
		// seed: boot time and CPU per copy depend on the tree a seed
		// builds, so one seed per run would make the run's medians a
		// property of that one tree.
		seed := rng.DeriveSeed(h.seed, fmt.Sprintf("live-round:%d", round))
		round++
		var sink *countSink
		if traced {
			sink = &countSink{}
		}
		var op liveRound
		p, err := measure(traced, func() error {
			var err error
			id := h.spans.begin("live-round", 0)
			op, err = runLiveRound(h, id, seed, liveOpRate, liveOpChunks, sink)
			h.spans.end(id)
			return err
		})
		if err != nil {
			return err
		}

		// Only the operating rate counts towards failures: loss on the
		// rungs above capacity is the overload being measured.
		failed := op.expected - op.delivered
		if failed > 0 {
			h.check("%d of %d copies undelivered at the operating rate", failed, op.expected)
		}
		if len(op.treeErrs) > 0 {
			h.check("tree invalid after the stream: %v", op.treeErrs)
			failed = op.expected
		}
		if op.corrupt > 0 {
			h.check("%d copies arrived with the wrong payload", op.corrupt)
			failed = op.expected
		}
		h.fails.add(op.expected, failed)

		p50, _ := quantile(op.lat, 0.50)
		p99, n := quantile(op.lat, 0.99)
		tail := p99
		if q, ok := supportedQuantile(n, 10, []float64{0.99, 0.999, 0.9999}); ok {
			tail, _ = quantile(op.lat, q)
		}
		late99, _ := quantile(op.late, 0.99)
		cpuPerChunk := op.cpu * 1e6 / float64(op.delivered)
		h.rep.Reps = append(h.rep.Reps, map[string]any{
			"traced": traced, "boot_s": op.boot, "round_wall_s": op.wall, "latency_p50_ms": p50,
			"latency_p99_ms": p99, "latency_samples": n, "delivered": op.delivered, "expected": op.expected,
			"cpu_us_per_chunk": cpuPerChunk, "generator_late_p99_ms": late99,
		})
		// The open loop fixes the round's wall clock, so tracing overhead
		// is read from CPU time instead.
		h.record(traced, op.cpu, map[string]float64{
			"setup_s":          op.boot,
			"wall_s":           op.wall,
			"events_per_s":     float64(op.delivered) / op.cpu,
			"peak_heap_mb":     op.peakMB,
			"cpu_us_per_event": cpuPerChunk,
		})
		if !traced {
			lat50 = append(lat50, p50)
			lat99 = append(lat99, p99)
			latTail = append(latTail, tail)
			samples = append(samples, float64(n))
			cpuChunk = append(cpuChunk, cpuPerChunk)
			genLate = append(genLate, late99)
			return nil
		}
		vals := p.layerValues()
		for k, v := range op.layers {
			vals[k] = v
		}
		vals["live.generator_late_p99_ms"] = late99
		h.addLayer(vals)
		return nil
	})
	if err != nil {
		return err
	}
	named := map[string]metric{
		"chunk_latency_p50_ms":  {median(lat50), "ms"},
		"chunk_latency_p99_ms":  {median(lat99), "ms"},
		"chunk_latency_tail_ms": {median(latTail), "ms"},
		"chunk_latency_samples": {median(samples), "count"},
		"max_rate_chunks_per_s": {maxRate, "1/s"},
		"cpu_us_per_chunk":      {median(cpuChunk), "us"},
		"generator_late_p99_ms": {median(genLate), "ms"},
	}
	for k, v := range named {
		h.named[k] = v
	}
	if h.traced {
		h.addLayer(map[string]float64{
			"live.chunk_latency_p50_ms":  median(lat50),
			"live.chunk_latency_p99_ms":  median(lat99),
			"live.latency_samples":       median(samples),
			"live.max_rate_chunks_per_s": maxRate,
			"live.cpu_us_per_chunk":      median(cpuChunk),
		})
	}
	return nil
}

// liveRound is one booted cluster streaming one schedule.
type liveRound struct {
	rate      float64
	boot      float64 // first socket opened → every peer connected
	wall      float64 // first socket opened → last copy delivered
	streamS   float64 // first due send → last copy delivered
	cpu       float64 // process CPU over stream and drain
	peakMB    float64
	expected  int64
	delivered int64
	corrupt   int64
	lat       []float64 // ms from due time, one per delivered copy
	late      []float64 // generator lateness per chunk, ms
	treeErrs  []string
	layers    map[string]float64
}

func (r liveRound) rung() rung {
	g := rung{Rate: r.rate, Expected: r.expected, Delivered: r.delivered}
	if len(r.lat) > 0 {
		g.P50MS, _ = quantile(r.lat, 0.50)
		g.P99MS, _ = quantile(r.lat, 0.99)
	}
	if r.streamS > 0 {
		g.Achieved = float64(r.delivered) / liveJoiners / r.streamS
	}
	return g
}

// receiver records one joiner's deliveries. Its chunk observer runs on
// that peer's mailbox goroutine; the lock orders it with the reader.
type receiver struct {
	mu      sync.Mutex
	seen    []bool
	lat     []float64
	corrupt int64
}

// payloadFor is chunk seq's content for a seeded stream: a keyed
// pseudorandom fill, so every receiver can check every byte.
func payloadFor(seed int64, seq int) []byte {
	b := make([]byte, livePayload)
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(seq)*0xbf58476d1ce4e5b9
	for i := range b {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		b[i] = byte(x)
	}
	return b
}

// runLiveRound boots a fresh cluster, streams chunks at rate open-loop,
// drains, checks delivery and the tree, and tears the cluster down.
func runLiveRound(h *harness, parent int, seed int64, rate float64, chunks int, sink *countSink) (liveRound, error) {
	r := liveRound{rate: rate, expected: int64(chunks) * liveJoiners}
	payloads := make([][]byte, chunks)
	for i := range payloads {
		payloads[i] = payloadFor(seed, i)
	}
	interval := time.Duration(float64(time.Second) / rate)

	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	bootSpan := h.spans.begin("boot", parent)
	t0 := time.Now()
	epoch := t0
	var streamStart atomic.Int64 // ns since epoch of chunk 0's due time
	var delivered, lastRecv atomic.Int64
	allIn := make(chan struct{})
	flowCfg := &flow.Config{}
	newNode := func(bus overlay.Bus, id overlay.NodeID) *core.Node {
		n := core.New(bus, overlay.PeerConfig{
			ID: id, Source: 0, MaxDegree: liveDegree, IsSource: id == 0, Flow: flowCfg,
		}, core.Config{}, rng.Derive(seed, fmt.Sprintf("peer-%d", id)))
		if sink != nil {
			n.SetTracer(obs.NewTracer(sink, "vdm", id, bus.Now))
		}
		return n
	}

	var trs []*transport.UDP
	srcTr, err := transport.NewUDP("127.0.0.1:0", transport.UDPConfig{})
	if err != nil {
		return r, err
	}
	closers = append(closers, func() { srcTr.Close() })
	trs = append(trs, srcTr)
	live.NewSourceSession(srcTr, epoch)
	src := live.NewPeer(srcTr, epoch, func(bus overlay.Bus) overlay.Protocol { return newNode(bus, 0) })
	closers = append(closers, src.Stop)

	var peers []*live.Peer
	var recvs []*receiver
	for i := 0; i < liveJoiners; i++ {
		tr, err := transport.NewUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			return r, err
		}
		closers = append(closers, func() { tr.Close() })
		trs = append(trs, tr)
		sess, err := live.JoinSession(tr, srcTr.LocalAddr(), 10*time.Second)
		if err != nil {
			return r, fmt.Errorf("joiner %d: %w", i, err)
		}
		id := sess.ID()
		rc := &receiver{seen: make([]bool, chunks)}
		recvs = append(recvs, rc)
		p := live.NewPeer(tr, epoch, func(bus overlay.Bus) overlay.Protocol {
			n := newNode(bus, id)
			n.Base().SetChunkObserver(func(c overlay.DataChunk) {
				now := time.Since(epoch)
				seq := int(c.Seq)
				rc.mu.Lock()
				defer rc.mu.Unlock()
				if seq < 0 || seq >= len(rc.seen) || !bytes.Equal(c.Payload, payloads[seq]) {
					rc.corrupt++
					return
				}
				if rc.seen[seq] {
					return
				}
				rc.seen[seq] = true
				due := time.Duration(streamStart.Load()) + time.Duration(seq)*interval
				rc.lat = append(rc.lat, float64(now-due)/1e6)
				lastRecv.Store(int64(now))
				if delivered.Add(1) == r.expected {
					close(allIn)
				}
			})
			return n
		})
		closers = append(closers, p.Stop)
		p.StartJoin()
		peers = append(peers, p)
	}
	deadline := time.Now().Add(liveBootCap)
	for !allConnected(peers) {
		if time.Now().After(deadline) {
			return r, fmt.Errorf("cluster not connected after %v", liveBootCap)
		}
		time.Sleep(time.Millisecond)
	}
	r.boot = h.spans.end(bootSpan)

	// Open loop: chunk seq is due at start + seq·interval whatever the
	// cluster is doing; a late generator sends immediately and the
	// lateness is recorded (and charged to the chunk's latency).
	cpu0 := processCPU()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go samplePeakHeap(stop, peak)
	streamSpan := h.spans.begin("stream", parent)
	start := time.Now().Add(time.Millisecond)
	streamStart.Store(int64(start.Sub(epoch)))
	r.late = make([]float64, 0, chunks)
	for seq := 0; seq < chunks; seq++ {
		due := start.Add(time.Duration(seq) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.late = append(r.late, float64(time.Since(due))/1e6)
		src.EmitData(overlay.DataChunk{Seq: int64(seq), Payload: payloads[seq]})
	}
	h.spans.end(streamSpan)

	settleSpan := h.spans.begin("settle", parent)
	// Drain until every copy has arrived (the observer closes allIn on
	// the last one), no copy has arrived for liveQuiet, or liveDrainCap
	// has passed. Waiting on allIn ends the CPU measurement at the last
	// delivery instead of a polling tick later.
	drainEnd := time.Now().Add(liveDrainCap)
	for {
		before := delivered.Load()
		select {
		case <-allIn:
		case <-time.After(liveQuiet):
			if delivered.Load() != before && time.Now().Before(drainEnd) {
				continue
			}
		}
		break
	}
	h.spans.end(settleSpan)
	r.cpu = processCPU() - cpu0
	close(stop)
	r.peakMB = float64(<-peak) / 1e6

	r.delivered = delivered.Load()
	last := time.Duration(lastRecv.Load())
	r.wall = (last - t0.Sub(epoch)).Seconds()
	r.streamS = (last - time.Duration(streamStart.Load())).Seconds()
	for _, rc := range recvs {
		rc.mu.Lock()
		r.lat = append(r.lat, rc.lat...)
		r.corrupt += rc.corrupt
		rc.mu.Unlock()
	}

	views := []overlay.TreeView{src.View()}
	for _, p := range peers {
		views = append(views, p.View())
	}
	r.treeErrs = metrics.Validate(views, 0, func(overlay.NodeID) int { return liveDegree })
	if !allConnected(peers) {
		r.treeErrs = append(r.treeErrs, "a joiner lost its connection during the stream")
	}
	if sink != nil {
		r.layers = liveLayers(trs, append([]*live.Peer{src}, peers...), r.delivered)
	}
	return r, nil
}

func allConnected(peers []*live.Peer) bool {
	for _, p := range peers {
		if !p.Connected() {
			return false
		}
	}
	return true
}

// liveLayers sums the transports' data-plane counters and the peers'
// flow counters of one traced round.
func liveLayers(trs []*transport.UDP, peers []*live.Peer, delivered int64) map[string]float64 {
	var sys, frames, maxBatch, drops, retrans int64
	for _, tr := range trs {
		dp := tr.Dataplane()
		sys += dp.SendSyscalls + dp.RecvSyscalls
		frames += dp.SentFrames + dp.RecvFrames
		drops += dp.QueueDrops
		if dp.MaxBatch > maxBatch {
			maxBatch = dp.MaxBatch
		}
		retrans += tr.Stats().Retransmits
	}
	var nacks, pulls, fec, served int64
	for _, p := range peers {
		fs := p.FlowStats()
		nacks += fs.NacksSent
		pulls += fs.StallPulls
		fec += fs.FECRepairs
		served += fs.RetransmitsServed
	}
	out := map[string]float64{
		"transport.max_batch":   float64(maxBatch),
		"transport.queue_drops": float64(drops),
		"transport.retransmits": float64(retrans),
		"flow.nacks":            float64(nacks),
		"flow.stall_pulls":      float64(pulls),
		"flow.fec_repairs":      float64(fec),
	}
	if frames > 0 {
		out["transport.syscalls_per_packet"] = float64(sys) / float64(frames)
	}
	if delivered > 0 {
		out["flow.repair_ratio"] = float64(fec+served) / float64(delivered)
	}
	return out
}

// countSink counts protocol trace events: the traced run's event sink.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Emit(obs.Event) { s.n.Add(1) }
