// Package underlay abstracts the physical network beneath the overlay.
//
// Protocol code and metric collectors only ever see this interface; the
// two implementations are a router-graph underlay built from a transit-stub
// topology (chapter 3/4 simulations) and a measured-RTT-matrix underlay
// built from the synthetic PlanetLab (chapter 5 emulations).
package underlay

import "vdm/internal/topology"

// Underlay models the network between overlay hosts. Hosts are identified
// by dense integer ids assigned by the session that built the underlay.
//
// Every random draw an underlay makes (RTT measurement jitter, delivery
// jitter, think time) is keyed: a pure function of the underlay's seed,
// the host pair and a per-pair draw index, rather than the next value of a
// shared sequential stream. Keyed draws make delay values independent of
// global event interleaving (each sender advances its own draw counters),
// and the guaranteed minimum delivery delay is the multi-shard engine's
// conservative lookahead.
type Underlay interface {
	// NumHosts reports how many hosts are attached.
	NumHosts() int

	// RTT returns one round-trip-time measurement between hosts a and b
	// in milliseconds. Implementations may add per-call jitter; this is
	// what an application-level ping observes.
	RTT(a, b int) float64

	// BaseRTT returns the deterministic jitter-free RTT in milliseconds,
	// used by metric collectors.
	BaseRTT(a, b int) float64

	// OneWayDelayMSKeyed returns the delivery delay in milliseconds of
	// message number draw on edge a→b, jitter included.
	OneWayDelayMSKeyed(a, b int, draw uint64) float64

	// MinOneWayDelayMS returns a hard lower bound (> 0) on
	// OneWayDelayMSKeyed over all host pairs a ≠ b and draws.
	MinOneWayDelayMS() float64

	// LossRate returns the end-to-end per-packet loss probability a→b.
	LossRate(a, b int) float64

	// PathLinks returns the physical links on the routed path between a
	// and b, or nil when the underlay has no router model (the stress
	// metric is then undefined).
	PathLinks(a, b int) []topology.LinkID

	// NumLinks reports the number of physical links, 0 without a router
	// model.
	NumLinks() int
}

// MinDelayFloorMS is the smallest one-way delivery delay an underlay
// reports. Conservative shard synchronization needs a strictly positive
// lower bound on cross-shard message latency; 10 µs is far below any
// modeled path, so the floor only exists to keep the bound positive.
const MinDelayFloorMS = 0.01

// Stream ids for keyed draws, shared by the underlay implementations.
// Each (seed, edge, stream, draw) tuple is an independent value, so the
// ids only need to be distinct within one underlay's seed.
const (
	keyedStreamDelay uint32 = 1
	keyedStreamRTT   uint32 = 2
	keyedStreamLazy  uint32 = 3
)
