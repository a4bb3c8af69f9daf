package vdist

import (
	"math"

	"vdm/internal/rng"
	"vdm/internal/underlay"
)

// LossEstimator models the third-party measurement service the
// dissertation's future work points at ("real time loss rate estimation
// between two points may not be as quick and easy as delay … third party
// systems that provide statistics can be used", citing iPlane): instead
// of observing true path loss, peers query a statistics service whose
// per-pair estimates carry relative error and are fixed per pair (stale
// but instant), the way iPlane nano serves precomputed predictions.
//
// Each pair's error is a keyed draw on (seed, min, max), so an estimate
// does not depend on query order and the service needs no state: it is
// safe to share across concurrent simulation shards.
type LossEstimator struct {
	U underlay.Underlay
	// NoiseSigma is the lognormal relative error of an estimate; zero
	// selects 0.25 (a generous error for a prediction service).
	NoiseSigma float64
	// Floor is the smallest reportable loss; pairs the service believes
	// loss-free report 0. Zero selects 1e-4.
	Floor float64

	seed int64
}

// NewLossEstimator builds a service over u with estimation noise keyed
// on seed.
func NewLossEstimator(u underlay.Underlay, seed int64) *LossEstimator {
	return &LossEstimator{U: u, seed: seed}
}

// estimateStream is the keyed-draw stream id of the estimation error.
const estimateStream uint32 = 1

// Estimate returns the service's (noisy, fixed) loss estimate for the
// pair — every query for the same pair, in either direction, returns the
// same prediction, as a statistics service would.
func (e *LossEstimator) Estimate(a, b int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	sigma := e.NoiseSigma
	if sigma == 0 {
		sigma = 0.25
	}
	floor := e.Floor
	if floor == 0 {
		floor = 1e-4
	}
	p := e.U.LossRate(a, b)
	if p > floor {
		p *= rng.KeyedLogNormal(e.seed, uint64(a), uint64(b), estimateStream, 0, 0, sigma)
	}
	if p < 0 {
		p = 0
	}
	if p > 0.999 {
		p = 0.999
	}
	return p
}

// EstimatedLoss is the VDM-L metric computed from the estimator service
// instead of oracle path loss — what a deployment would actually run.
type EstimatedLoss struct {
	Svc *LossEstimator
	// DelayTiebreak as in Loss; zero selects 0.01.
	DelayTiebreak float64
}

// Name returns "loss-est".
func (EstimatedLoss) Name() string { return "loss-est" }

// Distance returns the loss-space virtual distance built from the
// service's estimate.
func (m EstimatedLoss) Distance(a, b int) float64 {
	p := m.Svc.Estimate(a, b)
	tie := m.DelayTiebreak
	if tie == 0 {
		tie = 0.01
	}
	return -math.Log(1-p)*lossScale + tie*m.Svc.U.BaseRTT(a, b)
}
