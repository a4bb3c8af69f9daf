package main

import (
	"math"
	"sort"
)

// quantile reads the q-quantile (0 ≤ q ≤ 1) of xs by nearest rank and
// returns it with the sample count it rests on. xs is not modified.
func quantile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest rank: the smallest value with at least q of the samples
	// at or below it.
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1], len(s)
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// supportedQuantile is the highest of the candidate quantiles that has at
// least minBeyond samples above it in a sample of n: a p99 needs 1,000
// samples to rest on ten beyond it.
func supportedQuantile(n, minBeyond int, candidates []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range candidates {
		// The epsilon absorbs rounding in 1-q (1-0.9999 is not 1e-4).
		if float64(n)*(1-q)+1e-6 >= float64(minBeyond) && q > best {
			best, ok = q, true
		}
	}
	return best, ok
}

// rung is one step of the live rate ladder.
type rung struct {
	Rate      float64 `json:"rate_chunks_per_s"`
	Expected  int64   `json:"expected_copies"`
	Delivered int64   `json:"delivered_copies"`
	P50MS     float64 `json:"latency_p50_ms"`
	P99MS     float64 `json:"latency_p99_ms"`
	// Achieved is the per-receiver delivery rate over the stream, from
	// the first scheduled send to the last delivered copy.
	Achieved float64 `json:"achieved_chunks_per_s"`
}

// passes reports whether a rung meets the ladder's criterion: every copy
// delivered and the p99 latency within limitMS.
func (r rung) passes(limitMS float64) bool {
	return r.Expected > 0 && r.Delivered >= r.Expected && r.P99MS <= limitMS
}

// capacity returns the index of the highest rung of an ascending ladder
// that passes with every rung below it passing too, or -1 when the
// lowest rung already fails. Rungs above the first failure are kept by
// the caller for the report; they do not count towards capacity even if
// they happen to pass.
func capacity(ladder []rung, limitMS float64) int {
	best := -1
	for i, r := range ladder {
		if !r.passes(limitMS) {
			break
		}
		best = i
	}
	return best
}

// tally counts failed operations against attempted ones.
type tally struct {
	Attempted int64
	Failed    int64
}

// add records attempted operations of which failed did not succeed;
// failed is clamped to [0, attempted].
func (t *tally) add(attempted, failed int64) {
	if failed < 0 {
		failed = 0
	}
	if failed > attempted {
		failed = attempted
	}
	t.Attempted += attempted
	t.Failed += failed
}

// ratio is failed/attempted, 1 when nothing was attempted (a run that
// did no work has not shown that anything succeeds).
func (t tally) ratio() float64 {
	if t.Attempted == 0 {
		return 1
	}
	return float64(t.Failed) / float64(t.Attempted)
}
