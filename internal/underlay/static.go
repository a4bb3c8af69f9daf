package underlay

import "vdm/internal/topology"

// Static is an underlay defined directly by an RTT matrix (milliseconds)
// and an optional loss matrix. It is deterministic and has no router
// model. Protocol tests use it to place peers at exact virtual distances;
// library users can use it to replay measured RTT datasets.
type Static struct {
	RTTms [][]float64
	LossP [][]float64
}

var _ Underlay = (*Static)(nil)

// NewStatic builds a static underlay from a symmetric RTT matrix.
func NewStatic(rtt [][]float64) *Static { return &Static{RTTms: rtt} }

// NumHosts reports the matrix dimension.
func (s *Static) NumHosts() int { return len(s.RTTms) }

// NumLinks reports 0: no router model.
func (s *Static) NumLinks() int { return 0 }

// BaseRTT returns the matrix entry.
func (s *Static) BaseRTT(a, b int) float64 {
	if a == b {
		return 0
	}
	return s.RTTms[a][b]
}

// RTT returns the matrix entry: a static underlay has no jitter.
func (s *Static) RTT(a, b int) float64 { return s.BaseRTT(a, b) }

// OneWayDelayMSKeyed returns half the RTT, floored at MinDelayFloorMS
// between distinct hosts: the matrix draws no jitter for the index to
// key.
func (s *Static) OneWayDelayMSKeyed(a, b int, draw uint64) float64 {
	d := s.BaseRTT(a, b) / 2
	if a != b && d < MinDelayFloorMS {
		d = MinDelayFloorMS
	}
	return d
}

// MinOneWayDelayMS returns the floor OneWayDelayMSKeyed applies.
func (s *Static) MinOneWayDelayMS() float64 { return MinDelayFloorMS }

// LossRate returns the loss matrix entry, 0 without a loss matrix.
func (s *Static) LossRate(a, b int) float64 {
	if s.LossP == nil || a == b {
		return 0
	}
	return s.LossP[a][b]
}

// PathLinks returns nil: no router model.
func (s *Static) PathLinks(a, b int) []topology.LinkID { return nil }
