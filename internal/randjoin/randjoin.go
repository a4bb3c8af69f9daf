// Package randjoin implements the naive baseline used by the ablation
// benches: a newcomer performs a random walk down the tree and attaches at
// the first node with a free degree slot. It bounds how much of VDM's
// advantage comes from any informed placement at all.
package randjoin

import (
	"vdm/internal/overlay"
	"vdm/internal/rng"
)

// Config tunes a random-join node.
type Config struct {
	// DescendProb is the probability of walking into a child instead of
	// attaching at a node with free capacity; zero selects 0.5.
	DescendProb float64
	// MaxAttempts bounds join restarts; zero selects 5.
	MaxAttempts int
	// RetryBackoffS is the pause after MaxAttempts failures; zero
	// selects 5 s.
	RetryBackoffS float64
}

func (c Config) withDefaults() Config {
	if c.DescendProb <= 0 {
		c.DescendProb = 0.5
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.RetryBackoffS <= 0 {
		c.RetryBackoffS = 5
	}
	return c
}

type joinState struct {
	token     int
	target    overlay.NodeID
	awaitConn bool
	steps     int
	attempts  int
	reconnect bool
}

// Node is one random-join peer.
type Node struct {
	*overlay.Peer
	cfg   Config
	rnd   *rng.Stream
	join  *joinState
	token int
}

var _ overlay.Protocol = (*Node)(nil)

// New builds a random-join node.
func New(net overlay.Bus, pc overlay.PeerConfig, cfg Config, rnd *rng.Stream) *Node {
	n := &Node{Peer: overlay.NewPeer(net, pc), cfg: cfg.withDefaults(), rnd: rnd}
	n.Peer.SetHooks(n)
	return n
}

// Base returns the shared peer state.
func (n *Node) Base() *overlay.Peer { return n.Peer }

// StartJoin begins the random walk at the source.
func (n *Node) StartJoin() {
	if n.IsSource() || !n.Alive() {
		return
	}
	n.MarkJoinStart()
	n.begin(false, 0)
}

// OnOrphaned rejoins with a fresh random walk from the source.
func (n *Node) OnOrphaned(leaver, hint overlay.NodeID) { n.begin(true, 0) }

func (n *Node) begin(reconnect bool, attempts int) {
	js := &joinState{reconnect: reconnect, attempts: attempts}
	n.join = js
	n.sendInfo(js, n.Source())
}

func (n *Node) sendInfo(js *joinState, target overlay.NodeID) {
	js.target = target
	js.awaitConn = false
	js.steps++
	n.token++
	js.token = n.token
	n.Net().Send(n.ID(), target, overlay.InfoRequest{Token: js.token})
	tok := js.token
	n.Net().After(n.InfoTimeoutS, func(any) {
		if n.join == js && !js.awaitConn && js.token == tok {
			n.restart(js)
		}
	}, nil)
}

// HandleProtocol advances the walk.
func (n *Node) HandleProtocol(from overlay.NodeID, m overlay.Message) {
	js := n.join
	if js == nil {
		return
	}
	switch msg := m.(type) {
	case overlay.InfoResponse:
		if js.awaitConn || js.token != msg.Token || js.target != from {
			return
		}
		var kids []overlay.NodeID
		for _, ci := range msg.Children {
			if ci.ID != n.ID() {
				kids = append(kids, ci.ID)
			}
		}
		descend := len(kids) > 0 && (msg.Free == 0 || n.rnd.Bool(n.cfg.DescendProb)) && js.steps < 64
		if descend {
			n.sendInfo(js, kids[n.rnd.Intn(len(kids))])
			return
		}
		js.awaitConn = true
		n.token++
		js.token = n.token
		n.Net().Send(n.ID(), from, overlay.ConnRequest{Token: js.token, Kind: overlay.ConnChild, Dist: 0})
		tok := js.token
		n.Net().After(n.ConnTimeoutS, func(any) {
			if n.join == js && js.awaitConn && js.token == tok {
				n.restart(js)
			}
		}, nil)
	case overlay.ConnResponse:
		if !js.awaitConn || js.token != msg.Token || js.target != from {
			return
		}
		if msg.Accepted {
			n.ApplyConnect(from, 0, msg.RootPath)
			n.join = nil
			return
		}
		if len(msg.Children) > 0 {
			n.sendInfo(js, msg.Children[n.rnd.Intn(len(msg.Children))].ID)
			return
		}
		n.restart(js)
	}
}

func (n *Node) restart(js *joinState) {
	attempts := js.attempts + 1
	n.join = nil
	if attempts >= n.cfg.MaxAttempts {
		n.Net().After(n.cfg.RetryBackoffS, func(any) {
			if n.Alive() && !n.Connected() && n.join == nil {
				n.begin(js.reconnect, 0)
			}
		}, nil)
		return
	}
	n.begin(js.reconnect, attempts)
}
