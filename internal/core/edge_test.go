package core

import (
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
)

// TestJoinWithAllChildrenDead: every child of the queried node has
// silently vanished; the probe comes back empty and the newcomer attaches
// to the queried node itself.
func TestJoinWithAllChildrenDead(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0},
	}, nil)
	r.joinAll(1)
	now := r.Sim.Now()
	// The child vanishes without notice but stays in the source's
	// children list until reaped.
	r.Sim.At(now+1, func(any) { r.Net.Unregister(1) }, nil)
	r.Sim.At(now+2, func(any) { r.nodes[2].StartJoin() }, nil)
	r.Run(now + 20)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("parent = %d, want source (only live node)", got)
	}
}

// TestLeaveMidJoin: a node leaves while its own join is still in flight;
// nothing crashes and the target does not keep ghost state that blocks
// others.
func TestLeaveMidJoin(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0},
	}, []int{1, 4, 4})
	r.joinAll(1)
	now := r.Sim.Now()
	n := r.nodes[2]
	r.Sim.At(now+1, func(any) { n.StartJoin() }, nil)
	// Leave a hair after the join started, before it can complete.
	r.Sim.At(now+1.001, func(any) { n.Leave() }, nil)
	r.Run(now + 10)
	if n.Alive() || n.Connected() {
		t.Fatal("left node still alive/connected")
	}
	// The tree is still serviceable: a fresh node can join and reach
	// the spot the leaver would have taken.
	f := r.add(2, 4, Config{})
	r.Sim.At(r.Sim.Now()+1, func(any) { f.StartJoin() }, nil)
	r.Run(r.Sim.Now() + 20)
	if !f.Connected() {
		t.Fatal("fresh instance could not join")
	}
}

// TestStaleLeaveNotifyIgnored: a LeaveNotify from a node that is not the
// current parent must not orphan the peer.
func TestStaleLeaveNotifyIgnored(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0},
	}, nil)
	r.joinAll(1, 2)
	n := r.nodes[2]
	pre := n.ParentID()
	n.HandleMessage(99, overlay.LeaveNotify{GrandparentHint: 0})
	if !n.Connected() || n.ParentID() != pre {
		t.Fatal("stale leave notify orphaned the node")
	}
}

// TestConcurrentSpliceRace: two newcomers try to adopt the same child in
// overlapping windows; exactly one adoption wins and the tree stays
// consistent.
func TestConcurrentSpliceRace(t *testing.T) {
	// S=(0,0), C=(30,0) under S; N1=(14,0.5) and N2=(15,-0.5) both see
	// Case II with C and start at nearly the same instant.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 14, Y: 0.5}, {X: 15, Y: -0.5},
	}, nil)
	r.joinAll(1)
	now := r.Sim.Now()
	r.Sim.At(now+1, func(any) { r.nodes[2].StartJoin() }, nil)
	r.Sim.At(now+1.001, func(any) { r.nodes[3].StartJoin() }, nil)
	r.Run(now + 30)

	// Everyone connected, exactly one parent each, and C reachable.
	for id := overlay.NodeID(1); id <= 3; id++ {
		if !r.nodes[id].Connected() {
			t.Fatalf("node %d not connected", id)
		}
	}
	// Walk C (node 1) to the source.
	cur, steps := overlay.NodeID(1), 0
	for cur != 0 {
		p := r.nodes[cur].ParentID()
		if p == overlay.None || steps > 4 {
			t.Fatalf("C detached (stuck at %d)", cur)
		}
		cur = p
		steps++
	}
	// Parent/child symmetry across all nodes.
	for id, n := range r.nodes {
		for _, c := range n.ChildIDs() {
			cn, ok := r.nodes[c]
			if !ok {
				continue
			}
			if cn.ParentID() != id {
				t.Fatalf("child %d of %d has parent %d", c, id, cn.ParentID())
			}
		}
	}
}

// TestGammaOneRejectsEverything: γ≈1 disables directionality entirely;
// everyone attaches as close to the source as degree allows (breadth-
// first-ish shallow tree).
func TestGammaOneRejectsEverything(t *testing.T) {
	pts := []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0}, {X: 40, Y: 0},
	}
	r := newVDMRig(t, pts, []int{2, 2, 2, 2, 2})
	for _, n := range r.nodes {
		n.cfg.Gamma = 1.01 // longest can never reach γ·(sum of others)
	}
	r.joinAll(1, 2, 3, 4)
	// With γ>1 no Case II/III ever fires: nodes fill the source first.
	kids := r.nodes[0].ChildIDs()
	if len(kids) != 2 {
		t.Fatalf("source children %v, want a full degree-2 set", kids)
	}
	for id := overlay.NodeID(1); id <= 4; id++ {
		if !r.nodes[id].Connected() {
			t.Fatalf("node %d not connected", id)
		}
	}
}

// TestRefineDuringOrphanhoodSkipped: a refinement tick while orphaned must
// not fire a shadow join.
func TestRefineDuringOrphanhoodSkipped(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0},
	}, nil)
	b := r.nodes[2]
	b.cfg.RefinePeriodS = 3
	r.joinAll(1, 2)
	// Orphan b and freeze its reconnection by killing both ancestors
	// (grandparent times out → source: kill the source handler too so
	// b stays orphaned while refine ticks pass).
	now := r.Sim.Now()
	r.Sim.At(now+1, func(any) {
		r.nodes[1].Leave()
		r.Net.Unregister(0)
	}, nil)
	r.Run(now + 12)
	if b.Connected() {
		t.Fatal("unexpectedly connected with no live ancestors")
	}
	// No panic / no bogus parent switches happened while orphaned.
	if b.Base().Stats().ParentSwitch != 0 {
		t.Fatal("refinement ran while orphaned")
	}
}

// TestTwoNodesOnly: a session of just source + one peer works and the peer
// survives nothing else existing.
func TestTwoNodesOnly(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 10}}, nil)
	r.joinAll(1)
	if got := r.parentOf(t, 1); got != 0 {
		t.Fatalf("parent = %d", got)
	}
}
