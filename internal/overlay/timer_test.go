package overlay

import (
	"testing"

	"vdm/internal/eventq"
	"vdm/internal/underlay"
)

// rearmTimer is a self-re-arming timer record, shaped like the status and
// starvation tickers (arg: *Peer) and core's join timeouts (arg: a
// free-listed record).
type rearmTimer struct {
	bus   Bus
	fired int
}

func rearmTick(a any) {
	r := a.(*rearmTimer)
	r.fired++
	r.bus.After(1, rearmTick, r)
}

// TestBusTimersAllocateNothing pins why timers take a static callback
// plus a pointer argument: re-arming through the simulated bus allocates
// nothing once the event queue's record slab is warm, so a join storm's
// hundreds of thousands of timeouts cost no closure each.
func TestBusTimersAllocateNothing(t *testing.T) {
	sim := eventq.New()
	var bus Bus = NewNetwork(sim, underlay.NewStatic([][]float64{{0}}), 1)
	timers := make([]*rearmTimer, 64)
	for i := range timers {
		timers[i] = &rearmTimer{bus: bus}
		bus.After(float64(i)/64, rearmTick, timers[i])
	}
	sim.Run(4) // warm up the event queue's slab
	allocs := testing.AllocsPerRun(100, func() {
		sim.Run(sim.Now() + 1)
	})
	if allocs != 0 {
		t.Fatalf("re-arming %d bus timers allocated %v objects per virtual second, want 0", len(timers), allocs)
	}
	if got := timers[0].fired; got < 100 {
		t.Fatalf("timer fired %d times, want ≥ 100", got)
	}
}
