//go:build goexperiment.synctest

// testing/synctest refuses to run under asynctimerchan=1, the default
// while go.mod says go 1.21.
//go:debug asynctimerchan=0

package iosim

import (
	"slices"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// TestVirtualElevatorMatchesSim: inside a synctest bubble the real
// runtime's clock moves only when every goroutine blocks, so the
// elevator's waits and transfers take exactly their modelled time, and a
// staggered script on two spindles, whose arrivals never meet a device
// freeing, ends every read at the instant the simulator ends it.
func TestVirtualElevatorMatchesSim(t *testing.T) {
	script := []struct {
		at    time.Duration
		block BlockID
	}{
		{0, 40}, {3 * time.Microsecond, 8}, {7 * time.Microsecond, 24}, {11 * time.Microsecond, 0},
		{130 * time.Microsecond, 56}, {131 * time.Microsecond, 16}, {400 * time.Microsecond, 32},
	}
	play := func(r rt.Runtime) []rt.Duration {
		a := NewArray(r, ArrayConfig{
			Config:      Config{Bandwidth: 1e9, SeekLatency: 50 * time.Microsecond, Scheduler: SchedElevator},
			Devices:     2,
			StripeChunk: 4,
		})
		start := r.Now()
		ends := make([]rt.Duration, len(script))
		for i, s := range script {
			i, s := i, s
			r.Go("reader", func() {
				r.SleepUntil(start + rt.Time(s.at))
				a.ReadSpansOwner(nil, runSpans(a, s.block, 6, 16<<10))
				ends[i] = rt.Duration(r.Now() - start)
			})
		}
		r.Run()
		return ends
	}
	want := play(rt.Sim(sim.NewEngine()))
	synctest.Run(func() {
		if got := play(rt.NewReal()); !slices.Equal(got, want) {
			t.Errorf("reads end at %v in the bubble, at %v on the simulator", got, want)
		}
	})
}
