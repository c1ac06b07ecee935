//go:build goexperiment.synctest

// testing/synctest refuses to run under asynctimerchan=1, the default
// while go.mod says go 1.21.
//go:debug asynctimerchan=0

package rt

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestVirtualRealSleep: inside a synctest bubble the real runtime sleeps
// on the bubble's clock, so a sleep and a paced thread's lumps take
// exactly what they ask. A sleep that left the bubble's clock (a timerfd
// on the OS clock) would move time.Now by nothing.
func TestVirtualRealSleep(t *testing.T) {
	synctest.Run(func() {
		r := NewReal()
		t0 := time.Now()
		r.Sleep(1300 * time.Microsecond)
		if got := time.Since(t0); got != 1300*time.Microsecond {
			t.Errorf("Sleep(1.3ms) moved the clock by %v", got)
		}

		q := NewQueryCtx(r).Fork()
		start := r.Now()
		for _, d := range []Duration{1300 * time.Microsecond, 300 * time.Microsecond} {
			if lump := q.Owe(d); lump > 0 {
				q.Pay(r, lump)
			}
		}
		q.Flush()
		if got := Duration(r.Now() - start); got != 1600*time.Microsecond {
			t.Errorf("a paced thread charged 1.6ms ended after %v", got)
		}
	})
}
