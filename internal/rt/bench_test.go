package rt

import (
	"testing"
	"time"
)

// BenchmarkRealSleep reports how much longer than asked the real runtime
// sleeps for one vector's modelled CPU time (60 ns x 1,024 tuples), as
// rt.real_sleep_overshoot_us: the timer overshoot pacing exists to absorb.
// It is the in-package twin of the benchmark's row of that name.
func BenchmarkRealSleep(b *testing.B) {
	r := NewReal()
	const d = 60 * time.Nanosecond * 1024
	var over time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r.Sleep(d)
		over += time.Since(t0) - d
	}
	b.ReportMetric(over.Seconds()*1e6/float64(b.N), "rt.real_sleep_overshoot_us")
}
