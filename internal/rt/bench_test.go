package rt

import (
	"testing"
	"time"
)

// BenchmarkRealSleep reports how much longer than asked the real runtime
// sleeps for one vector's modelled CPU time (60 ns x 1,024 tuples), as
// rt.real_sleep_overshoot_us. It is the in-package twin of the
// benchmark's row of that name.
func BenchmarkRealSleep(b *testing.B) {
	benchSleep(b, 60*time.Nanosecond*1024, "rt.real_sleep_overshoot_us")
}

// BenchmarkRealSleepLump reports the same for a 1.3 ms sleep, the size of
// a pacing lump, as rt.real_lump_overshoot_us.
func BenchmarkRealSleepLump(b *testing.B) {
	benchSleep(b, 1300*time.Microsecond, "rt.real_lump_overshoot_us")
}

func benchSleep(b *testing.B, d time.Duration, unit string) {
	r := NewReal()
	var over time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r.Sleep(d)
		over += time.Since(t0) - d
	}
	b.ReportMetric(over.Seconds()*1e6/float64(b.N), unit)
}
