package iosim

import (
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// BenchmarkDiskRead times one 16 KiB page read on the simulator with
// eight readers queueing on one spindle, under each discipline, as
// iosim.read_ns (FIFO) and iosim.elevator_read_ns: the in-package twins
// of the benchmark's rows of those names.
func BenchmarkDiskRead(b *testing.B) {
	for _, c := range []struct{ sched, metric string }{
		{SchedFIFO, "iosim.read_ns"},
		{SchedElevator, "iosim.elevator_read_ns"},
	} {
		b.Run(c.sched, func(b *testing.B) {
			eng := sim.NewEngine()
			disk := New(rt.Sim(eng), Config{Bandwidth: 700e6, SeekLatency: 50 * time.Microsecond, Scheduler: c.sched})
			for p := 0; p < 8; p++ {
				n, base := b.N/8, p*100_000
				if p < b.N%8 {
					n++
				}
				eng.Go("reader", func() {
					for i := 0; i < n; i++ {
						disk.Read(BlockID(base+i*37%4096), 1, 16<<10)
					}
				})
			}
			b.ResetTimer()
			eng.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), c.metric)
		})
	}
}
