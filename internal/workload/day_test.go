package workload

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/tpch"
)

// TestSimulatedDay serves two virtual hours on the simulator, under PBM
// and under CScans: four streams of reads and updates at one query per
// second each, with checkpoints, deadlines and client cancels, while a
// process checks every layer's books (Check(false)) once a virtual
// minute. Each virtual hour it logs the live heap after a collection and
// asserts nothing about it: the scheduler keeps every resolved query's
// record, so the heap grows with the run. The run is deterministic, so
// a violation or a growth it shows reproduces exactly.
func TestSimulatedDay(t *testing.T) {
	if testing.Short() {
		t.Skip("serves two virtual hours per policy")
	}
	const hours = 2
	for _, pol := range []Policy{PBM, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultServeConfig()
			cfg.Policy = pol
			cfg.Streams = 4
			cfg.ArrivalRate = 1
			// A stream's arrivals span about as many seconds as it has
			// queries; the margin carries every stream past the last hour.
			cfg.QueriesPerStream = hours*3600 + 300
			cfg.WriteFrac = 0.1
			cfg.CheckpointOps = 16
			// Long scans outlive the deadline, and a client that
			// abandons a query does so within the SLO.
			cfg.Deadline = 5 * time.Millisecond
			cfg.SLO = 10 * time.Millisecond
			cfg.CancelRate = 0.05
			en := NewServeEngine(tpch.Generate(0.01, 1), cfg)
			wall := time.Now()
			checks, done := 0, false
			en.RT.Go("checker", func() {
				for !done {
					en.RT.Sleep(time.Minute)
					checks++
					if err := en.Check(false); err != nil {
						t.Errorf("virtual minute %d: %v", checks, err)
					}
					if checks%60 == 0 {
						runtime.GC()
						var ms runtime.MemStats
						runtime.ReadMemStats(&ms)
						t.Logf("virtual hour %d: live heap %.1f MB, %d queries arrived, %v wall",
							checks/60, float64(ms.HeapAlloc)/1e6, en.Stats().Sched.Arrived, time.Since(wall).Round(time.Millisecond))
					}
				}
			})
			var st *ServeResult
			res := en.runStreams(cfg.Streams, en.serveStream(), func() {
				done = true
				en.Close()
				st = en.Stats()
			})
			if checks < hours*60 {
				t.Errorf("%d checks, want one per virtual minute for %d hours", checks, hours)
			}
			if st.Sched.TimedOut == 0 || st.Sched.Cancelled == 0 {
				t.Errorf("%d timed out and %d cancelled, want both", st.Sched.TimedOut, st.Sched.Cancelled)
			}
			virtual := time.Duration(res.MaxStreamSec * float64(time.Second))
			t.Logf("%v virtual in %v wall (%.1f virtual hours per wall minute); %d arrived, %d completed, %d writes, %d timed out, %d cancelled, %d rejected, %d checkpoints",
				virtual.Round(time.Second), time.Since(wall).Round(time.Millisecond),
				virtual.Hours()/time.Since(wall).Minutes(), st.Sched.Arrived, st.Sched.Completed,
				st.Sched.WriteCompleted, st.Sched.TimedOut, st.Sched.Cancelled, st.Sched.Rejected, st.Checkpoints)
		})
	}
}
