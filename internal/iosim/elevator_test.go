package iosim

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

func newElevatorDisk(eng *sim.Engine, bw float64) *DeviceArray {
	return New(rt.Sim(eng), Config{Bandwidth: bw, SeekLatency: time.Millisecond, Scheduler: SchedElevator})
}

// Three readers enqueue out of block order at one instant, before the
// first pick; the C-SCAN sweep must service them block-ascending with a
// single seek (the initial positioning), where FIFO would pay three.
func TestElevatorSweepOrdersByBlock(t *testing.T) {
	eng := sim.NewEngine()
	d := newElevatorDisk(eng, 1e6)
	var order []BlockID
	d.devices[0].OnRead = func(b BlockID, _ int64) { order = append(order, b) }
	for _, b := range []BlockID{30, 10, 20} {
		b := b
		eng.Go("r", func() { d.Read(b, 1, 1000) })
	}
	eng.Run()
	if want := []BlockID{10, 20, 30}; !reflect.DeepEqual(order, want) {
		t.Fatalf("service order = %v, want %v", order, want)
	}
	if got := d.Stats().Seeks; got != 1 {
		t.Fatalf("seeks = %d, want 1 (initial positioning only)", got)
	}
}

// Forward jumps ride the sweep for free; only a wrap behind the head pays
// the seek penalty.
func TestElevatorSeeksOnlyOnDirectionBreak(t *testing.T) {
	eng := sim.NewEngine()
	d := newElevatorDisk(eng, 1e6)
	eng.Go("r", func() {
		d.Read(50, 1, 1000) // initial positioning: seek
		d.Read(80, 1, 1000) // forward jump: free (FIFO would charge)
		d.Read(81, 1, 1000) // contiguous: free
		d.Read(10, 1, 1000) // behind the head: wrap, seek
	})
	eng.Run()
	if got := d.Stats().Seeks; got != 2 {
		t.Fatalf("seeks = %d, want 2 (initial + wrap)", got)
	}
}

// Same-block ties are served in arrival-ticket order — the
// ticketed-admission fairness of the FIFO path.
func TestElevatorTieBreaksByTicket(t *testing.T) {
	eng := sim.NewEngine()
	d := newElevatorDisk(eng, 1e6)
	var aEnd, bEnd sim.Time
	eng.Go("a", func() { d.Read(20, 1, 100_000); aEnd = eng.Now() })
	eng.Go("b", func() { d.Read(20, 1, 100_000); bEnd = eng.Now() })
	eng.Run()
	if aEnd >= bEnd {
		t.Fatalf("ticket tie broken: first arrival ended %v, second %v", aEnd, bEnd)
	}
}

// A request whose owner is cancelled while queued is skipped at its
// service turn: no transfer, no seek, only the Skipped counter.
func TestElevatorSkipsCancelledOwner(t *testing.T) {
	eng := sim.NewEngine()
	r := rt.Sim(eng)
	d := newElevatorDisk(eng, 1e6)
	qc := rt.NewQueryCtx(r)
	eng.Go("keep", func() { d.Read(0, 1, 500_000) })
	eng.Go("dead", func() { d.ReadSpansOwner(qc, span(10, 1, 500_000)) })
	eng.Go("cancel", func() { qc.Cancel(rt.CauseClientCancel) })
	eng.Run()
	s := d.Stats()
	if s.Requests != 1 || s.Skipped != 1 {
		t.Fatalf("stats = %+v, want 1 serviced + 1 skipped", s.Stats)
	}
	if s.BytesRead != 500_000 {
		t.Fatalf("bytes = %d, want only the live request's 500000", s.BytesRead)
	}
}

// Two request waves separated by an idle second both complete, the queue
// is empty after each, and the run ends with the reader: the elevator
// leaves no process behind to keep the engine alive.
func TestElevatorDrainsBetweenWaves(t *testing.T) {
	eng := sim.NewEngine()
	d := newElevatorDisk(eng, 1e6)
	drained := func() bool {
		dev := d.devices[0]
		return dev.queued == 0 && len(dev.pending) == 0
	}
	waves := 0
	eng.Go("r", func() {
		for _, b := range []BlockID{0, 100} {
			d.Read(b, 1, 1000)
			if drained() {
				waves++
			}
			eng.Sleep(sim.Duration(time.Second))
		}
	})
	eng.Run()
	if waves != 2 {
		t.Fatalf("%d of 2 waves completed with the queue drained", waves)
	}
	if got := d.Stats().Requests; got != 2 {
		t.Fatalf("requests = %d, want 2", got)
	}
}

// Same scenario, run twice: the elevator path must be deterministic on the
// sim runtime (identical stats and end times).
func TestElevatorSimDeterministic(t *testing.T) {
	run := func() (Stats, []sim.Time) {
		eng := sim.NewEngine()
		d := newElevatorDisk(eng, 1e6)
		ends := make([]sim.Time, 4)
		for i, b := range []BlockID{40, 5, 25, 12} {
			i, b := i, b
			eng.Go("r", func() {
				d.Read(b, 2, 50_000)
				ends[i] = eng.Now()
			})
		}
		eng.Run()
		return d.Stats().Stats, ends
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || !reflect.DeepEqual(e1, e2) {
		t.Fatalf("elevator not deterministic:\n%+v %v\n%+v %v", s1, e1, s2, e2)
	}
}

// A striped batch on an elevator array must still fan out: all four
// spindles transfer their share concurrently, so the batch completes in
// one chunk's time, exactly as on the FIFO array.
func TestElevatorArrayBatchParallelism(t *testing.T) {
	elapsed := func(sched string) sim.Time {
		eng := sim.NewEngine()
		a := NewArray(rt.Sim(eng), ArrayConfig{
			Config:      Config{Bandwidth: 1e6, SeekLatency: 0, Scheduler: sched},
			Devices:     4,
			StripeChunk: 4,
		})
		var end sim.Time
		eng.Go("r", func() {
			a.ReadSpansOwner(nil, runSpans(a, 0, 16, 25_000)) // one full stripe row
			end = eng.Now()
		})
		eng.Run()
		s := a.Stats()
		for i, ds := range s.PerDevice {
			if ds.BytesRead != 100_000 {
				t.Fatalf("%s: device %d transferred %d, want 100000", sched, i, ds.BytesRead)
			}
		}
		return end
	}
	fifo, elev := elapsed(SchedFIFO), elapsed(SchedElevator)
	if fifo != elev {
		t.Fatalf("batch time fifo=%v elevator=%v, want identical (full overlap)", fifo, elev)
	}
	// Sanity: the batch took one spindle-share, not the serialized total.
	if want := sim.Time(100 * time.Millisecond); fifo != want {
		t.Fatalf("batch time = %v, want %v (100 KB at 1 MB/s per spindle)", fifo, want)
	}
}

// Real-runtime elevator smoke under -race: concurrent readers that pick
// for each other as the device frees, then a drained queue and
// consistent counters.
func TestRealElevatorConcurrentReads(t *testing.T) {
	a := New(rt.NewReal(), Config{Bandwidth: 1e9, SeekLatency: time.Microsecond, Scheduler: SchedElevator})
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				a.Read(BlockID((i*7+j*13)%50), 1, 10_000)
			}
		}()
	}
	wg.Wait()
	s := a.Stats()
	if s.Requests != readers*4 || s.BytesRead != readers*4*10_000 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	d := a.devices[0]
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.queued != 0 || len(d.pending) != 0 {
		t.Fatalf("queue not drained: queued=%d pending=%d", d.queued, len(d.pending))
	}
}
