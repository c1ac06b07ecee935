package iosim

import (
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// The device queue's protocol (submit → window → depart), counted rather
// than timed: the tests wrap the sim runtime and count the calls that
// reach it, or compare whole timelines.

// countRT counts the spawns, timer calls and event waits that reach a
// runtime. The simulator runs one process at a time, so plain ints do.
type countRT struct {
	rt.Runtime
	spawns, sleeps, untils, waits int
}

func (c *countRT) Go(name string, fn func()) { c.spawns++; c.Runtime.Go(name, fn) }
func (c *countRT) Sleep(d rt.Duration)       { c.sleeps++; c.Runtime.Sleep(d) }
func (c *countRT) SleepUntil(t rt.Time)      { c.untils++; c.Runtime.SleepUntil(t) }
func (c *countRT) NewEvent() rt.Event        { return countEvent{c.Runtime.NewEvent(), c} }

type countEvent struct {
	rt.Event
	c *countRT
}

func (e countEvent) Wait()             { e.Waiter().Wait() }
func (e countEvent) Waiter() rt.Waiter { return countWaiter{e.Event.Waiter(), e.c} }

type countWaiter struct {
	rt.Waiter
	c *countRT
}

func (w countWaiter) Wait() { w.c.waits++; w.Waiter.Wait() }

// TestReadIsSleepsOnly: a read spawns no process and never parks on an
// event, under either discipline, whether it is alone on the device, one
// of three concurrent requesters queued behind each other, or a batch
// striped over two spindles. FIFO assigns a request's transfer window at
// submission, so a FIFO read on the simulator hands the engine over
// exactly once — the SleepUntil of its completion. (A process hand-off
// per read is what the figure sweeps' wall time is made of.) An elevator
// read also waits for its window, and those waits reach the runtime as
// SleepUntil too: a yield, then the instants its device frees.
func TestReadIsSleepsOnly(t *testing.T) {
	cfg := ArrayConfig{Config: Config{Bandwidth: 1e6, SeekLatency: time.Millisecond}, Devices: 1, StripeChunk: 4}
	run := func(cfg ArrayConfig, readers int, read func(a *DeviceArray, i int)) *countRT {
		eng := sim.NewEngine()
		c := &countRT{Runtime: rt.Sim(eng)}
		a := NewArray(c, cfg)
		for i := 0; i < readers; i++ {
			i := i
			eng.Go("r", func() { read(a, i) })
		}
		eng.Run()
		return c
	}
	one := func(a *DeviceArray, i int) { a.Read(BlockID(10*i), 2, 2000) }
	batch := func(a *DeviceArray, i int) { a.ReadSpansOwner(nil, runSpans(a, 0, 16, 1000)) } // four chunks, two per spindle
	striped := cfg
	striped.Devices = 2

	for _, sched := range []string{SchedFIFO, SchedElevator} {
		cfg.Scheduler, striped.Scheduler = sched, sched
		for _, c := range []struct {
			name    string
			cfg     ArrayConfig
			readers int
			read    func(a *DeviceArray, i int)
		}{
			{"one reader", cfg, 1, one},
			{"three readers", cfg, 3, one},
			{"striped batch", striped, 1, batch},
		} {
			got := run(c.cfg, c.readers, c.read)
			if got.spawns != 0 || got.waits != 0 || got.sleeps != 0 {
				t.Errorf("%s, %s: %d spawns, %d event waits, %d Sleep; want none", sched, c.name, got.spawns, got.waits, got.sleeps)
			}
			if sched == SchedFIFO && got.untils != c.readers {
				t.Errorf("%s, %s: %d SleepUntil, want one per read", sched, c.name, got.untils)
			}
			if sched == SchedElevator && got.untils <= c.readers {
				t.Errorf("%s, %s: %d SleepUntil for %d reads; want the waits for windows there too", sched, c.name, got.untils, c.readers)
			}
		}
	}
}

// scriptedRead is one requester of the queue script: it arrives at a
// given time, reads one block run, and may be cancelled while queued.
type scriptedRead struct {
	at       time.Duration
	block    BlockID
	blocks   int
	bytes    int64
	cancelAt time.Duration // 0: never
}

// queueScript puts everything a discipline decides in one queue: the
// first two requests form a sequential run that keeps the device busy
// for 10 ms while the rest arrive behind it — a forward and a backward
// jump, two requests for the same block, one whose owner is cancelled
// before it arrives (skipped at its turn by either discipline) and one
// whose owner is cancelled mid-queue (FIFO gave it its window on arrival;
// only the elevator still finds it waiting).
var queueScript = []scriptedRead{
	{at: 0, block: 0, blocks: 4, bytes: 4000},
	{at: 0, block: 4, blocks: 4, bytes: 4000},
	{at: time.Millisecond, block: 100, blocks: 2, bytes: 900},
	{at: time.Millisecond, block: 6, blocks: 1, bytes: 123},
	{at: 2 * time.Millisecond, block: 50, blocks: 1, bytes: 500},
	{at: 2 * time.Millisecond, block: 50, blocks: 1, bytes: 500},
	{at: 2 * time.Millisecond, block: 60, blocks: 1, bytes: 800, cancelAt: 3 * time.Millisecond},
	{at: 3 * time.Millisecond, block: 70, blocks: 1, bytes: 600, cancelAt: time.Millisecond},
	{at: 3 * time.Millisecond, block: 61, blocks: 1, bytes: 700},
}

// runQueueScript plays queueScript against a and returns each request's
// completion time.
func runQueueScript(eng *sim.Engine, a *DeviceArray) []sim.Time {
	ends := make([]sim.Time, len(queueScript))
	for i, s := range queueScript {
		i, s := i, s
		q := rt.NewQueryCtx(rt.Sim(eng))
		eng.Go("reader", func() {
			eng.Sleep(s.at)
			a.ReadSpansOwner(q, span(s.block, s.blocks, s.bytes))
			ends[i] = eng.Now()
		})
		if s.cancelAt > 0 {
			eng.Go("canceller", func() {
				eng.Sleep(s.cancelAt)
				q.Cancel(rt.CauseClientCancel)
			})
		}
	}
	eng.Run()
	return ends
}

// TestQueueScriptSeparatesDisciplines: the same request script on one
// spindle under each discipline — the elevator reorders the backward jump
// behind the sweep where FIFO serves arrival order, both serve a
// same-block tie in arrival order, and each skips exactly the requests
// whose owners were cancelled by their service turn.
func TestQueueScriptSeparatesDisciplines(t *testing.T) {
	timelines := map[string][]sim.Time{}
	for _, sched := range []string{SchedFIFO, SchedElevator} {
		eng := sim.NewEngine()
		a := New(rt.Sim(eng), Config{Bandwidth: 1e6, SeekLatency: time.Millisecond, Scheduler: sched})
		timelines[sched] = runQueueScript(eng, a)
		wantSkipped := map[string]int64{SchedFIFO: 1, SchedElevator: 2}[sched]
		if s := a.Stats(); s.Skipped != wantSkipped || s.Requests != int64(len(queueScript))-wantSkipped {
			t.Errorf("%s: %+v, want %d cancelled owners' requests skipped and the rest served", sched, s.Stats, wantSkipped)
		}
	}
	fifo, elev := timelines[SchedFIFO], timelines[SchedElevator]
	last := len(queueScript) - 1
	if fifo[3] > fifo[4] || elev[3] < elev[last] {
		t.Errorf("backward jump to block 6: FIFO ended it at %v, the next arrival at %v (want arrival order); the elevator at %v, the last arrival at %v (want it served after the sweep wraps)",
			fifo[3], fifo[4], elev[3], elev[last])
	}
	if fifo[4] > fifo[5] || elev[4] > elev[5] {
		t.Errorf("same-block tie: FIFO ended the two at %v, %v, the elevator at %v, %v (want arrival order from both)",
			fifo[4], fifo[5], elev[4], elev[5])
	}
}

// TestBatchOnOneFIFODeviceMatchesBackToBackReads: a multi-span batch on a
// single FIFO spindle (the ABM loader's chunk load) is submitted whole
// and slept out once; the device timeline — completion instant,
// Requests, Seeks, BusyTime — is that of the same spans read one after
// the other.
func TestBatchOnOneFIFODeviceMatchesBackToBackReads(t *testing.T) {
	spans := []Span{{Block: 10, Blocks: 3, Bytes: 3000}, {Block: 13, Blocks: 2, Bytes: 1500}, {Block: 40, Blocks: 1, Bytes: 700}}
	run := func(read func(a *DeviceArray)) (sim.Time, Stats, int) {
		eng := sim.NewEngine()
		c := &countRT{Runtime: rt.Sim(eng)}
		a := New(c, Config{Bandwidth: 1e6, SeekLatency: time.Millisecond})
		var end sim.Time
		eng.Go("r", func() {
			read(a)
			end = eng.Now()
		})
		eng.Run()
		s := a.Stats().Stats
		s.MaxQueueLen = 0 // batch-granular by design (see ReadSpansOwner)
		return end, s, c.untils
	}
	endB, statsB, sleepsB := run(func(a *DeviceArray) { a.ReadSpansOwner(nil, spans) })
	endS, statsS, sleepsS := run(func(a *DeviceArray) {
		for _, s := range spans {
			a.Read(s.Block, s.Blocks, s.Bytes)
		}
	})
	if endB != endS || statsB != statsS {
		t.Errorf("batch ended at %v with %+v; back-to-back reads at %v with %+v", endB, statsB, endS, statsS)
	}
	if statsB.Requests != 3 || statsB.Seeks != 2 {
		t.Errorf("batch stats %+v, want 3 requests and 2 seeks (the second span continues the first)", statsB)
	}
	if sleepsB != 1 || sleepsS != 3 {
		t.Errorf("batch slept %d times, sequential reads %d; want 1 and 3", sleepsB, sleepsS)
	}
}
