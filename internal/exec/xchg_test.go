package exec

import (
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

func TestXChgMergesAllPartitions(t *testing.T) {
	e := newEnv(t, 6000, false)
	e.run(func() {
		parts := make([]func() Op, 0, 3)
		for _, r := range PartitionRange(0, 6000, 3) {
			r := r
			parts = append(parts, func() Op {
				return &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{r}}
			})
		}
		n := Drain(&XChg{Ctx: e.ctx, Parts: parts})
		if n != 6000 {
			t.Fatalf("merged %d tuples, want 6000", n)
		}
	})
}

func TestXChgBackpressure(t *testing.T) {
	// A slow consumer must not let producers run unboundedly ahead: the
	// queue stays within QueueCap*len(parts).
	e := newEnv(t, 8000, false)
	e.run(func() {
		parts := make([]func() Op, 0, 2)
		for _, r := range PartitionRange(0, 8000, 2) {
			r := r
			parts = append(parts, func() Op {
				return &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{r}}
			})
		}
		x := &XChg{Ctx: e.ctx, Parts: parts, QueueCap: 2}
		x.Open()
		maxQueue := 0
		for b := x.Next(); b != nil; b = x.Next() {
			e.eng.Sleep(time.Millisecond) // slow consumer
			if len(x.queue) > maxQueue {
				maxQueue = len(x.queue)
			}
		}
		x.Close()
		if maxQueue > 2*len(parts) {
			t.Fatalf("queue grew to %d batches (cap %d)", maxQueue, 2*len(parts))
		}
	})
}

func TestXChgEarlyCloseDrainsWorkers(t *testing.T) {
	e := newEnv(t, 8000, false)
	e.run(func() {
		parts := make([]func() Op, 0, 2)
		for _, r := range PartitionRange(0, 8000, 2) {
			r := r
			parts = append(parts, func() Op {
				return &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{r}}
			})
		}
		x := &XChg{Ctx: e.ctx, Parts: parts, QueueCap: 1}
		x.Open()
		if b := x.Next(); b == nil {
			t.Fatal("no batch")
		}
		// Abandon the rest; Close must let both workers terminate or the
		// engine would panic with a deadlock at Run's end.
		x.Close()
	})
}

func TestXChgSchemaFromParts(t *testing.T) {
	e := newEnv(t, 100, false)
	x := &XChg{Ctx: e.ctx, Parts: []func() Op{func() Op {
		return &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 2}, Ranges: []RIDRange{{0, 100}}}
	}}}
	got := x.Schema()
	if len(got) != 2 || got[0] != storage.Int64 || got[1] != storage.String {
		t.Fatalf("schema = %v", got)
	}
	// Consume the probe plan's resources by running the XChg to
	// completion (Schema() pre-built one part).
	e.run(func() { _ = Drain(x) })
}

func TestCPUWorkZeroIsFree(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(rt.Sim(eng), 1)
	eng.Go("w", func() {
		cpu.Work(nil, 0)
		if eng.Now() != 0 {
			t.Error("zero work advanced the clock")
		}
	})
	eng.Run()
}
