package exec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// bothRuntimes runs body as the root process of a fresh n-tuple engine on
// the simulator and on the real-threaded runtime (run with -race). XChg is
// one mechanism on both, so every behaviour is asserted once, over both.
// body reports with t.Error: on the real runtime it is not the test
// goroutine.
func bothRuntimes(t *testing.T, n int, body func(t *testing.T, e *env)) {
	t.Run("sim", func(t *testing.T) {
		e := newEnv(t, n, false)
		e.run(func() { body(t, e) })
	})
	t.Run("real", func(t *testing.T) {
		e, r := newRealEnv(t, n)
		r.Go("test", func() { body(t, e) })
		done := make(chan struct{})
		go func() { r.Run(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("XChg left a process parked: Run never returned")
		}
	})
}

// scanParts partitions a scan of column 0 over [0,n) into parts subplans.
func scanParts(ctx *Ctx, e *env, n int64, parts int) []func() Op {
	var mk []func() Op
	for _, r := range PartitionRange(0, n, parts) {
		r := r
		mk = append(mk, func() Op {
			return &Scan{Ctx: ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{r}}
		})
	}
	return mk
}

// TestXChgMergesAllPartitions: several XChg queries run concurrently,
// twelve producers at once, and each merges every tuple of every
// partition.
func TestXChgMergesAllPartitions(t *testing.T) {
	bothRuntimes(t, 6000, func(t *testing.T, e *env) {
		var got atomic.Int64
		wg := e.ctx.RT.NewWaitGroup()
		for q := 0; q < 4; q++ {
			wg.Add(1)
			e.ctx.RT.Go("query", func() {
				defer wg.Done()
				got.Add(int64(Drain(&XChg{Ctx: e.ctx, Parts: scanParts(e.ctx, e, 6000, 3)})))
			})
		}
		wg.Wait()
		if got.Load() != 4*6000 {
			t.Errorf("merged %d tuples, want %d", got.Load(), 4*6000)
		}
	})
}

// waitOpen is a subplan whose Open first waits at a rendezvous.
type waitOpen struct {
	Op
	wait func()
}

func (w waitOpen) Open() { w.wait(); w.Op.Open() }

// rendezvous returns a function each of n callers blocks in until all n
// have called it.
func rendezvous(r rt.Runtime, n int) func() {
	var mu sync.Mutex
	all := r.NewEvent()
	return func() {
		mu.Lock()
		if n--; n == 0 {
			mu.Unlock()
			all.Fire()
			return
		}
		w := all.Waiter()
		mu.Unlock()
		w.Wait()
	}
}

// TestXChgRunsEveryPartAtOnce: XChg starts every producer at Open, on
// both runtimes, so four parts that each wait in Open until all four
// have opened complete. A bound on producers below the part count would
// leave the last parts unstarted and the first ones waiting for good.
func TestXChgRunsEveryPartAtOnce(t *testing.T) {
	const n, parts = 8000, 4
	bothRuntimes(t, n, func(t *testing.T, e *env) {
		wait := rendezvous(e.ctx.RT, parts)
		var mk []func() Op
		for _, part := range scanParts(e.ctx, e, n, parts) {
			part := part
			mk = append(mk, func() Op { return waitOpen{Op: part(), wait: wait} })
		}
		if got := Drain(&XChg{Ctx: e.ctx, Parts: mk}); got != n {
			t.Errorf("merged %d tuples, want %d", got, n)
		}
	})
}

// TestXChgBackpressure: a slow consumer must not let producers run
// unboundedly ahead: the queue stays within QueueCap*len(parts).
func TestXChgBackpressure(t *testing.T) {
	bothRuntimes(t, 8000, func(t *testing.T, e *env) {
		x := &XChg{Ctx: e.ctx, Parts: scanParts(e.ctx, e, 8000, 2), QueueCap: 2}
		x.Open()
		maxQueue := 0
		for b := x.Next(); b != nil; b = x.Next() {
			e.ctx.RT.Sleep(time.Millisecond) // slow consumer
			x.mu.Lock()
			maxQueue = max(maxQueue, len(x.queue))
			x.mu.Unlock()
		}
		x.Close()
		if maxQueue == 0 || maxQueue > 2*len(x.Parts) {
			t.Errorf("queue grew to %d batches, want within (0, %d]", maxQueue, 2*len(x.Parts))
		}
	})
}

// TestXChgEarlyCloseStopsProducers: a consumer that abandons the stream
// stops its producers — parked on a full queue or mid-scan — instead of
// letting them run their subplans to the end for batches nobody reads.
// Close returns once they have terminated (or Run would hang, and the
// sim engine panic with a deadlock), and the pool has then loaded only
// what they had reached, for good.
func TestXChgEarlyCloseStopsProducers(t *testing.T) {
	const n = 64000
	bothRuntimes(t, n, func(t *testing.T, e *env) {
		ctx := *e.ctx
		ctx.ReadAheadTuples = 1 // one page a miss: loading tracks scanning
		x := &XChg{Ctx: &ctx, Parts: scanParts(&ctx, e, n, 2), QueueCap: 1}
		x.Open()
		if b := x.Next(); b == nil {
			t.Error("no batch")
		}
		x.Close()
		loaded := ctx.Pool.Stats().BytesLoaded
		if total := e.snap.TotalBytes([]int{0}); loaded == 0 || loaded > total/2 {
			t.Errorf("producers loaded %d of %d bytes for a consumer that read one batch", loaded, total)
		}
		ctx.RT.Sleep(5 * time.Millisecond)
		if after := ctx.Pool.Stats().BytesLoaded; after != loaded {
			t.Errorf("bytes loaded grew %d -> %d after Close returned", loaded, after)
		}
	})
}

// TestXChgCancel: cancelling the query mid-merge must stop the consumer
// at the next batch and let every producer terminate, parked on the full
// queue or mid-scan.
func TestXChgCancel(t *testing.T) {
	bothRuntimes(t, 16000, func(t *testing.T, e *env) {
		qc := rt.NewQueryCtx(e.ctx.RT)
		ctx := e.ctx.WithQuery(qc)
		x := &XChg{Ctx: ctx, Parts: scanParts(ctx, e, 16000, 4), QueueCap: 1}
		x.Open()
		var n int64
		if b := x.Next(); b != nil {
			n += int64(b.N)
		}
		qc.Cancel(rt.CauseClientCancel)
		for b := x.Next(); b != nil; b = x.Next() {
			n += int64(b.N)
		}
		x.Close()
		x.Close()
		if n >= 16000 {
			t.Errorf("merged all %d tuples despite cancel", n)
		}
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
