package exec

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/storage"
)

// Real-runtime executor tests (run with -race): XChg's worker-pool fan
// -out path, which replaces the cooperative slice queue with a bounded
// channel and pooled producer goroutines.

// newRealEnv mirrors newEnv on the real runtime with a worker pool of the
// given size.
func newRealEnv(t testing.TB, n, workers int) (*env, rt.Runtime) {
	t.Helper()
	r := rt.NewReal()
	return newRealEnvOn(t, r, n, workers), r
}

// newRealEnvOn is newRealEnv over a given real runtime (a counting
// wrapper, in the pacing tests).
func newRealEnvOn(t testing.TB, r rt.Runtime, n, workers int) *env {
	t.Helper()
	disk := iosim.New(r, iosim.Config{Bandwidth: 10e9, SeekLatency: time.Microsecond})
	pool := buffer.NewPool(r, disk, buffer.NewLRU(), 1<<30)

	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{
		{Name: "id", Type: storage.Int64, Width: 8},
		{Name: "val", Type: storage.Float64, Width: 8},
		{Name: "tag", Type: storage.String, Width: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewColumnData()
	ids := make([]int64, n)
	vals := make([]float64, n)
	tags := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		vals[i] = float64(i) / 2
		tags[i] = "A"
	}
	d.I64[0] = ids
	d.F64[1] = vals
	d.Str[2] = tags
	snap, err := tb.Master().Append(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	e := &env{
		snap: snap,
		ctx: &Ctx{
			RT:              r,
			Pool:            pool,
			ReadAheadTuples: 8192,
			Workers:         rt.NewWorkerPool(r, workers),
		},
	}
	return e
}

func TestRealXChgMergesAllPartitions(t *testing.T) {
	e, r := newRealEnv(t, 6000, 2)
	var got atomic.Int64
	// Several XChg queries share the 2-worker pool concurrently: more
	// subplans than workers, so producers queue on the pool semaphore.
	for q := 0; q < 4; q++ {
		r.Go("query", func() {
			parts := make([]func() Op, 0, 3)
			for _, pr := range PartitionRange(0, 6000, 3) {
				pr := pr
				parts = append(parts, func() Op {
					return &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{pr}}
				})
			}
			got.Add(int64(Drain(&XChg{Ctx: e.ctx, Parts: parts})))
		})
	}
	done := make(chan struct{})
	go func() { r.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("real XChg deadlocked")
	}
	if got.Load() != 4*6000 {
		t.Fatalf("merged %d tuples, want %d", got.Load(), 4*6000)
	}
}

func TestRealXChgEarlyCloseStopsProducers(t *testing.T) {
	e, r := newRealEnv(t, 8000, 2)
	r.Go("query", func() {
		parts := make([]func() Op, 0, 2)
		for _, pr := range PartitionRange(0, 8000, 2) {
			pr := pr
			parts = append(parts, func() Op {
				return &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{pr}}
			})
		}
		x := &XChg{Ctx: e.ctx, Parts: parts, QueueCap: 1}
		x.Open()
		if b := x.Next(); b == nil {
			t.Error("no batch")
		}
		// Abandon the rest; Close must cancel the producers or Run hangs
		// on goroutines blocked sending into the merge channel.
		x.Close()
	})
	done := make(chan struct{})
	go func() { r.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("early Close leaked blocked producers")
	}
}
