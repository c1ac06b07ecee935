package exec

import (
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/storage"
)

// The real-runtime executor fixture. XChg's tests run on it and on the
// simulator alike (xchg_test.go: bothRuntimes).

// newRealEnv mirrors newEnv on the real runtime.
func newRealEnv(t testing.TB, n int) (*env, rt.Runtime) {
	t.Helper()
	r := rt.NewReal()
	return newRealEnvOn(t, r, n), r
}

// newRealEnvOn is newRealEnv over a given real runtime (a counting
// wrapper, in the pacing tests).
func newRealEnvOn(t testing.TB, r rt.Runtime, n int) *env {
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
		},
	}
	return e
}
