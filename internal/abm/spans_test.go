package abm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Property: on a 4-device array each device transfers exactly the bytes
// of the pages the ABM loaded from it, whatever chunks it loads — random
// concurrent CScans over a table of random length and three columns of
// random widths (mixed page sizes, a partial last page per column), at
// random chunk sizes up to the whole table, so a chunk's batch can run
// from one column's partial last page into the next column. loadChunk
// cuts its batch into spans at stripe-chunk starts
// (iosim.DeviceArray.AppendSpan) with exact page bytes; nothing is
// re-priced on the way to the devices.
func TestPropertyABMSpansExactBytes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cat := storage.NewCatalog()
		var schema storage.Schema
		for _, name := range []string{"a", "b", "c"} {
			schema = append(schema, storage.ColumnDef{Name: name, Type: storage.Int64, Width: 1 + rng.Intn(12)})
		}
		tb, err := cat.CreateTable("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		data := storage.NewColumnData()
		n := 2000 + rng.Intn(30000)
		for c := range schema {
			data.I64[c] = make([]int64, n)
		}
		snap, err := tb.Master().Append(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Commit(); err != nil {
			t.Fatal(err)
		}

		eng := sim.NewEngine()
		disk := iosim.NewArray(rt.Sim(eng), iosim.ArrayConfig{
			Config:      iosim.Config{Bandwidth: 1e9, SeekLatency: time.Microsecond},
			Devices:     4,
			StripeChunk: 4,
		})
		chunk := []int64{2048, 8192, 1 << 16}[rng.Intn(3)]
		a := New(rt.Sim(eng), disk, Config{ChunkTuples: chunk, Capacity: snap.TotalBytes(nil)})
		want := make([]int64, disk.Devices())
		a.OnLoad = func(pg *storage.Page) { want[disk.DeviceFor(pg.Block)] += pg.Bytes }
		wg := eng.NewWaitGroup()
		for s := 0; s < 3; s++ {
			lo := rng.Int63n(int64(n))
			hi := lo + 1 + rng.Int63n(int64(n)-lo)
			var cols []int
			for c := range schema {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
			if cols == nil {
				cols = []int{rng.Intn(len(schema))}
			}
			wg.Add(1)
			eng.Go("scan", func() {
				defer wg.Done()
				cs := a.RegisterCScan(snap, cols, []SIDRange{{lo, hi}}, false)
				for {
					d, ok := cs.GetChunk()
					if !ok {
						break
					}
					eng.Sleep(time.Microsecond)
					d.Release()
				}
				cs.Unregister()
			})
		}
		eng.Go("driver", func() {
			wg.Wait()
			a.Stop()
		})
		eng.Run()
		for d, s := range disk.Stats().PerDevice {
			if s.BytesRead != want[d] {
				t.Errorf("seed %d: device %d read %d bytes, owns %d of the loaded pages", seed, d, s.BytesRead, want[d])
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
