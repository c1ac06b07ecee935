package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	scanshare "repro"
	"repro/internal/abm"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/minmax"
	"repro/internal/opt"
	"repro/internal/pbm"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/wire"
)

// Layer unit costs: testing.Benchmark microbenchmarks that call one
// layer's exported functions in isolation. They run on a fixture of their
// own (a fifth of the benchmark's scale factor), so a unit cost does not
// depend on the workload; each is therefore measured once per set, in the
// traced run of the workload that leans on its layer hardest. A traced run
// gives each only layerBenchtime, enough to see a 2x change.

// layerBench is one microbenchmark. on names the workload whose traced
// run measures it. ns and allocs name the metrics that take its ns/op and
// allocs/op; a bench whose unit is not the iteration (a tuple, a row, a
// chunk) leaves them empty and reports its metrics itself, by name,
// through units.done or b.ReportMetric.
type layerBench struct {
	on         string
	fn         func(*fixture, *testing.B)
	ns, allocs string
}

var layerBenches = []layerBench{
	{on: "micro-pbm", fn: benchSimSwitch, ns: "sim.switch_ns", allocs: "sim.switch_allocs"},
	{on: "micro-pbm", fn: benchSimEventWake},
	{on: "micro-pbm", fn: func(f *fixture, b *testing.B) { benchDiskRead(b, iosim.SchedFIFO) }, ns: "iosim.read_ns"},
	{on: "micro-pbm", fn: func(f *fixture, b *testing.B) { benchDiskRead(b, iosim.SchedElevator) }, ns: "iosim.elevator_read_ns"},
	{on: "micro-pbm", fn: func(f *fixture, b *testing.B) { benchMissEvict(f, b, scanshare.LRU) }, ns: "buffer.miss_evict_ns", allocs: "buffer.miss_evict_allocs"},
	{on: "micro-pbm", fn: func(f *fixture, b *testing.B) { benchMissEvict(f, b, scanshare.PBM) }, ns: "pbm.miss_evict_ns"},
	{on: "micro-pbm", fn: benchPBMRegister},
	{on: "micro-pbm", fn: benchPBMReport, ns: "pbm.report_ns"},
	{on: "micro-pbm", fn: benchPBMEstimate, ns: "pbm.estimate_ns"},
	{on: "micro-pbm", fn: benchXChg},
	{on: "micro-pbm", fn: benchOPT},

	{on: "micro-cscan", fn: benchABM},
	{on: "micro-cscan", fn: benchCScan},

	{on: "serve-hot", fn: benchPagesInRange, ns: "storage.pages_in_range_ns", allocs: "storage.pages_in_range_allocs"},
	{on: "serve-hot", fn: benchPoolHit, ns: "buffer.hit_ns", allocs: "buffer.hit_allocs"},
	{on: "serve-hot", fn: benchPoolHitContended, ns: "buffer.hit_contended_ns"},
	{on: "serve-hot", fn: benchPoolGetRun, ns: "buffer.getrun_ns"},
	{on: "serve-hot", fn: benchScan},
	{on: "serve-hot", fn: func(f *fixture, b *testing.B) { benchQuery(f, b, false, "exec.q6_ns_per_tuple") }},
	{on: "serve-hot", fn: func(f *fixture, b *testing.B) { benchQuery(f, b, true, "exec.q1_ns_per_tuple") }},
	{on: "serve-hot", fn: benchBuildPlan, ns: "workload.buildplan_ns", allocs: "workload.buildplan_allocs"},
	{on: "serve-hot", fn: benchServerStream},
	{on: "serve-hot", fn: benchWireDecode, ns: "wire.request_decode_ns"},
	// Last of its run: it piles 10k completed queries into the fixture's server.
	{on: "serve-hot", fn: benchStatz, ns: "server.statz_ns_10k"},

	{on: "serve-cold", fn: benchRealSleep},
	{on: "serve-cold", fn: benchRealEventWake},
	{on: "serve-cold", fn: benchAdmitDone, ns: "sched.admit_done_ns", allocs: "sched.admit_done_allocs"},
	{on: "serve-cold", fn: benchQueuedAdmit, ns: "sched.queued_admit_ns"},
	{on: "serve-cold", fn: benchSchedStats, ns: "sched.stats_ns_10k"},

	{on: "serve-htap", fn: benchPDTScan},
	{on: "serve-htap", fn: benchPrune, ns: "minmax.prune_ns"},
	{on: "serve-htap", fn: benchPDTUpdate, ns: "pdt.update_ns"},
	{on: "serve-htap", fn: benchPDTCheckpoint},
}

// setLayerCosts runs the workload's layer microbenchmarks and records
// their metrics.
func setLayerCosts(res *result, o options) error {
	testing.Init()
	if err := flag.Set("test.benchtime", o.benchtime.String()); err != nil {
		return err
	}
	f := newFixture(o)
	defer f.close()
	for _, lb := range layerBenches {
		if lb.on != o.workload {
			continue
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			lb.fn(f, b)
		})
		if r.N == 0 {
			return fmt.Errorf("layer microbenchmark for %s%s failed", lb.ns, lb.allocs)
		}
		if lb.ns != "" {
			res.set(lb.ns, float64(r.T.Nanoseconds())/float64(r.N))
		}
		if lb.allocs != "" {
			res.set(lb.allocs, float64(r.MemAllocs)/float64(r.N))
		}
		for name, v := range r.Extra {
			if _, ok := res.spec.metric(name); ok {
				res.set(name, v)
			}
		}
	}
	res.phase("layer_costs")
	return nil
}

// fixture is the data and the long-lived engines the microbenchmarks
// share.
type fixture struct {
	db      *tpch.DB
	snap    *storage.Snapshot
	n       int64
	cols    []int // the scan column set
	shipCol int
	pages   []*storage.Page // every page of the scan columns
	hot     *scanshare.System
	srv     *server.Server
}

func newFixture(o options) *fixture {
	f := &fixture{db: tpch.Generate(o.sf/5, o.seed)}
	f.snap = f.db.Snapshot("lineitem")
	f.n = f.snap.NumTuples()
	for _, c := range scanColumns {
		f.cols = append(f.cols, f.db.Col("lineitem", c))
		f.pages = append(f.pages, f.snap.Pages(f.cols[len(f.cols)-1])...)
	}
	f.shipCol = f.db.Col("lineitem", "l_shipdate")

	// hot: the real runtime over a pool that holds everything, as
	// serve-hot runs; every page is loaded once here.
	f.hot = scanshare.NewSystem(scanshare.SystemConfig{
		Policy: scanshare.LRU, BufferBytes: 1 << 30, BandwidthMB: 1e6, Real: true,
	})
	for _, pg := range f.pages {
		f.hot.Pool.Unpin(f.hot.Pool.Get(pg))
	}

	cfg := scanshare.NewServeEngineConfig(scanshare.Options{SF: o.sf / 5, Seed: o.seed}, scanshare.ServeAxes{})
	cfg.BufferFrac, cfg.PerTupleCPU = 2, 0
	f.srv = server.New(f.db, server.Config{Serve: cfg})
	return f
}

func (f *fixture) close() {
	_ = f.srv.Drain(context.Background()) // nothing is in flight
	f.srv.Close()
}

// cscanSystem is a sim-runtime Cooperative Scans instance at the micro
// point's chunk size whose ABM holds half the scan columns, or two chunks
// if a toy fixture's half is smaller than that.
func (f *fixture) cscanSystem() *scanshare.System {
	const chunk = 2048
	total := f.snap.TotalBytes(f.cols)
	return scanshare.NewSystem(scanshare.SystemConfig{
		Policy: scanshare.CScan, ChunkTuples: chunk,
		BufferBytes: max(total/2, total*2*chunk/f.n),
	})
}

// tenth is the i-th 10% range of the table, cycling.
func (f *fixture) tenth(i int) exec.RIDRange {
	span := f.n / 10
	lo := int64(i%10) * span
	return exec.RIDRange{Lo: lo, Hi: lo + span}
}

// scans returns a ScanBuilder of plain Scans through ctx's pool.
func (f *fixture) scans(ctx *exec.Ctx) tpch.ScanBuilder {
	return func(table string, cols []string, ranges []exec.RIDRange, _ bool) exec.Op {
		snap := f.db.Snapshot(table)
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = f.db.Col(table, c)
		}
		return &exec.Scan{Ctx: ctx, Snap: snap, Cols: idx, Ranges: ranges}
	}
}

// units meters a bench whose unit of work is not the iteration.
type units struct {
	b       *testing.B
	mallocs uint64
}

func startUnits(b *testing.B) units {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ResetTimer()
	return units{b, ms.Mallocs}
}

// done reports ns per unit under nsName and, if allocsName is set, allocs
// per allocUnit.
func (u units) done(n int64, nsName string, allocUnits float64, allocsName string) {
	u.b.StopTimer()
	u.b.ReportMetric(float64(u.b.Elapsed().Nanoseconds())/float64(n), nsName)
	if allocsName != "" {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.b.ReportMetric(float64(ms.Mallocs-u.mallocs)/allocUnits, allocsName)
	}
}

// share splits n iterations over parts workers.
func share(n, parts, i int) int {
	s := n / parts
	if i < n%parts {
		s++
	}
	return s
}

var sink any

// sim: one Sleep -> wake hand-off among eight processes.
func benchSimSwitch(_ *fixture, b *testing.B) {
	eng := sim.NewEngine()
	for p := 0; p < 8; p++ {
		n := share(b.N, 8, p)
		eng.Go("sleeper", func() {
			for i := 0; i < n; i++ {
				eng.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	eng.Run()
}

// sim: one Event Fire -> waiter runs; two processes ping-pong.
func benchSimEventWake(_ *fixture, b *testing.B) {
	eng := sim.NewEngine()
	ping, pong := eng.NewEvent(), eng.NewEvent()
	eng.Go("pong", func() { // created first, so it is waiting when ping fires
		for i := 0; i < b.N; i++ {
			ping.Wait()
			pong.Fire()
		}
	})
	eng.Go("ping", func() {
		for i := 0; i < b.N; i++ {
			ping.Fire()
			pong.Wait()
		}
	})
	b.ResetTimer()
	eng.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "sim.event_wake_ns")
}

// rt: how much longer than asked the real runtime sleeps for one vector's
// modelled CPU time (60 ns x 1024 tuples).
func benchRealSleep(_ *fixture, b *testing.B) {
	r := rt.NewReal()
	const d = 60 * time.Nanosecond * exec.VectorSize
	var over time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r.Sleep(d)
		over += time.Since(t0) - d
	}
	b.ReportMetric(over.Seconds()*1e6/float64(b.N), "rt.real_sleep_overshoot_us")
}

// rt: one Event Fire -> waiting goroutine runs, on the real runtime.
func benchRealEventWake(_ *fixture, b *testing.B) {
	r := rt.NewReal()
	ping, pong := r.NewEvent(), r.NewEvent()
	ready, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		w := ping.Waiter()
		close(ready)
		for i := 0; i < b.N; i++ {
			w.Wait()
			w = ping.Waiter() // before the Fire that lets the peer fire ping again
			pong.Fire()
		}
	}()
	<-ready
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := pong.Waiter()
		ping.Fire()
		w.Wait()
	}
	<-done
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "rt.real_event_wake_ns")
}

// iosim: one page read on the sim runtime with eight readers queueing.
func benchDiskRead(b *testing.B, scheduler string) {
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 700e6, SeekLatency: 50 * time.Microsecond, Scheduler: scheduler})
	for p := 0; p < 8; p++ {
		n, base := share(b.N, 8, p), p*100_000
		eng.Go("reader", func() {
			for i := 0; i < n; i++ {
				disk.Read(iosim.BlockID(base+i*37%4096), 1, storage.PageSize)
			}
		})
	}
	b.ResetTimer()
	eng.Run()
}

// storage: the pages of one column under one vector.
func benchPagesInRange(f *fixture, b *testing.B) {
	col := f.db.Col("lineitem", "l_extendedprice")
	for i := 0; i < b.N; i++ {
		lo := int64(i) * exec.VectorSize % (f.n - exec.VectorSize)
		sink = f.snap.PagesInRange(col, lo, lo+exec.VectorSize)
	}
}

// buffer: Get + Unpin of a resident page.
func benchPoolHit(f *fixture, b *testing.B) {
	pool := f.hot.Pool
	for i := 0; i < b.N; i++ {
		pool.Unpin(pool.Get(f.pages[i%len(f.pages)]))
	}
}

// buffer: the same from two goroutines at once over eight shards.
func benchPoolHitContended(f *fixture, b *testing.B) {
	pool := f.hot.Pool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		n, off := share(b.N, 2, g), g*len(f.pages)/2
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				pool.Unpin(pool.Get(f.pages[(off+i)%len(f.pages)]))
			}
		}()
	}
	wg.Wait()
}

// buffer: GetRun over four resident pages of one column (fewer when a
// toy fixture's column has fewer).
func benchPoolGetRun(f *fixture, b *testing.B) {
	pool := f.hot.Pool
	pages := f.snap.Pages(f.db.Col("lineitem", "l_extendedprice"))
	run := min(4, len(pages))
	for i := 0; i < b.N; i++ {
		j := i % (len(pages) - run + 1)
		pool.Unpin(pool.GetRun(pages[j : j+run]))
	}
}

// buffer, pbm: Get of a page that is not resident, into a full pool a
// quarter the size of the cycle, on the sim runtime so device time is
// virtual. Under PBM each pass over the cycle is one registered scan.
func benchMissEvict(f *fixture, b *testing.B, policy scanshare.Policy) {
	pages := f.pages
	if len(pages) > 256 {
		pages = pages[:256]
	}
	var total, largest int64
	for _, pg := range pages {
		total += pg.Bytes
		largest = max(largest, pg.Bytes)
	}
	capacity := max(total/4, 2*largest)
	sys := scanshare.NewSystem(scanshare.SystemConfig{Policy: policy, BufferBytes: capacity, PoolShards: 1})
	b.ResetTimer()
	sys.Run(func() {
		for i := 0; i < b.N; {
			var id pbm.ScanID
			if sys.PBM != nil {
				id = sys.PBM.RegisterScan([][]*storage.Page{pages})
			}
			for _, pg := range pages {
				if i++; i > b.N {
					break
				}
				sys.Pool.Unpin(sys.Pool.Get(pg))
			}
			if sys.PBM != nil {
				sys.PBM.UnregisterScan(id)
			}
		}
	})
}

// tickClock advances a fixed step per reading, so PBM's timeline moves
// without an engine.
type tickClock struct{ now sim.Time }

func (c *tickClock) Now() sim.Time {
	c.now += sim.Time(10 * time.Microsecond)
	return c.now
}

func (f *fixture) pbmScan(r exec.RIDRange) [][]*storage.Page {
	per := make([][]*storage.Page, len(f.cols))
	for i, c := range f.cols {
		per[i] = f.snap.PagesInRange(c, r.Lo, r.Hi)
	}
	return per
}

func microPBM() *pbm.Group {
	cfg := pbm.DefaultConfig()
	cfg.TimeSlice = 500 * time.Microsecond // the micro point's timeline, see workload.newEnv
	cfg.NumGroups = 12
	return pbm.NewGroup(&tickClock{}, cfg, 1)
}

// pbm: RegisterScan and UnregisterScan of a 10% scan, timed apart.
func benchPBMRegister(f *fixture, b *testing.B) {
	g := microPBM()
	var reg, unreg time.Duration
	for i := 0; i < b.N; i++ {
		per := f.pbmScan(f.tenth(i))
		t0 := time.Now()
		id := g.RegisterScan(per)
		t1 := time.Now()
		g.UnregisterScan(id)
		reg += t1.Sub(t0)
		unreg += time.Since(t1)
	}
	b.ReportMetric(float64(reg.Nanoseconds())/float64(b.N), "pbm.register_ns")
	b.ReportMetric(float64(unreg.Nanoseconds())/float64(b.N), "pbm.unregister_ns")
}

// pbm: one progress report of a registered full-table scan.
func benchPBMReport(f *fixture, b *testing.B) {
	g := microPBM()
	id := g.RegisterScan(f.pbmScan(exec.RIDRange{Lo: 0, Hi: f.n}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReportScanPosition(id, int64(i+1)*exec.VectorSize)
	}
}

func benchPBMEstimate(f *fixture, b *testing.B) {
	g := microPBM()
	g.RegisterScan(f.pbmScan(f.tenth(0)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.EstimateScanTime(int64(i) + 1)
	}
}

// abm: RegisterCScan, and GetChunk + Release per delivered chunk, of a
// full-table cooperative scan at the micro point's chunk size.
func benchABM(f *fixture, b *testing.B) {
	sys := f.cscanSystem()
	var reg time.Duration
	var chunks int64
	u := startUnits(b)
	sys.Run(func() {
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			cs := sys.ABM.RegisterCScan(f.snap, f.cols, []abm.SIDRange{{Lo: 0, Hi: f.n}}, false)
			reg += time.Since(t0)
			for {
				d, ok := cs.GetChunk()
				if !ok {
					break
				}
				d.Release()
				chunks++
			}
			cs.Unregister()
		}
	})
	u.done(chunks, "abm.getchunk_ns", float64(chunks), "abm.getchunk_allocs")
	b.ReportMetric(float64(reg.Nanoseconds())/float64(b.N), "abm.register_ns")
}

// exec: a plain Scan of the seven scan columns over a resident 10% range.
func benchScan(f *fixture, b *testing.B) {
	var tuples int64
	u := startUnits(b)
	for i := 0; i < b.N; i++ {
		tuples += exec.Drain(&exec.Scan{Ctx: f.hot.Ctx, Snap: f.snap, Cols: f.cols, Ranges: []exec.RIDRange{f.tenth(i)}})
	}
	u.done(tuples, "exec.scan_ns_per_tuple", float64(tuples)/exec.VectorSize, "exec.scan_allocs_per_vector")
}

// exec: the whole Q6 or Q1 plan over a resident 10% range.
func benchQuery(f *fixture, b *testing.B, q1 bool, name string) {
	build := f.scans(f.hot.Ctx)
	var tuples int64
	u := startUnits(b)
	for i := 0; i < b.N; i++ {
		r := f.tenth(i)
		plan := tpch.Q6([]exec.RIDRange{r})
		if q1 {
			plan = tpch.Q1([]exec.RIDRange{r})
		}
		exec.Drain(plan(f.db, build))
		tuples += r.Hi - r.Lo
	}
	u.done(tuples, name, 0, "")
}

// exec: a CScan of a 10% range through the ABM, on the sim runtime.
func benchCScan(f *fixture, b *testing.B) {
	sys := f.cscanSystem()
	var tuples int64
	u := startUnits(b)
	sys.Run(func() {
		for i := 0; i < b.N; i++ {
			tuples += exec.Drain(sys.NewScan(f.snap, f.cols, []exec.RIDRange{f.tenth(i)}, nil))
		}
	})
	u.done(tuples, "exec.cscan_ns_per_tuple", 0, "")
}

// exec: Q6 over the whole resident table split eight ways under an XChg,
// on the real runtime's worker pool.
func benchXChg(f *fixture, b *testing.B) {
	build := f.scans(f.hot.Ctx)
	var tuples int64
	u := startUnits(b)
	for i := 0; i < b.N; i++ {
		var parts []func() exec.Op
		for _, pr := range exec.PartitionRange(0, f.n, 8) {
			pr := pr
			parts = append(parts, func() exec.Op { return tpch.Q6([]exec.RIDRange{pr})(f.db, build) })
		}
		exec.Drain(&exec.XChg{Ctx: f.hot.Ctx, Parts: parts})
		tuples += f.n
	}
	u.done(tuples, "exec.xchg_ns_per_tuple", 0, "")
}

// exec: a full Scan merging 1000 pending deltas on the fly.
func benchPDTScan(f *fixture, b *testing.B) {
	schema := f.snap.Table().Schema
	p := pdt.New(schema, f.n)
	row := make(pdt.Row, len(schema))
	for i, def := range schema {
		switch def.Type {
		case storage.Int64:
			row[i] = pdt.IntVal(1)
		case storage.Float64:
			row[i] = pdt.FloatVal(1)
		default:
			row[i] = pdt.StrVal("U")
		}
	}
	for i := int64(0); i < 1000; i++ {
		rid := i * 7919 % p.NumTuples()
		switch i % 4 {
		case 0:
			p.InsertAt(rid, row.Clone())
		case 1:
			p.DeleteAt(rid)
		default:
			p.ModifyAt(rid, f.shipCol, pdt.IntVal(i))
		}
	}
	var tuples int64
	u := startUnits(b)
	for i := 0; i < b.N; i++ {
		tuples += exec.Drain(&exec.Scan{Ctx: f.hot.Ctx, Snap: f.snap, Cols: f.cols, Ranges: []exec.RIDRange{{Lo: 0, Hi: p.NumTuples()}}, PDT: p})
	}
	u.done(tuples, "exec.pdt_scan_ns_per_tuple", 0, "")
}

// minmax: PruneRange of the whole table by a 10%-of-domain shipdate
// window, at chunk granularity.
func benchPrune(f *fixture, b *testing.B) {
	ix := minmax.Build(f.snap, f.shipCol, 2048)
	const window = (tpch.DateMax - tpch.DateMin) / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%9) * window
		sink = ix.PruneRange(0, f.n, lo, lo+window)
	}
}

// pdt: Store.Update committing four modifies; the store is replaced at
// every checkpoint trigger's worth of operations so its size stays put.
func benchPDTUpdate(f *fixture, b *testing.B) {
	var store *pdt.Store
	for i := 0; i < b.N; i++ {
		if i%(checkpointOps/4) == 0 {
			store = pdt.NewStoreAt(f.snap)
		}
		applyModifies(store, f, i)
	}
}

func applyModifies(store *pdt.Store, f *fixture, i int) {
	err := store.Update(func(tx *pdt.Tx) error {
		for k := 0; k < 4; k++ {
			tx.Modify(int64(i*4+k)*7919%tx.NumTuples(), f.shipCol, pdt.IntVal(int64(i)))
		}
		return nil
	})
	if err != nil {
		panic(err) // Update's transactions run one at a time and cannot conflict
	}
}

// pdt: PropagateWriteToRead + Checkpoint with a trigger's worth of
// operations pending, the work of one background merge.
func benchPDTCheckpoint(f *fixture, b *testing.B) {
	store := pdt.NewStoreAt(f.snap)
	var spent time.Duration
	for i := 0; i < b.N; i++ {
		for k := 0; k < checkpointOps/4; k++ {
			applyModifies(store, f, k)
		}
		t0 := time.Now()
		store.PropagateWriteToRead()
		if _, err := store.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		spent += time.Since(t0)
	}
	b.ReportMetric(spent.Seconds()*1e3/float64(b.N), "pdt.checkpoint_ms")
}

// sched: admit and complete one query with no contention (fifo, MPL 8).
func benchAdmitDone(_ *fixture, b *testing.B) {
	s := sched.New(rt.NewReal(), sched.Config{MPL: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, _ := s.AdmitQuery(sched.Query{Seq: i})
		tk.Done()
	}
}

// sched: one admission through a 64-deep sesf queue at MPL 1, on the sim
// runtime; the figure includes the hand-off to the admitted process.
func benchQueuedAdmit(_ *fixture, b *testing.B) {
	eng := sim.NewEngine()
	s := sched.New(rt.Sim(eng), sched.Config{MPL: 1, QueueDepth: -1, Policy: "sesf"})
	for p := 0; p < 65; p++ {
		p, n, rng := p, share(b.N, 65, p), rand.New(rand.NewSource(int64(p)))
		eng.Go("client", func() {
			for i := 0; i < n; i++ {
				tk, _ := s.AdmitQuery(sched.Query{Stream: p, Seq: i, Cost: rng.Float64()})
				eng.Yield() // hold the slot while the others queue
				tk.Done()
			}
		})
	}
	b.ResetTimer()
	eng.Run()
}

// sched: Stats over 10k completed queries.
func benchSchedStats(_ *fixture, b *testing.B) {
	r := rt.NewReal()
	s := sched.New(r, sched.Config{MPL: 8})
	for i := 0; i < 10_000; i++ {
		tk, _ := s.AdmitQuery(sched.Query{Seq: i})
		tk.Done()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.Stats(r.Now())
	}
}

// workload: ServeEngine.BuildPlan of a q6 over a 10% range.
func benchBuildPlan(f *fixture, b *testing.B) {
	eng := f.srv.Engine()
	for i := 0; i < b.N; i++ {
		plan, err := eng.BuildPlan(nil, wire.KindQ6, f.tenth(i), nil)
		if err != nil {
			b.Fatal(err)
		}
		sink = plan
	}
}

// discard is a ResponseWriter that throws the body away.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(p []byte) (int, error) { return len(p), nil }
func (d discard) WriteHeader(int)             {}

// server: a scan request over a resident 10% range through the handler
// into a discarding writer: admission, plan, NDJSON encode, send buffer.
func benchServerStream(f *fixture, b *testing.B) {
	h := f.srv.Handler()
	do := func(i int) int64 {
		r := f.tenth(i)
		body, _ := json.Marshal(wire.QueryRequest{Kind: wire.KindScan, Lo: r.Lo, Hi: r.Hi})
		req, err := http.NewRequest(http.MethodPost, wire.PathQuery, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		h.ServeHTTP(discard{http.Header{}}, req)
		return r.Hi - r.Lo
	}
	for i := 0; i < 10; i++ {
		do(i) // load every range once
	}
	var rows int64
	u := startUnits(b)
	for i := 0; i < b.N; i++ {
		rows += do(i)
	}
	u.done(rows, "server.stream_ns_per_row", float64(rows), "server.stream_allocs_per_row")
}

// server: Statz with 10k completed queries behind it.
func benchStatz(f *fixture, b *testing.B) {
	eng := f.srv.Engine()
	for i := int(eng.Stats().Sched.Completed); i < 10_000; i++ {
		tk, _ := eng.Admit(sched.Query{Seq: i})
		tk.Done()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = f.srv.Statz()
	}
}

// wire: decoding a query request body as the server does.
func benchWireDecode(_ *fixture, b *testing.B) {
	body, _ := json.Marshal(wire.QueryRequest{Kind: wire.KindScan, Lo: 123456, Hi: 234567})
	for i := 0; i < b.N; i++ {
		var req wire.QueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			b.Fatal(err)
		}
	}
}

// opt: Belady replay of a trace of eight interleaved sequential scans,
// per reference.
func benchOPT(_ *fixture, b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const pages, refs = 4096, 50_000
	pos := make([]int, 8)
	for i := range pos {
		pos[i] = rng.Intn(pages)
	}
	trace := make([]opt.Ref, refs)
	for i := range trace {
		s := rng.Intn(len(pos))
		pos[s] = (pos[s] + 1) % pages
		trace[i] = opt.Ref{Page: storage.PageID(pos[s]), Bytes: storage.PageSize}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = opt.Simulate(trace, pages/4*storage.PageSize)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refs), "opt.simulate_ns_per_ref")
}
