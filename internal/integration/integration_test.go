// Package integration exercises whole-system scenarios across modules:
// all policies answering the same queries identically, updates merging
// under concurrent cooperative scans, checkpoints racing scans, and the
// full experiment pipeline end to end.
package integration

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/pbm"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// sys bundles one simulated instance with a chosen policy.
type sys struct {
	eng  *sim.Engine
	disk *iosim.DeviceArray
	pool *buffer.Pool
	pbm  *pbm.PBM
	abm  *abm.ABM
	ctx  *exec.Ctx
}

func newSys(policy workload.Policy, capBytes int64) *sys {
	s := &sys{eng: sim.NewEngine()}
	s.disk = iosim.New(rt.Sim(s.eng), iosim.Config{Bandwidth: 500e6, SeekLatency: 20 * time.Microsecond})
	s.ctx = &exec.Ctx{RT: rt.Sim(s.eng), ReadAheadTuples: 8192}
	switch policy {
	case workload.CScan:
		s.abm = abm.New(rt.Sim(s.eng), s.disk, abm.Config{ChunkTuples: 2048, Capacity: capBytes})
		s.ctx.ABM = s.abm
	default:
		var pol buffer.Policy
		switch policy {
		case workload.MRU:
			pol = buffer.NewMRU()
		case workload.Clock:
			pol = buffer.NewClock()
		case workload.PBM:
			s.pbm = pbm.New(s.eng, pbm.DefaultConfig())
			pol = s.pbm
		default:
			pol = buffer.NewLRU()
		}
		s.pool = buffer.NewPool(rt.Sim(s.eng), s.disk, pol, capBytes)
		s.ctx.Pool = s.pool
		s.ctx.PBM = s.pbm
	}
	return s
}

func (s *sys) run(fn func()) {
	s.eng.Go("main", func() {
		fn()
		if s.abm != nil {
			s.abm.Stop()
		}
	})
	s.eng.Run()
}

func (s *sys) scan(snap *storage.Snapshot, cols []int, ranges []exec.RIDRange, deltas *pdt.PDT) exec.Operator {
	if s.abm != nil {
		return &exec.CScan{Ctx: s.ctx, Snap: snap, Cols: cols, Ranges: ranges, PDT: deltas}
	}
	return &exec.Scan{Ctx: s.ctx, Snap: snap, Cols: cols, Ranges: ranges, PDT: deltas}
}

func buildTable(t testing.TB, cat *storage.Catalog, n int) *storage.Snapshot {
	t.Helper()
	tb, err := cat.CreateTable("t", storage.Schema{
		{Name: "k", Type: storage.Int64, Width: 8},
		{Name: "grp", Type: storage.Int64, Width: 1},
		{Name: "v", Type: storage.Float64, Width: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewColumnData()
	ks := make([]int64, n)
	gs := make([]int64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = int64(i)
		gs[i] = int64(i % 11)
		vs[i] = float64(i%101) / 3
	}
	d.I64[0] = ks
	d.I64[1] = gs
	d.F64[2] = vs
	snap, err := tb.Master().Append(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestAllPoliciesSameAnswers: every buffer-management strategy must
// return identical query results — policies change performance, never
// semantics.
func TestAllPoliciesSameAnswers(t *testing.T) {
	const n = 30000
	type answer struct {
		sums   map[int64]float64
		counts map[int64]int64
	}
	compute := func(policy workload.Policy) answer {
		cat := storage.NewCatalog()
		s := newSys(policy, 256<<10) // small pool: eviction paths active
		snap := buildTable(t, cat, n)
		ans := answer{sums: map[int64]float64{}, counts: map[int64]int64{}}
		s.run(func() {
			res := exec.Collect(&exec.HashAggr{
				Child:  s.scan(snap, []int{1, 2}, []exec.RIDRange{{Lo: 0, Hi: n}}, nil),
				Groups: []int{0},
				Aggs:   []exec.AggSpec{{Kind: exec.AggSum, Col: 1}, {Kind: exec.AggCount}},
			})
			for i := 0; i < res.N; i++ {
				g := res.Vecs[0].I64[i]
				ans.sums[g] = res.Vecs[1].F64[i]
				ans.counts[g] = res.Vecs[2].I64[i]
			}
		})
		return ans
	}
	ref := compute(workload.LRU)
	if len(ref.sums) != 11 {
		t.Fatalf("reference groups = %d", len(ref.sums))
	}
	for _, pol := range []workload.Policy{workload.MRU, workload.Clock, workload.PBM, workload.CScan} {
		got := compute(pol)
		for g, want := range ref.sums {
			if got.sums[g] != want || got.counts[g] != ref.counts[g] {
				t.Fatalf("%v: group %d = (%v,%d), want (%v,%d)",
					pol, g, got.sums[g], got.counts[g], want, ref.counts[g])
			}
		}
	}
}

// TestPropertyScanPathsEmitSameStream: every scan operator runs the same
// PDT merge loop, so over random delta trees — deletes, modifies, single
// inserts, insert runs at the table's ends and exactly at the requested
// ranges' edges — and random RID ranges, one of them made of inserted
// tuples only, Scan emits exactly the tuple stream a naive row-slice model
// of the same updates predicts, and CScan, whose chunks arrive out of
// order, emits the same tuples in some order.
func TestPropertyScanPathsEmitSameStream(t *testing.T) {
	const n = 12000
	type row struct {
		k, grp int64
		v      float64
	}
	rowLess := func(a, b row) bool {
		if a.k != b.k {
			return a.k < b.k
		}
		return a.grp < b.grp || (a.grp == b.grp && a.v < b.v)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// The model: the merged image as a plain slice of rows, updated
		// op by op alongside the PDT.
		model := make([]row, n)
		for i := range model {
			model[i] = row{int64(i), int64(i % 11), float64(i%101) / 3}
		}
		cat := storage.NewCatalog()
		snap := buildTable(t, cat, n)
		deltas := pdt.New(snap.Table().Schema, n)
		fresh := int64(-1) // inserted keys are negative and distinct
		insert := func(rid int64, count int) {
			rows := make([]row, count)
			for i := range rows {
				rows[i] = row{fresh, rng.Int63n(11), float64(rng.Intn(100))}
				fresh--
				deltas.InsertAt(rid+int64(i), pdt.Row{pdt.IntVal(rows[i].k), pdt.IntVal(rows[i].grp), pdt.FloatVal(rows[i].v)})
			}
			model = append(model[:rid], append(rows, model[rid:]...)...)
		}
		for op := 0; op < 60; op++ {
			rid := rng.Int63n(int64(len(model)))
			switch rng.Intn(4) {
			case 0:
				deltas.DeleteAt(rid)
				model = append(model[:rid], model[rid+1:]...)
			case 1:
				v := float64(rng.Intn(100))
				deltas.ModifyAt(rid, 2, pdt.FloatVal(v))
				model[rid].v = v
			case 2:
				insert(rid, 1)
			case 3:
				insert(rid, 1+rng.Intn(8))
			}
		}
		insert(0, 3)
		insert(int64(len(model)), 3)
		// Three disjoint ranges whose edges fall on inserts, then a run of
		// inserts that is a range of its own.
		var ranges []exec.RIDRange
		lo := rng.Int63n(1000)
		insert(lo+10, exec.VectorSize+rng.Intn(exec.VectorSize)) // a run longer than a vector, inside the first range
		for i := 0; i < 3; i++ {
			hi := lo + 1 + rng.Int63n(2000)
			if i == 0 {
				hi += 2 * exec.VectorSize // room for the long run
			}
			insert(hi, 2)   // just outside the range's upper edge
			insert(hi-1, 2) // just inside it
			insert(lo, 2)   // at its lower edge
			ranges = append(ranges, exec.RIDRange{Lo: lo, Hi: hi + 4})
			lo = hi + 4 + 1 + rng.Int63n(500)
		}
		insert(lo, 40)
		pure := exec.RIDRange{Lo: lo + 5, Hi: lo + 35}
		collect := func(policy workload.Policy, mk func(s *sys) exec.Operator) []row {
			s := newSys(policy, 1<<20)
			var got []row
			s.run(func() {
				res := exec.Collect(mk(s))
				for i := 0; i < res.N; i++ {
					got = append(got, row{res.Vecs[0].I64[i], res.Vecs[1].I64[i], res.Vecs[2].F64[i]})
				}
			})
			return got
		}
		cols := []int{0, 1, 2}
		before := pageImage(snap)
		for name, rs := range map[string][]exec.RIDRange{"mixed": append(ranges, pure), "pure-inserts": {pure}} {
			clone := func(rs []exec.RIDRange) []exec.RIDRange { return append([]exec.RIDRange(nil), rs...) }
			paths := []struct {
				kind    string
				ordered bool
				mk      func(s *sys, rs []exec.RIDRange) exec.Operator
			}{
				{"scan", true, func(s *sys, rs []exec.RIDRange) exec.Operator {
					return &exec.Scan{Ctx: s.ctx, Snap: snap, Cols: cols, Ranges: rs, PDT: deltas}
				}},
				{"cscan", false, func(s *sys, rs []exec.RIDRange) exec.Operator {
					return &exec.CScan{Ctx: s.ctx, Snap: snap, Cols: cols, Ranges: rs, PDT: deltas}
				}},
			}
			for _, p := range paths {
				policy := workload.PBM
				if p.kind != "scan" {
					policy = workload.CScan
				}
				got := collect(policy, func(s *sys) exec.Operator { return p.mk(s, clone(rs)) })
				var want []row
				for _, r := range rs {
					want = append(want, model[r.Lo:r.Hi]...)
				}
				if !p.ordered {
					sort.Slice(got, func(i, j int) bool { return rowLess(got[i], got[j]) })
					sort.Slice(want, func(i, j int) bool { return rowLess(want[i], want[j]) })
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d %s %s: %d rows, want %d", seed, name, p.kind, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d %s %s: row %d is %+v, want %+v", seed, name, p.kind, i, got[i], want[i])
					}
				}
			}
		}
		// A scan may hand on page memory itself, never write it: merging
		// a modification must land in the scan's own copy.
		if after := pageImage(snap); !reflect.DeepEqual(after, before) {
			t.Fatalf("seed %d: the scans wrote into the snapshot's pages", seed)
		}
	}
}

// pageImage is a deep copy of the values on every page of snap.
func pageImage(snap *storage.Snapshot) [][]storage.Page {
	img := make([][]storage.Page, len(snap.Table().Schema))
	for c := range img {
		for _, pg := range snap.Pages(c) {
			img[c] = append(img[c], storage.Page{I64: slices.Clone(pg.I64), F64: slices.Clone(pg.F64), Str: slices.Clone(pg.Str), Code: slices.Clone(pg.Code)})
		}
	}
	return img
}

// TestCheckpointDuringConcurrentScans: a reader on the old snapshot keeps
// scanning consistently while a checkpoint installs a new version, and a
// reader starting afterwards sees the new version (§2.1, Figure 7).
func TestCheckpointDuringConcurrentScans(t *testing.T) {
	const n = 16000
	cat := storage.NewCatalog()
	s := newSys(workload.CScan, 1<<22)
	snap := buildTable(t, cat, n)
	store := pdt.NewStore(snap.Table())

	var oldCount, newCount int64
	s.run(func() {
		wg := s.eng.NewWaitGroup()
		wg.Add(2)
		s.eng.Go("old-reader", func() {
			defer wg.Done()
			oldCount = exec.Drain(s.scan(snap, []int{0}, []exec.RIDRange{{Lo: 0, Hi: n}}, nil))
		})
		s.eng.Go("updater", func() {
			defer wg.Done()
			s.eng.Sleep(time.Millisecond)
			tx := store.Begin()
			tx.Delete(3)
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
			newSnap, err := store.Checkpoint()
			if err != nil {
				t.Error(err)
				return
			}
			newCount = exec.Drain(s.scan(newSnap, []int{0}, []exec.RIDRange{{Lo: 0, Hi: newSnap.NumTuples()}}, nil))
		})
		wg.Wait()
	})
	if oldCount != n {
		t.Fatalf("old reader saw %d rows, want %d", oldCount, n)
	}
	if newCount != n-1 {
		t.Fatalf("new reader saw %d rows, want %d", newCount, n-1)
	}
}

// TestExperimentPipelineEndToEnd runs one full figure point per driver
// at tiny scale, checking the complete path data→plan→policy→metrics.
func TestExperimentPipelineEndToEnd(t *testing.T) {
	db := tpch.Generate(0.004, 9)
	micro := workload.DefaultMicroConfig()
	micro.Streams = 2
	micro.QueriesPerStream = 2
	micro.ThreadsPerQuery = 2
	micro.TraceForOPT = true
	res := workload.RunMicro(db, micro)
	if res.AvgStreamSec <= 0 || res.TotalIOBytes <= 0 || len(res.Trace) == 0 {
		t.Fatalf("bad micro result: %+v", res)
	}
	if res.OPTIOBytes() > res.TotalIOBytes {
		t.Fatal("OPT worse than PBM")
	}
	tp := workload.DefaultTPCHConfig()
	tp.Streams = 2
	tp.QueriesPerStream = 4
	tpres := workload.RunTPCH(db, tp)
	if tpres.AvgStreamSec <= 0 || tpres.TotalIOBytes <= 0 {
		t.Fatalf("bad tpch result: %+v", tpres)
	}
}
