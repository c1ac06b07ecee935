package integration

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/pdt"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// TestPagesUnchangedByMicroPlans: the §4.1 micro plans — Q1 and Q6 in
// XChg parts, run at once on the simulator — read lineitem's pages and
// never write them: under PBM and
// under Cooperative Scans, with and without a shipdate predicate on their
// scans, and over pending deltas that modify, insert and delete rows. On
// a host with two cores, and with the §4.1 point's CPU model, each part's
// filter, projection and aggregate run beside its scan, on vectors the scan hands over in place or in buffers
// it rotates, and none of those buffers may be a page's memory when a
// scan appends into it. Two parts over sf 0.01 give each scan about 30
// vectors, so every set of buffers is used over again.
func TestPagesUnchangedByMicroPlans(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	db := tpch.Generate(0.01, 5)
	snap := db.Snapshot("lineitem")
	schema := snap.Table().Schema
	col := func(name string) int { return db.Col("lineitem", name) }
	before := pageImage(snap)

	// Deltas over every column Q1 and Q6 read, and rows whose one-byte
	// flags (and one two-byte flag) drop the vectors' codes.
	rng := rand.New(rand.NewSource(17))
	deltas := pdt.New(schema, snap.NumTuples())
	row := make(pdt.Row, len(schema))
	for i, def := range schema {
		switch def.Type {
		case storage.Int64:
			row[i] = pdt.IntVal(tpch.Date(1995, 6, 1))
		case storage.Float64:
			row[i] = pdt.FloatVal(0.06)
		default:
			row[i] = pdt.StrVal("N")
		}
	}
	for k := 0; k < 600; k++ {
		rid := rng.Int63n(deltas.NumTuples())
		switch k % 6 {
		case 0:
			r := row.Clone()
			r[col("l_returnflag")] = pdt.StrVal([]string{"A", "Z", "RR"}[rng.Intn(3)])
			deltas.InsertAt(rid, r)
		case 1:
			deltas.DeleteAt(rid)
		case 2:
			deltas.ModifyAt(rid, col("l_returnflag"), pdt.StrVal("Z"))
		case 3:
			deltas.ModifyAt(rid, col("l_shipdate"), pdt.IntVal(tpch.Date(1994, 3, 1)))
		default:
			deltas.ModifyAt(rid, []int{col("l_quantity"), col("l_discount"), col("l_extendedprice")}[rng.Intn(3)], pdt.FloatVal(rng.Float64()))
		}
	}

	window := &exec.ScanPredicate{Col: col("l_shipdate"), Lo: tpch.Date(1994, 1, 1), Hi: tpch.Date(1996, 12, 31)}
	rows := 0
	for _, policy := range []workload.Policy{workload.PBM, workload.CScan} {
		for _, d := range []*pdt.PDT{nil, deltas} {
			for _, pred := range []*exec.ScanPredicate{nil, window} {
				s := newSys(policy, snap.NumTuples()*12)
				s.ctx.CPU, s.ctx.PerTupleCPU = exec.NewCPU(s.ctx.RT, 8), 60*time.Nanosecond
				build := func(table string, cols []string, ranges []exec.RIDRange, _ bool) exec.Op {
					idx := make([]int, len(cols))
					for i, c := range cols {
						idx[i] = db.Col(table, c)
					}
					var p *exec.ScanPredicate
					if pred != nil && slices.Contains(cols, "l_shipdate") {
						p = pred
					}
					return s.ctx.NewScan(snap, idx, ranges, d, p)
				}
				n := snap.NumTuples()
				if d != nil {
					n = d.NumTuples()
				}
				micro := func(query func([]exec.RIDRange) tpch.Plan) exec.Op {
					var parts []func() exec.Op
					for _, pr := range exec.PartitionRange(0, n, 2) {
						pr := pr
						parts = append(parts, func() exec.Op { return query([]exec.RIDRange{pr})(db, build) })
					}
					return &exec.XChg{Ctx: s.ctx, Parts: parts}
				}
				wg := s.ctx.RT.NewWaitGroup()
				s.run(func() {
					for _, q := range []func([]exec.RIDRange) tpch.Plan{tpch.Q1, tpch.Q6} {
						q := q
						wg.Add(1)
						s.ctx.RT.Go("micro", func() {
							defer wg.Done()
							rows += exec.Collect(micro(q)).N
						})
					}
					wg.Wait()
				})
			}
		}
	}
	if rows == 0 {
		t.Fatal("the micro plans answered no row")
	}
	if after := pageImage(snap); !reflect.DeepEqual(after, before) {
		t.Fatal("the micro plans wrote into lineitem's pages")
	}
}
