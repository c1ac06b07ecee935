package exec

import (
	"testing"

	"repro/internal/rt"
	"repro/internal/storage"
)

// TestOperatorsCloseTwice: every operator's Close must be idempotent —
// the cancel path closes a plan whose consumer may also close it, and a
// double Close must neither panic (double frame unpin, double ABM
// unregister) nor reach the child twice. The ABM cases also fail if a
// scan is left registered (env.run's idle check).
func TestOperatorsCloseTwice(t *testing.T) {
	cases := []struct {
		name    string
		withABM bool
		build   func(e *env) Operator
	}{
		{"Scan", false, func(e *env) Operator {
			return &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 2000}}}
		}},
		{"CScan", true, func(e *env) Operator {
			return &CScan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 2000}}}
		}},
		{"Select", false, func(e *env) Operator {
			return &Select{
				Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 2}, Ranges: []RIDRange{{0, 2000}}},
				Pred:  StrEq(1, "A"),
			}
		}},
		{"Project", false, func(e *env) Operator {
			return &Project{
				Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{1}, Ranges: []RIDRange{{0, 2000}}},
				Exprs: []Expr{NewArith("*", Col{0, storage.Float64}, ConstF(2))},
			}
		}},
		{"HashAggr", false, func(e *env) Operator {
			return &HashAggr{
				Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 2000}}},
				Aggs:  []AggSpec{{Kind: AggCount}},
			}
		}},
		{"HashJoin", false, func(e *env) Operator {
			return &HashJoin{
				Build:    &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 500}}},
				Probe:    &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 2000}}},
				BuildKey: 0,
				ProbeKey: 0,
			}
		}},
		{"Sort", false, func(e *env) Operator {
			return &Sort{
				Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 2000}}},
				By:    []SortSpec{{Col: 0, Desc: true}},
			}
		}},
		{"Apply", true, func(e *env) Operator {
			return &Apply{
				Inner: &CScan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 500}}},
				Each:  func(*Batch) {},
				Outer: &CScan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 2000}}},
			}
		}},
		{"XChg", false, func(e *env) Operator {
			parts := make([]func() Op, 0, 2)
			for _, r := range PartitionRange(0, 2000, 2) {
				r := r
				parts = append(parts, func() Op {
					return &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{r}}
				})
			}
			return &XChg{Ctx: e.ctx, Parts: parts}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, 2000, c.withABM)
			e.run(func() {
				op := c.build(e)
				op.Open()
				if b := op.Next(); b == nil {
					t.Error("no batch before close")
				}
				op.Close()
				op.Close() // must be a no-op, not a double release
			})
		})
	}
}

// TestScanCancelStopsMidStream: a Scan bound to a cancelled query stops
// emitting at the next vector boundary and its Close stays clean.
func TestScanCancelStopsMidStream(t *testing.T) {
	e := newEnv(t, 20000, false)
	qc := rt.NewQueryCtx(rt.Sim(e.eng))
	e.run(func() {
		ctx := e.ctx.WithQuery(qc)
		s := &Scan{Ctx: ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 20000}}}
		s.Open()
		var n int64
		b := s.Next()
		for ; b != nil; b = s.Next() {
			n += int64(b.N)
			if n >= int64(VectorSize) {
				qc.Cancel(rt.CauseClientCancel)
			}
		}
		s.Close()
		s.Close()
		if n >= 20000 {
			t.Fatalf("scan delivered all %d tuples despite cancel", n)
		}
	})
}

// TestCScanCancelStopsMidStream: the cooperative scan path must observe
// the cancel at chunk granularity and release its ABM registration.
func TestCScanCancelStopsMidStream(t *testing.T) {
	e := newEnv(t, 20000, true)
	qc := rt.NewQueryCtx(rt.Sim(e.eng))
	e.run(func() {
		ctx := e.ctx.WithQuery(qc)
		s := &CScan{Ctx: ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 20000}}}
		s.Open()
		var n int64
		for b := s.Next(); b != nil; b = s.Next() {
			n += int64(b.N)
			qc.Cancel(rt.CauseDeadlineExceeded)
		}
		s.Close()
		if n == 0 || n >= 20000 {
			t.Fatalf("delivered %d tuples, want a strict mid-stream stop", n)
		}
	})
}
