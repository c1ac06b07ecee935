package integration

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// htapSys is a runtime-parameterized slice of the engine — the HTAP
// property must hold both under the deterministic sim runtime (where
// checkpoints interleave with a scan's modeled I/O waits) and under the
// real-threaded runtime with -race (where they genuinely overlap).
type htapSys struct {
	r    rt.Runtime
	eng  *sim.Engine // nil in real mode
	disk *iosim.DeviceArray
	pool *buffer.Pool
	abm  *abm.ABM
	ctx  *exec.Ctx
}

func newHTAPSys(cscan, real bool, capBytes int64) *htapSys {
	s := &htapSys{}
	if real {
		s.r = rt.NewReal()
	} else {
		s.eng = sim.NewEngine()
		s.r = rt.Sim(s.eng)
	}
	s.disk = iosim.New(s.r, iosim.Config{Bandwidth: 500e6, SeekLatency: 20 * time.Microsecond})
	s.ctx = &exec.Ctx{RT: s.r, ReadAheadTuples: 8192}
	if cscan {
		s.abm = abm.New(s.r, s.disk, abm.Config{ChunkTuples: 2048, Capacity: capBytes})
		s.ctx.ABM = s.abm
	} else {
		s.pool = buffer.NewPool(s.r, s.disk, buffer.NewLRU(), capBytes)
		s.ctx.Pool = s.pool
	}
	return s
}

func (s *htapSys) run(fn func()) {
	if s.eng != nil {
		s.eng.Go("main", func() {
			fn()
			if s.abm != nil {
				s.abm.Stop()
			}
		})
		s.eng.Run()
		return
	}
	fn()
	if s.abm != nil {
		s.abm.Stop()
	}
}

// viewImage materializes the pinned view's expected key column and
// value sum — the ground truth a snapshot-consistent scan must return.
func viewImage(view pdt.View) (keys []int64, vsum float64) {
	n := view.NumTuples()
	if view.Deltas == nil {
		return view.Stable.ReadInt64(0, 0, n, nil), sortedSum(view.Stable.ReadFloat64(2, 0, n, nil))
	}
	img := view.Deltas.Image(view.Stable)
	return img.I64[0], sortedSum(img.F64[2])
}

// sortedSum adds the values in ascending order. Float addition is not
// associative and a cooperative scan delivers chunks in whatever order
// the ABM loaded them, so only a delivery-independent order lets the
// scanned sum be compared with the ground truth for exact equality.
func sortedSum(vs []float64) (sum float64) {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	for _, v := range vs {
		sum += v
	}
	return sum
}

// TestPropertyPinnedScanUnderUpdates is the HTAP snapshot-consistency
// property: a scan that pinned a (snapshot, PDT-version) view returns
// exactly that version's tuple set and aggregates, no matter how many
// inserts, deletes, modifies and checkpoint/merge cycles commit while
// it runs. Checked for both scan operators on both runtimes; run with
// -race to make the real-mode variants meaningful.
func TestPropertyPinnedScanUnderUpdates(t *testing.T) {
	const n = 8192
	for _, cscan := range []bool{false, true} {
		for _, real := range []bool{false, true} {
			name := fmt.Sprintf("scan=%v/real=%v", cscan, real)
			if cscan {
				name = fmt.Sprintf("cscan=%v/real=%v", cscan, real)
			}
			t.Run(name, func(t *testing.T) {
				cat := storage.NewCatalog()
				s := newHTAPSys(cscan, real, 1<<26)
				snap := buildTable(t, cat, n)
				store := pdt.NewStore(snap.Table())
				s.run(func() {
					wg := s.r.NewWaitGroup()
					// Writers: a stream of single-op transactions moving
					// keys around, growing and shrinking the table.
					for w := 0; w < 3; w++ {
						w := w
						wg.Add(1)
						s.r.Go("writer", func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(100 + w)))
							for i := 0; i < 150; i++ {
								err := store.Update(func(tx *pdt.Tx) error {
									nn := tx.NumTuples()
									if nn == 0 {
										return nil
									}
									rid := rng.Int63n(nn)
									switch rng.Intn(3) {
									case 0:
										tx.Insert(rid, pdt.Row{
											pdt.IntVal(rng.Int63n(n)),
											pdt.IntVal(rid % 11),
											pdt.FloatVal(float64(rng.Intn(7))),
										})
									case 1:
										tx.Delete(rid)
									default:
										tx.Modify(rid, 0, pdt.IntVal(rng.Int63n(n)))
									}
									return nil
								})
								if err != nil {
									t.Errorf("writer %d: %v", w, err)
									return
								}
								if i%16 == 0 {
									s.r.Sleep(10 * time.Microsecond)
								}
							}
						})
					}
					// Checkpointer: repeated online merges, each retiring
					// the stable snapshot scans may still be pinned to.
					wg.Add(1)
					s.r.Go("checkpointer", func() {
						defer wg.Done()
						for i := 0; i < 12; i++ {
							s.r.Sleep(40 * time.Microsecond)
							store.PropagateWriteToRead()
							if _, err := store.Checkpoint(); err != nil {
								t.Errorf("checkpoint %d: %v", i, err)
								return
							}
						}
					})
					// Scanners: pin a view, compute its ground truth, scan
					// it, and demand exact agreement — while the store
					// churns underneath.
					for g := 0; g < 2; g++ {
						g := g
						wg.Add(1)
						s.r.Go("scanner", func() {
							defer wg.Done()
							for i := 0; i < 10; i++ {
								view := store.View()
								wantKeys, wantSum := viewImage(view)
								ranges := []exec.RIDRange{{Lo: 0, Hi: view.NumTuples()}}
								var op exec.Operator
								if s.abm != nil {
									op = &exec.CScan{Ctx: s.ctx, Snap: view.Stable, Cols: []int{0, 2}, Ranges: ranges, PDT: view.Deltas}
								} else {
									op = &exec.Scan{Ctx: s.ctx, Snap: view.Stable, Cols: []int{0, 2}, Ranges: ranges, PDT: view.Deltas}
								}
								res := exec.Collect(op)
								if int64(res.N) != view.NumTuples() {
									t.Errorf("scanner %d iter %d: got %d tuples, pinned view has %d",
										g, i, res.N, view.NumTuples())
									return
								}
								got := append([]int64(nil), res.Vecs[0].I64[:res.N]...)
								gotSum := sortedSum(res.Vecs[1].F64[:res.N])
								want := append([]int64(nil), wantKeys...)
								sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
								sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
								for j := range want {
									if got[j] != want[j] {
										t.Errorf("scanner %d iter %d: tuple set diverged at %d: got key %d, want %d",
											g, i, j, got[j], want[j])
										return
									}
								}
								if gotSum != wantSum {
									t.Errorf("scanner %d iter %d: sum(v) = %v, want %v", g, i, gotSum, wantSum)
									return
								}
								s.r.Sleep(25 * time.Microsecond)
							}
						})
					}
					wg.Wait()
				})
			})
		}
	}
}
