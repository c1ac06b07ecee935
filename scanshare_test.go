package scanshare

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/storage"
)

func TestSystemQuickstartFlow(t *testing.T) {
	for _, pol := range []Policy{LRU, PBM, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			sys := NewSystem(SystemConfig{Policy: pol, BufferBytes: 4 << 20, BandwidthMB: 500})
			table, err := sys.Catalog.CreateTable("t", Schema{
				{Name: "k", Type: Int64, Width: 8},
				{Name: "v", Type: Float64, Width: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			data := NewColumnData()
			const n = 50_000
			ks := make([]int64, n)
			vs := make([]float64, n)
			for i := range ks {
				ks[i] = int64(i % 10)
				vs[i] = 1
			}
			data.I64[0] = ks
			data.F64[1] = vs
			snap, err := table.Master().Append(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.Commit(); err != nil {
				t.Fatal(err)
			}
			sys.Run(func() {
				res := exec.Collect(&exec.HashAggr{
					Child:  sys.NewScan(snap, []int{0, 1}, nil, nil),
					Groups: []int{0},
					Aggs:   []exec.AggSpec{{Kind: exec.AggSum, Col: 1}},
				})
				if res.N != 10 {
					t.Errorf("groups = %d, want 10", res.N)
				}
				for i := 0; i < res.N; i++ {
					if res.Vecs[1].F64[i] != n/10 {
						t.Errorf("group sum = %v, want %v", res.Vecs[1].F64[i], n/10)
					}
				}
			})
			if sys.IOBytes() == 0 {
				t.Error("no I/O recorded")
			}
			if sys.Now() == 0 {
				t.Error("no virtual time elapsed")
			}
		})
	}
}

func TestSystemWithPDTDeltas(t *testing.T) {
	sys := NewSystem(SystemConfig{Policy: PBM, BufferBytes: 4 << 20})
	table, err := sys.Catalog.CreateTable("t", Schema{{Name: "v", Type: Int64, Width: 8}})
	if err != nil {
		t.Fatal(err)
	}
	data := NewColumnData()
	data.I64[0] = []int64{1, 2, 3, 4, 5}
	snap, _ := table.Master().Append(data)
	_ = snap.Commit()

	deltas := NewPDT(table.Schema, 5)
	deltas.DeleteAt(0)                  // drops the value 1: [2 3 4 5]
	deltas.InsertAt(3, Row{IntVal(99)}) // before the value 5
	sys.Run(func() {
		// Errorf (not Fatalf) inside simulated processes: Goexit would
		// strand the engine.
		res := exec.Collect(sys.NewScan(snap, []int{0}, nil, deltas))
		want := []int64{2, 3, 4, 99, 5}
		if res.N != len(want) {
			t.Errorf("N = %d, want %d", res.N, len(want))
			return
		}
		for i, w := range want {
			if res.Vecs[0].I64[i] != w {
				t.Errorf("row %d = %d, want %d", i, res.Vecs[0].I64[i], w)
			}
		}
	})
}

// tinyFigOptions shrinks the figure sweeps for test speed.
// One pool, one policy: the victim is the policy's choice over every
// cached page — the page no scan wants under PBM, the coldest under LRU —
// whichever page's miss asked for the room.
func TestVictimIsChosenOverTheWholePool(t *testing.T) {
	const capPages, asks = 16, 8
	for _, pol := range []Policy{PBM, LRU} {
		for ask := 0; ask < asks; ask++ {
			sys := NewSystem(SystemConfig{Policy: pol, BufferBytes: capPages * storage.PageSize})
			table, err := sys.Catalog.CreateTable("t", Schema{{Name: "k", Type: Int64, Width: 8}})
			if err != nil {
				t.Fatal(err)
			}
			data := NewColumnData()
			data.I64[0] = make([]int64, (capPages+asks)*storage.PageSize/8)
			snap, err := table.Master().Append(data)
			if err != nil {
				t.Fatal(err)
			}
			pages := snap.Pages(0)
			unwanted, wanted, asked := pages[0], pages[1:capPages], pages[capPages+ask]
			sys.Run(func() {
				if sys.PBM != nil {
					sys.PBM.RegisterScan([][]*storage.Page{pages[1:]})
				}
				// Fill the pool: the page no scan registered first (so it is
				// also LRU's coldest), then pages the scan needs soon.
				sys.Pool.Unpin(sys.Pool.Get(unwanted))
				for _, pg := range wanted {
					sys.Pool.Unpin(sys.Pool.Get(pg))
				}
				sys.Pool.Unpin(sys.Pool.Get(asked))
				if sys.Pool.Contains(unwanted) {
					t.Errorf("%v, asking for page %d: the unrequested page survived", pol, asked.ID)
				}
				for _, pg := range wanted {
					if !sys.Pool.Contains(pg) {
						t.Errorf("%v, asking for page %d: evicted page %d, which a scan needs", pol, asked.ID, pg.ID)
					}
				}
			})
		}
	}
}

func tinyFigOptions() Options {
	return Options{SF: 0.004, Seed: 3, Streams: 2, QueriesPerStream: 3, ThreadsPerQuery: 2}
}

func TestFig11ProducesAllSeries(t *testing.T) {
	rows := Fig11(tinyFigOptions())
	if len(rows) != len(BufferFracs)*4 { // LRU, CScans, PBM, OPT per x
		t.Fatalf("rows = %d, want %d", len(rows), len(BufferFracs)*4)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Policy] = true
		if r.Policy != "OPT" && r.AvgStreamSec <= 0 {
			t.Errorf("%s at %v: no stream time", r.Policy, r.X)
		}
		if r.IOMB < 0 {
			t.Errorf("negative IO")
		}
	}
	for _, p := range []string{"LRU", "CScans", "PBM", "OPT"} {
		if !seen[p] {
			t.Errorf("missing series %s", p)
		}
	}
}

func TestFig17SharingSeries(t *testing.T) {
	rows := Fig17(tinyFigOptions())
	if len(rows) == 0 {
		t.Fatal("no sharing samples")
	}
	prev := -1.0
	for _, r := range rows {
		if r.TimeSec <= prev {
			t.Fatal("sample times not increasing")
		}
		prev = r.TimeSec
	}
}

func TestPartitionRangeReexport(t *testing.T) {
	parts := PartitionRange(0, 100, 3)
	if len(parts) != 3 || parts[0].Lo != 0 || parts[2].Hi != 100 {
		t.Fatalf("parts = %+v", parts)
	}
}

// Sweeps must reject an axis value off its menu before generating any
// data — admission policies, tiers and device queue disciplines alike —
// with the table's message, which names the flag and its menu, not with
// iosim.NewArray's or sched.New's panic from inside a cell.
func TestServeSweepValidatesAdmissionPolicies(t *testing.T) {
	for name, run := range map[string]func(ServeAxes){
		"sweep":   func(bad ServeAxes) { ServeSweep(Options{ServeAxes: bad}) },
		"compare": func(bad ServeAxes) { Compare(Options{ServeAxes: bad}) },
	} {
		run := run
		t.Run(name, func(t *testing.T) {
			for want, bad := range map[string]ServeAxes{
				`scanshare: -policies: unknown admission policy "ses" (registered: fifo, sesf, wfq)`: {AdmissionPolicies: []string{"ses"}},
				`scanshare: -tiers: bad element "warm" (valid`:                                       {Tiers: []string{"warm"}},
				`scanshare: -iosched: bad element "lifo" (valid: fifo, elevator)`:                    {IOSchedulers: []string{"lifo"}},
			} {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
							t.Errorf("panic %q, want %q", msg, want)
						}
					}()
					run(bad)
				}()
			}
		})
	}
}

// TestFigureTakesFirstDevice: a figure runs on the first element of the
// devices axis with the stripe knob, what `scanbench -devices 4,1
// -stripe 2 fig11` ran when the command line copied the axes into
// per-run overrides of their own; unset, the paper's single device
// stands.
func TestFigureTakesFirstDevice(t *testing.T) {
	o := Options{ServeAxes: ServeAxes{Devices: []int{4, 1}, StripeChunk: 2}}
	for _, base := range []Config{DefaultMicroConfig(), DefaultTPCHConfig()} {
		if cfg := o.apply(base); cfg.Devices != 4 || cfg.StripeChunk != 2 {
			t.Errorf("devices=%d stripe=%d, want 4 and 2", cfg.Devices, cfg.StripeChunk)
		}
		if cfg := (Options{}).apply(base); cfg.Devices != base.Devices || cfg.StripeChunk != base.StripeChunk {
			t.Errorf("unset axes moved the figure's array: devices=%d stripe=%d", cfg.Devices, cfg.StripeChunk)
		}
	}
}

// TestServeEngineConfigIsCompareCell: NewServeEngineConfig, which the
// socket binaries run, lands one Options value on the cell Compare runs:
// the per-run fields, and the first element of each axis.
func TestServeEngineConfigIsCompareCell(t *testing.T) {
	o := tinyFigOptions()
	o.Cores = 4
	o.ServeAxes = ServeAxes{Rates: []float64{30, 5}, MPLs: []int{2, 8}, Devices: []int{4, 1}, StripeChunk: 2,
		AdmissionPolicies: []string{"sesf", "fifo"}, Tenants: 2, TenantWeights: []float64{3, 1},
		Selectivities: []float64{0.5, 1}, Clustered: true}
	cfg := NewServeEngineConfig(o, o.ServeAxes)
	if want := o.fill().cells(false)[0]; !reflect.DeepEqual(cfg, want) {
		t.Fatalf("NewServeEngineConfig:\n got %+v\nwant %+v", cfg, want)
	}
	if cfg.ArrivalRate != 30 || cfg.MPL != 2 || cfg.Devices != 4 || cfg.StripeChunk != 2 || cfg.AdmissionPolicy != "sesf" ||
		cfg.Selectivities[0] != 0.5 || cfg.Cores != 4 || cfg.Streams != 2 || cfg.Seed != 3 {
		t.Fatalf("one Options value did not land: %+v", cfg)
	}
	want := ServeRowOf(&ServeResult{}, cfg)
	open, closed := Compare(o)
	for _, r := range []ServeRow{open, closed} {
		if r.Rate != want.Rate || r.MPL != want.MPL || r.Policy != want.Policy || r.Admission != want.Admission ||
			r.Devices != want.Devices || r.IOSched != want.IOSched || r.Tier != want.Tier || r.Selectivity != want.Selectivity {
			t.Errorf("Compare ran %+v, want the labels of %+v", r, want)
		}
	}
}

func TestDefaultConfigsMatchPaper(t *testing.T) {
	m := DefaultMicroConfig()
	if m.Streams != 8 || m.QueriesPerStream != 16 || m.BufferFrac != 0.4 || m.BandwidthMB != 700 {
		t.Fatalf("micro defaults diverge from §4.1: %+v", m)
	}
	h := DefaultTPCHConfig()
	if h.BufferFrac != 0.3 || h.BandwidthMB != 600 {
		t.Fatalf("TPC-H defaults diverge from §4.2: %+v", h)
	}
	if m.PerTupleCPU <= 0 || m.PerTupleCPU > time.Microsecond {
		t.Fatalf("implausible CPU cost %v", m.PerTupleCPU)
	}
}
