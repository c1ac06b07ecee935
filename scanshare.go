// Package scanshare is the public API of this reproduction of
// "From Cooperative Scans to Predictive Buffer Management" (Świtakowski,
// Boncz, Żukowski; PVLDB 5(12), 2012).
//
// It exposes the simulated analytical engine — columnar storage, PDT
// differential updates, a traditional buffer manager with pluggable
// policies (LRU/MRU/Clock and Predictive Buffer Management), Cooperative
// Scans with an Active Buffer Manager, and a vectorized executor — plus
// experiment runners that regenerate every figure of the paper's
// evaluation (Figures 11–18).
//
// The heavy lifting lives in internal packages; this package re-exports
// the stable surface via aliases and provides System, a convenience
// wrapper wiring a full simulated instance together.
package scanshare

import (
	"time"

	"repro/internal/abm"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Re-exported core types: the storage and execution surface a downstream
// user programs against.
type (
	// Catalog owns tables and snapshots.
	Catalog = storage.Catalog
	// Schema describes table columns.
	Schema = storage.Schema
	// ColumnDef is one column definition.
	ColumnDef = storage.ColumnDef
	// ColumnData is bulk-load input.
	ColumnData = storage.ColumnData
	// Snapshot is an immutable table view.
	Snapshot = storage.Snapshot
	// PDT is a positional delta tree of pending updates.
	PDT = pdt.PDT
	// PDTStore manages shared PDT layers and transactions for a table.
	PDTStore = pdt.Store
	// Row is a tuple of values for PDT updates.
	Row = pdt.Row
	// Value is a dynamically typed column value.
	Value = pdt.Value
	// Operator is the vectorized iterator interface.
	Operator = exec.Operator
	// Batch is a set of column vectors.
	Batch = exec.Batch
	// RIDRange is a half-open row range.
	RIDRange = exec.RIDRange
	// ScanPredicate is a value restriction on one stored int64 column
	// the scan reads; scans carrying one prune provably-excluded ranges
	// through the system's zone maps before any I/O is scheduled (§2.3
	// MinMax data skipping) and filter every vector they read by it.
	ScanPredicate = exec.ScanPredicate
	// ZoneMaps is the registry of per-(snapshot, column) MinMax indexes
	// predicate scans prune through.
	ZoneMaps = exec.ZoneMaps
	// SkipStats accumulates a run's zone-map pruning counters.
	SkipStats = exec.SkipStats
	// TPCHGenOptions parameterizes TPC-H generation (clustered lineitem).
	TPCHGenOptions = tpch.GenOptions
	// Policy selects the buffer management strategy.
	Policy = workload.Policy
	// Config parameterizes experiment runs.
	Config = workload.Config
	// Result reports one experiment run.
	Result = workload.Result
	// TPCHDB is a generated TPC-H-shaped database.
	TPCHDB = tpch.DB
	// DeviceArray is the striped multi-spindle disk model a System reads
	// through (1 device = the paper's single disk).
	DeviceArray = iosim.DeviceArray
	// ArrayStats is the device array's aggregate + per-device + skew
	// report (Result.DiskStats).
	ArrayStats = iosim.ArrayStats
)

// DefaultStripeChunk is the default striping granularity in blocks.
const DefaultStripeChunk = iosim.DefaultStripeChunk

// Column type constants.
const (
	Int64   = storage.Int64
	Float64 = storage.Float64
	String  = storage.String
)

// Buffer management policies.
const (
	LRU    = workload.LRU
	MRU    = workload.MRU
	Clock  = workload.Clock
	PBM    = workload.PBM
	PBMLRU = workload.PBMLRU
	CScan  = workload.CScan
)

// Re-exported constructors.
var (
	// NewCatalog creates an empty catalog.
	NewCatalog = storage.NewCatalog
	// NewColumnData creates empty bulk-load input.
	NewColumnData = storage.NewColumnData
	// NewPDT creates an empty delta tree over n stable tuples.
	NewPDT = pdt.New
	// NewPDTStore creates the shared PDT layers for a table.
	NewPDTStore = pdt.NewStore
	// GenerateTPCH builds the TPC-H-shaped database.
	GenerateTPCH = tpch.Generate
	// GenerateTPCHOpt is GenerateTPCH with generation options, e.g. a
	// shipdate-clustered lineitem for zone maps to exploit.
	GenerateTPCHOpt = tpch.GenerateOpt
	// IntVal, FloatVal and StrVal construct PDT values.
	IntVal   = pdt.IntVal
	FloatVal = pdt.FloatVal
	StrVal   = pdt.StrVal
	// PartitionRange implements Equation 1 static partitioning.
	PartitionRange = exec.PartitionRange
)

// SystemConfig parameterizes a simulated database instance.
type SystemConfig struct {
	// Policy is the buffer management strategy (default LRU).
	Policy Policy
	// BufferBytes is the pool capacity (default 64 MiB).
	BufferBytes int64
	// BandwidthMB is the disk bandwidth in MB/s (default 700).
	BandwidthMB float64
	// Cores is the simulated core count (default 8).
	Cores int
	// PerTupleCPU is the virtual CPU cost per scanned tuple.
	PerTupleCPU time.Duration
	// ChunkTuples is the Cooperative Scans chunk size (default 8192).
	ChunkTuples int64
	// PoolShards is ignored (the pool is not sharded); bench/ still sets it and the next [benchmark] PR drops it.
	PoolShards int
	// Devices is the number of independent spindles in the striped disk
	// array (default 1, bit-identical to the historical single-disk
	// model). Each device keeps the full BandwidthMB, so aggregate
	// sequential bandwidth scales with the device count.
	Devices int
	// StripeChunk is the array's striping granularity in blocks/pages
	// (default iosim.DefaultStripeChunk); ignored when Devices <= 1.
	StripeChunk int
	// Real runs the system on the real-threaded wall-clock runtime
	// instead of the deterministic simulator: Go spawns goroutines,
	// sleeps and modeled disk time are wall time, and runs are not
	// reproducible.
	Real bool
}

// System is a fully wired engine instance — runtime, disk array, buffer
// manager (traditional or ABM) and an execution context — plus a
// catalog. Create scans and operators against Ctx, and drive everything
// inside Run. By default the system runs on the deterministic simulator;
// with SystemConfig.Real it runs on real threads.
type System struct {
	// Engine is wired by the constructor every experiment and the server
	// use, so a System runs the same device model, read-ahead and PBM
	// timeline they measure. Its fields are the system's: RT (the runtime
	// everything is wired to), Disk, Pool (nil under CScan), PBM (non-nil
	// under PBM/PBMLRU), ABM (non-nil under CScan) and Ctx.
	workload.Engine
	Catalog *Catalog

	chunkTuples int64 // zone-map granularity (= the CScan chunk size)
}

// NewSystem wires a simulated instance.
func NewSystem(cfg SystemConfig) *System {
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 64 << 20
	}
	if cfg.BandwidthMB <= 0 {
		cfg.BandwidthMB = 700
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if cfg.ChunkTuples <= 0 {
		cfg.ChunkTuples = abm.DefaultChunkTuples
	}
	s := &System{
		Engine: workload.NewEngine(workload.Config{
			Policy:      cfg.Policy,
			BandwidthMB: cfg.BandwidthMB,
			Cores:       cfg.Cores,
			PerTupleCPU: cfg.PerTupleCPU,
			ChunkTuples: cfg.ChunkTuples,
			Devices:     cfg.Devices,
			StripeChunk: cfg.StripeChunk,
			Real:        cfg.Real,
		}, cfg.BufferBytes),
		Catalog:     storage.NewCatalog(),
		chunkTuples: cfg.ChunkTuples,
	}
	// The zone-map registry starts empty, so nothing changes until
	// BuildZoneMap registers an index and a scan carries a predicate.
	s.Ctx.Zones = exec.NewZoneMaps()
	s.Ctx.Skip = &exec.SkipStats{}
	return s
}

// WaitGroup coordinates concurrent processes on the system's runtime
// (virtual-time in sim mode, a sync.WaitGroup in real mode).
type WaitGroup = rt.WaitGroup

// NewWaitGroup creates a wait group bound to the system's runtime.
func (s *System) NewWaitGroup() WaitGroup { return s.RT.NewWaitGroup() }

// Go spawns fn as a concurrent process (a query stream, a background
// job). Call before or during Run.
func (s *System) Go(name string, fn func()) { s.RT.Go(name, fn) }

// Run executes main as the root process and drives the runtime until
// every process finishes. Blocks the calling goroutine.
func (s *System) Run(main func()) {
	s.RT.Go("main", func() {
		main()
		if s.ABM != nil {
			s.ABM.Stop()
		}
	})
	s.RT.Run()
}

// NewScan builds the policy-appropriate scan operator over a snapshot:
// a CScan when the system runs Cooperative Scans, a traditional Scan
// otherwise. ranges nil means the full table; deltas may be nil.
func (s *System) NewScan(snap *Snapshot, cols []int, ranges []RIDRange, deltas *PDT) Operator {
	return s.Ctx.NewScan(snap, cols, ranges, deltas, nil)
}

// BuildZoneMap summarizes an int64 column of a snapshot at the system's
// chunk granularity (so pruning decisions align with ABM chunk
// boundaries) and registers the index for predicate pushdown. It reads
// stable storage directly — no modeled I/O — the way Vectorwise
// maintains MinMax indexes during load; call it once after loading.
func (s *System) BuildZoneMap(snap *Snapshot, col int) {
	s.Ctx.Zones.Build(snap, col, s.chunkTuples)
}

// SkipCounts reports the run's zone-map pruning counters: tuples
// requested by predicate-carrying scans and the subset skipped before
// any I/O was scheduled.
func (s *System) SkipCounts() (requested, skipped int64) { return s.Ctx.Skip.Counts() }

// IOBytes reports the total bytes read from the simulated disk so far.
func (s *System) IOBytes() int64 { return s.Disk.Stats().BytesRead }

// Now reports the current time on the system's clock (virtual in sim
// mode, wall time since startup in real mode).
func (s *System) Now() time.Duration { return time.Duration(s.RT.Now()) }
