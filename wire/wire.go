// Package wire defines the versioned JSON schema of the scanshare
// network surface. One set of types covers every producer and consumer:
// scanserved's request/response bodies, its /statz export, the scanload
// load-generator client, and scanbench's -json sweep output — so
// socket-path numbers and in-process sweep rows are directly comparable
// field for field.
//
// The package is deliberately dependency-free (stdlib only) so clients
// can vendor or copy it without pulling in the engine.
package wire

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// Version is the wire-schema version; it prefixes every endpoint path
// and is echoed in Statz so clients can detect skew.
const Version = "v1"

// Endpoint paths served by scanserved.
const (
	// PathQuery accepts a POST with a QueryRequest body and streams the
	// result back as NDJSON: one JSON array per row, then one final
	// QueryResult object (rows start with '[', the trailer with '{').
	PathQuery = "/" + Version + "/query"
	// PathUpdate accepts a POST with an UpdateRequest body: one update
	// query through the same admission scheduler as reads, answered with
	// an UpdateResult (or ErrorReply on refusal).
	PathUpdate = "/" + Version + "/update"
	// PathStatz serves the Statz snapshot as JSON.
	PathStatz = "/" + Version + "/statz"
	// PathHealth serves liveness: 200 "ok" normally, 503 "draining"
	// once graceful shutdown has begun.
	PathHealth = "/healthz"
)

// ContentTypeNDJSON is the streaming response content type.
const ContentTypeNDJSON = "application/x-ndjson"

// Duration marshals as a Go duration string ("250ms", "1.5s") and
// unmarshals from either that form or a plain number of nanoseconds, so
// hand-written curl bodies stay readable.
type Duration time.Duration

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("wire: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	ns, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("wire: bad duration %s: want a string like \"250ms\" or nanoseconds", b)
	}
	*d = Duration(ns)
	return nil
}

// Query kinds: the microbenchmark aggregations and a raw row stream.
const (
	// KindQ1 and KindQ6 run the paper's microbenchmark aggregation
	// plans over the requested range; they return a handful of rows.
	KindQ1 = "q1"
	KindQ6 = "q6"
	// KindScan streams the scanned rows themselves (the microbenchmark
	// column set), the kind that exercises result-delivery backpressure.
	KindScan = "scan"
)

// Predicate is an explicit int64 range restriction [Lo, Hi] on a
// lineitem column, pushed down to the scans for zone-map pruning and
// filtered exactly. Col must be "l_shipdate", the one column every query
// kind reads; the server answers 400 for any other.
type Predicate struct {
	Col    string
	Lo, Hi int64
}

// QueryRequest is the POST body of PathQuery.
type QueryRequest struct {
	// Tenant pins the query's fairness domain. Absent, the query
	// belongs to its connection's tenant (connections are assigned
	// tenants round-robin), so naive clients get multi-tenancy for
	// free and load generators can pin exact stream→tenant maps.
	Tenant *int `json:",omitempty"`
	// Kind selects the plan: "q1", "q6" (default) or "scan".
	Kind string `json:",omitempty"`
	// Lo and Hi restrict the scan to the half-open row range [Lo, Hi).
	// Hi == 0 means the full table. Out-of-range bounds are clipped.
	Lo int64 `json:",omitempty"`
	Hi int64 `json:",omitempty"`
	// Predicate carries an explicit l_shipdate window; Selectivity (in
	// (0,1)) instead asks the server to draw an l_shipdate window
	// spanning that fraction of the date domain, the same discipline
	// the in-process serve sweep uses. Predicate wins if both are set.
	Predicate   *Predicate `json:",omitempty"`
	Selectivity float64    `json:",omitempty"`
	// Deadline arms an end-to-end deadline relative to arrival:
	// queries still queued past it time out with "admission-timeout",
	// executing ones are killed with "deadline-exceeded".
	Deadline Duration `json:",omitempty"`
}

// Outcome labels carried by QueryResult and ErrorReply. The lifecycle
// outcomes match rt.CancelCause.String().
const (
	OutcomeOK               = "ok"
	OutcomeClientCancel     = "client-cancel"
	OutcomeDeadlineExceeded = "deadline-exceeded"
	OutcomeAdmissionTimeout = "admission-timeout"
	OutcomeRejected         = "rejected"
	OutcomeDraining         = "draining"
)

// QueryResult is the final NDJSON line of a streamed response: the
// only object in the stream (every row is an array), so clients split
// on the first byte.
type QueryResult struct {
	Rows    int64
	Bytes   int64
	Tenant  int
	Outcome string
	// LatencyMS is arrival→finish, QueueWaitMS arrival→admission, both
	// on the server clock.
	LatencyMS   float64
	QueueWaitMS float64
	Error       string `json:",omitempty"`
}

// ErrorReply is the JSON body of a non-200 response.
type ErrorReply struct {
	Error   string
	Outcome string `json:",omitempty"`
}

// Update kinds accepted by PathUpdate.
const (
	KindInsert = "insert"
	KindDelete = "delete"
	KindModify = "modify"
)

// UpdateRequest is the POST body of PathUpdate: one update query of a
// kind and delta size, at an explicit Target or, without one, at a
// position and date the server draws.
type UpdateRequest struct {
	// Tenant pins the update's fairness domain, like QueryRequest.Tenant.
	Tenant *int `json:",omitempty"`
	// Kind is "insert", "delete" or "modify" (default "modify").
	Kind string `json:",omitempty"`
	// Batch is the number of delta operations the update applies in one
	// transaction — its delta size, which also prices it for admission
	// (default 1, clamped server-side).
	Batch int `json:",omitempty"`
	// Target places the update; absent, the server draws it.
	Target *Target `json:",omitempty"`
	// Deadline arms an end-to-end deadline relative to arrival, like
	// QueryRequest.Deadline.
	Deadline Duration `json:",omitempty"`
}

// Target is where an update lands: Frac is its first row as a fraction
// of the table's current row count, Date the l_shipdate value it writes
// (a modify) or gives its rows (an insert). The server clamps Frac into
// [0, 1] and Date into Statz.Domain.
type Target struct {
	Frac float64
	Date int64
}

// UpdateResult is the response body of an admitted update.
type UpdateResult struct {
	// Applied counts the delta operations the transaction committed
	// (deletes stopped by the table's deletion floor are not counted).
	Applied int
	Tenant  int
	Outcome string
	// Version is the store's commit epoch after the update; Pending the
	// committed-but-uncheckpointed delta count (the checkpoint trigger's
	// input); Checkpoints the completed checkpoint/merge cycles so far.
	Version     int64
	Pending     int64
	Checkpoints int
	LatencyMS   float64
	QueueWaitMS float64
	Error       string `json:",omitempty"`
}

// ServeStats is one serving measurement in the serve-table schema: one
// cell of the in-process sweep (a rate, MPL, buffer policy, devices,
// admission policy, ... configuration and its throughput/latency
// report, overall and per tenant), a /statz export, or a scanload
// report, so `scanbench -json` files and the socket path all parse with
// one type. The root package's ServeRow is this type.
type ServeStats struct {
	Rate      float64 // per-stream arrival rate (queries/s)
	MPL       int
	Policy    string // buffer-management policy
	Devices   int    // disk-array spindle count
	IOSched   string // device queue discipline (fifo/elevator)
	Tier      string // array tiering (flat/tiered-rr/tiered-temp)
	Admission string // admission policy (fifo/sesf/wfq)
	Completed int64
	Rejected  int64
	// TimedOut and Cancelled count the queries resolved by the lifecycle
	// machinery: deadline kills (queued or executing) and client
	// cancels. Completed+Rejected+TimedOut+Cancelled covers every
	// arrival; ToPct and CanPct are their shares of arrivals, 0..100.
	TimedOut   int64
	Cancelled  int64
	ToPct      float64
	CanPct     float64
	Throughput float64 // completed queries per (virtual or wall) second
	P50ms      float64 // end-to-end latency percentiles (ms)
	P95ms      float64
	P99ms      float64
	QWaitP95ms float64 // queue-wait p95 (ms)
	SLOPct     float64 // fraction of completed queries meeting the SLO, 0..100
	IOMB       float64
	// Selectivity is the cell's predicate selectivity (1 = unrestricted
	// scans); SkipPct is the fraction of requested tuples the zone maps
	// pruned before any I/O was scheduled, 0..100.
	Selectivity float64
	SkipPct     float64
	// ReadMBps is the achieved aggregate read bandwidth over the run's
	// makespan (device bytes / elapsed), the column that makes the
	// multi-device scaling effect measurable.
	ReadMBps float64
	// Seeks counts device requests that paid the seek penalty, summed
	// over spindles — the column the elevator scheduler moves.
	Seeks int64
	// Skew is the busiest spindle's byte share relative to a perfect
	// stripe balance: MaxDeviceBytes / (BytesRead / Devices). 1.00 means
	// balanced, Devices means one spindle did all the work; 1.00 when the
	// run transferred nothing.
	Skew float64
	// Writes and WrQps report the write side of a mixed cell: update
	// queries completed and their throughput. Checkpoints counts the
	// checkpoint/merge cycles that completed mid-run; MergeP95ms is the
	// p95 end-to-end latency of read queries whose lifetime overlapped a
	// merge window — the "does a merge stall scans" column.
	Writes      int64
	WrQps       float64
	Checkpoints int
	MergeP95ms  float64
	// TenantP95ms and TenantSLOPct break p95 latency and SLO attainment
	// down by tenant id (index = tenant), exposing what the aggregate
	// hides: which tenant pays the overload tail under each admission
	// policy.
	TenantP95ms  []float64
	TenantSLOPct []float64
}

// Statz is the PathStatz response: the live serve-table row plus
// server-level gauges.
type Statz struct {
	Version   string
	UptimeSec float64
	Draining  bool
	// Running and Queued are the scheduler's live gauges; Arrived and
	// DrainRejected its counters (DrainRejected counts admissions
	// refused because the server was draining — kept out of Rejected
	// so shutdown does not pollute the rejection stats). They are read
	// with Stats' outcome counts in one snapshot, so those four plus
	// Running and Queued make Arrived in every snapshot.
	Running       int
	Queued        int
	Arrived       int64
	DrainRejected int64
	// NumTuples is the lineitem row count, the bound clients draw
	// Lo/Hi ranges against; Domain the l_shipdate bounds [Lo, Hi] they
	// draw predicate windows and update dates in; Tenants the configured
	// fairness domains.
	NumTuples int64
	Domain    Predicate
	Tenants   int
	Stats     ServeStats
}
