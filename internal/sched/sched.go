// Package sched implements a multi-tenant query scheduler for the
// simulated engine: queries arriving from many concurrent client streams
// are admitted under a concurrency limit (the multi-programming level,
// MPL) through one bounded admission queue, drained in the order of the
// configured admission policy (fifo, sesf or wfq), and every query's life
// cycle — arrival, admission, completion — is timestamped on the virtual
// clock so the serving harness can report queue-wait and execution
// latency percentiles and SLO attainment.
//
// The scheduler is deliberately policy-agnostic: it gates *when* a query
// may start, while the buffer-management layer (LRU/Clock/PBM or the
// Cooperative Scans ABM) decides *how* its scans share the pool once
// running. This mirrors the paper's §4 setup, where the number of
// concurrent streams is the controlled variable and the buffer manager
// is the subject under test.
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rt"
	"repro/internal/sim"
)

// Config parameterizes a Scheduler.
type Config struct {
	// MPL is the maximum number of concurrently executing queries
	// (default 8).
	MPL int
	// QueueDepth bounds the admission queue; a query arriving when the
	// queue is full is rejected. Zero means DefaultQueueDepth; negative
	// means unbounded.
	QueueDepth int
	// SLO is the end-to-end latency objective used for attainment
	// accounting; zero disables SLO tracking.
	SLO sim.Duration
	// Policy names the admission-ordering policy (see PolicyNames):
	// "fifo" (arrival order, the historical behavior), "sesf"
	// (shortest-expected-scan-first by Query.Cost), or "wfq" (per-tenant
	// weighted fair queueing). Empty means fifo.
	Policy string
	// TenantWeights assigns per-tenant fair-share weights to weighted
	// policies; missing tenants weigh 1.
	TenantWeights map[int]float64
}

// DefaultQueueDepth is the admission queue bound when Config.QueueDepth
// is zero.
const DefaultQueueDepth = 64

func (c Config) withDefaults() Config {
	if c.MPL <= 0 {
		c.MPL = 8
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Policy == "" {
		c.Policy = "fifo"
	}
	return c
}

// QueryStat is the recorded life cycle of one resolved query. Completed
// queries carry Cause == rt.CauseNone; queue drops and mid-execution
// kills record why the query died.
type QueryStat struct {
	// Stream and Seq identify the query within its client stream; Tenant
	// is its fairness domain.
	Stream, Seq, Tenant int
	// Arrive, Admit and Finish are virtual timestamps: arrival at the
	// scheduler, admission to execution, and completion. For a queue drop
	// Admit and Finish are both the drop time, so Latency() is the time
	// the entry wasted in the queue.
	Arrive, Admit, Finish sim.Time
	// Cause is why the query died (rt.CauseNone for completed queries).
	Cause rt.CancelCause
	// Write marks an update query (admitted through the same policies as
	// reads, reported separately).
	Write bool
}

// QueueWait is the time the query spent in the admission queue.
func (q QueryStat) QueueWait() sim.Duration { return sim.Duration(q.Admit - q.Arrive) }

// ExecTime is the time the query spent executing after admission.
func (q QueryStat) ExecTime() sim.Duration { return sim.Duration(q.Finish - q.Admit) }

// Latency is the end-to-end latency (queue wait plus execution).
func (q QueryStat) Latency() sim.Duration { return sim.Duration(q.Finish - q.Arrive) }

// Scheduler admits queries under an MPL limit through one bounded queue
// of waiting tickets, kept in arrival order; the admission policy is only
// the order that queue is drained in (see policies). All methods must be
// called from processes of the runtime the scheduler is bound to. The
// instance mutex makes admission and completion atomic on the
// real-threaded runtime; in sim mode it is uncontended.
type Scheduler struct {
	r      rt.Runtime
	cfg    Config
	before func(a, b *Ticket) bool // the policy's order; nil is arrival order

	mu       sync.Mutex
	running  int
	queue    []*Ticket // waiting tickets, in arrival order
	draining bool

	// lastTag and vtime are wfq's books (nil map otherwise): each tenant's
	// most recently stamped finish tag, and the tag of the last ticket to
	// leave the queue.
	lastTag map[int]float64
	vtime   float64

	arrived       int64
	rejected      int64
	drainRejected int64
	completed     []QueryStat
	dropped       []QueryStat // queue drops: entries that died before admission
	killed        []QueryStat // mid-execution kills: admitted, then cancelled/expired
	maxQueue      int
}

// New creates a scheduler bound to the runtime. It panics on an
// unknown Config.Policy name; validate user input against
// PolicyNames first.
func New(r rt.Runtime, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	before, ok := policies[cfg.Policy]
	if !ok {
		panic(fmt.Sprintf("sched: unknown admission policy %q (registered: %v)", cfg.Policy, PolicyNames()))
	}
	s := &Scheduler{r: r, cfg: cfg, before: before}
	if cfg.Policy == "wfq" {
		s.lastTag = map[int]float64{}
	}
	return s
}

// Policy reports the name of the scheduler's admission policy.
func (s *Scheduler) Policy() string { return s.cfg.Policy }

// UsesCost reports whether the admission policy consults Query.Cost
// (only sesf does); drivers can skip pricing queries when it does not.
func (s *Scheduler) UsesCost() bool { return s.cfg.Policy == "sesf" }

// Query identifies and prices one admission request.
type Query struct {
	// Stream and Seq identify the query within its client stream.
	Stream, Seq int
	// Tenant is the query's fairness domain (wfq weights admissions per
	// tenant; other policies treat it as a label for per-tenant stats).
	Tenant int
	// Cost is the query's expected work in seconds of expected execution
	// time — the exec/pbm cost hook supplies it from table size and scan
	// speed estimates; update queries are priced by delta size. Only
	// cost-aware policies (sesf) consult it.
	Cost float64
	// Write marks an update query. Writes share the admission policies,
	// queue and MPL with reads; the flag only routes their completions
	// into the write-throughput accounting.
	Write bool
	// Ctx is the query's lifecycle handle: a query cancelled while queued
	// is dropped instead of admitted, and a queued query whose deadline
	// passes is dropped with rt.CauseAdmissionTimeout. Nil is a query that
	// is never cancelled and has no deadline.
	Ctx *rt.QueryCtx
}

// Ticket is one query's record from arrival to resolution: it waits in
// the scheduler's queue, and once granted it is the admission handle of
// the running query. Resolve a granted ticket exactly once: Done when the
// query finishes, Cancel when it dies mid-execution. The terminal
// transition is atomic — the first of Done/Cancel wins and the other is a
// no-op — so a client cancel racing a natural completion needs no
// external coordination.
type Ticket struct {
	s      *Scheduler
	q      Query
	arrive sim.Time
	admit  sim.Time // for a queue drop, the drop time
	state  atomic.Int32

	// Queue state, guarded by s.mu. tag is wfq's finish tag, stamped when
	// the ticket joins the queue. ev hands the ticket a freed MPL slot or
	// wakes it dropped; granted and dropCause record which, and exactly
	// one of them is set before ev fires.
	tag       float64
	ev        rt.Event
	granted   bool
	dropCause rt.CancelCause
}

// Ticket terminal states: the first CompareAndSwap out of ticketActive
// wins; the loser's call is a no-op.
const (
	ticketActive int32 = iota
	ticketDone
	ticketCancelled
)

// Arrive reports when the ticket's query arrived at the scheduler.
func (t *Ticket) Arrive() sim.Time { return t.arrive }

// Admit reports when the ticket's query was admitted to execution.
func (t *Ticket) Admit() sim.Time { return t.admit }

// stat is the ticket's record, resolved at finish with cause.
func (t *Ticket) stat(finish sim.Time, cause rt.CancelCause) QueryStat {
	return QueryStat{
		Stream: t.q.Stream, Seq: t.q.Seq, Tenant: t.q.Tenant,
		Arrive: t.arrive, Admit: t.admit, Finish: finish, Cause: cause, Write: t.q.Write,
	}
}

// AdmitOutcome classifies how an admission request resolved.
type AdmitOutcome int

const (
	// AdmitGranted: the query holds an MPL slot; resolve its Ticket.
	AdmitGranted AdmitOutcome = iota
	// AdmitRejected: the bounded admission queue was full.
	AdmitRejected
	// AdmitDraining: the scheduler is draining and refuses new work.
	// Counted separately from Rejected (see Stats.DrainRejected) so
	// shutdown does not pollute the rejection stats.
	AdmitDraining
	// AdmitDropped: the query died before admission — cancelled on
	// arrival or while queued, or past its deadline. The cause is on
	// its Query.Ctx.
	AdmitDropped
)

func (o AdmitOutcome) String() string {
	switch o {
	case AdmitGranted:
		return "granted"
	case AdmitRejected:
		return "rejected"
	case AdmitDraining:
		return "draining"
	case AdmitDropped:
		return "dropped"
	}
	return fmt.Sprintf("AdmitOutcome(%d)", int(o))
}

// AdmitQuery requests admission for q. It blocks (in virtual time) while
// the MPL is saturated and the query sits in the admission queue, to be
// picked by the admission policy. It returns ok=false — without blocking
// — when the queue is full and the query is rejected.
func (s *Scheduler) AdmitQuery(q Query) (*Ticket, bool) {
	t, out := s.AdmitQueryOutcome(q)
	return t, out == AdmitGranted
}

// Drain puts the scheduler into draining: every subsequent admission
// resolves AdmitDraining without blocking. Already-queued queries keep
// their place and still run; pair Drain with polling Check(true), which
// passes once nothing is running or queued, to wait for the in-flight
// work to finish.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// AdmitQueryOutcome is AdmitQuery with the resolution classified: the
// serving front end branches on queue-full versus draining versus a
// query that died while queued, which the boolean form conflates.
func (s *Scheduler) AdmitQueryOutcome(q Query) (*Ticket, AdmitOutcome) {
	s.mu.Lock()
	if s.draining {
		// Refused work is not an arrival: the reconciliation invariant
		// (Completed+Rejected+TimedOut+Cancelled == Arrived once idle)
		// must survive a drain race.
		s.drainRejected++
		s.mu.Unlock()
		return nil, AdmitDraining
	}
	s.arrived++
	t := &Ticket{s: s, q: q, arrive: s.r.Now()}
	if s.running < s.cfg.MPL {
		s.running++
		t.admit = t.arrive
		s.mu.Unlock()
		return t, AdmitGranted
	}
	if s.cfg.QueueDepth >= 0 && len(s.queue) >= s.cfg.QueueDepth {
		// Before rejecting a live arrival, reap queued entries that are
		// already dead: a cancelled or expired entry must not hold a
		// queue slot against queries that could still run.
		s.reapDeadLocked()
		if len(s.queue) >= s.cfg.QueueDepth {
			s.rejected++
			s.mu.Unlock()
			return nil, AdmitRejected
		}
	}
	if q.Ctx.Cancelled() {
		// Dead on arrival: never enqueue. (An already-cancelled query's
		// OnCancel hook would fire the slot event before anyone waits on
		// it — on the simulator that wake-up is lost and the entry would
		// park forever.)
		s.dropLocked(t, q.Ctx.Cause())
		s.mu.Unlock()
		return nil, AdmitDropped
	}
	t.ev = s.r.NewEvent()
	s.enqueueLocked(t)
	s.maxQueue = max(s.maxQueue, len(s.queue))
	// The releasing query transfers its MPL slot directly to the policy's
	// pick before firing the event, so on wake-up the slot is ours.
	// Interest is registered before the mutex is dropped, so a transfer
	// racing the block cannot be lost. A cancel while queued fires the
	// same event (the Waiter is taken first, so a cancel landing between
	// hook registration and the park still wakes the captured
	// generation); the entry then removes itself below.
	waitSlot := t.ev.Waiter()
	stop := q.Ctx.OnCancel(t.ev.Fire)
	s.mu.Unlock()
	waitSlot.Wait()
	stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case t.granted:
		// The slot is ours — even if the query was cancelled while the
		// grant was in flight. It counts as admitted; the executor sees
		// the cancel at its first check and resolves the ticket with
		// Cancel, so the accounting stays single-bucket.
		t.admit = s.r.Now()
		return t, AdmitGranted
	case t.dropCause == rt.CauseNone:
		// Woken by our own cancel hook while still queued: take the entry
		// out of the queue and record the drop.
		cause := q.Ctx.Cause()
		if cause == rt.CauseNone {
			cause = rt.CauseAdmissionTimeout
		}
		s.removeLocked(t)
		s.dropLocked(t, cause)
	}
	// Otherwise a slot-releasing query or the queue-full reaper already
	// removed and recorded this entry.
	return nil, AdmitDropped
}

// deadCause classifies a queued ticket at time now: the cause it should
// be dropped with, or rt.CauseNone while it is still admittable.
func (t *Ticket) deadCause(now sim.Time) rt.CancelCause {
	if c := t.q.Ctx.Cause(); c != rt.CauseNone {
		return c
	}
	if t.q.Ctx.Expired(now) {
		return rt.CauseAdmissionTimeout
	}
	return rt.CauseNone
}

// reapDeadLocked drops every queued entry that is already cancelled or
// past its deadline, freeing their queue slots. Caller holds s.mu.
func (s *Scheduler) reapDeadLocked() {
	now := s.r.Now()
	s.queue = slices.DeleteFunc(s.queue, func(t *Ticket) bool {
		cause := t.deadCause(now)
		if cause != rt.CauseNone {
			s.expelLocked(t, cause)
		}
		return cause != rt.CauseNone
	})
}

// dropLocked records t as dropped before admission: Admit == Finish ==
// now, so Latency() is its queue residence time. Caller holds s.mu.
func (s *Scheduler) dropLocked(t *Ticket, cause rt.CancelCause) {
	t.dropCause = cause
	t.admit = s.r.Now()
	s.dropped = append(s.dropped, t.stat(t.admit, cause))
}

// expelLocked drops a dead ticket the scheduler took out of the queue.
// Its context is cancelled too, so every layer agrees it is dead; its
// parked AdmitQuery wakes via the cancel hook (or the explicit Fire, if
// the hook ran before it parked) and observes dropCause. Caller holds
// s.mu.
func (s *Scheduler) expelLocked(t *Ticket, cause rt.CancelCause) {
	s.dropLocked(t, cause)
	t.q.Ctx.Cancel(cause)
	t.ev.Fire()
}

// Done releases the query's MPL slot, recording its completion. The slot
// is handed to the admission policy's next live pick, if any query
// waits. A second Done — or a Done racing Cancel — is a no-op: the first
// terminal transition wins.
func (t *Ticket) Done() {
	if !t.state.CompareAndSwap(ticketActive, ticketDone) {
		return
	}
	s := t.s
	s.mu.Lock()
	s.completed = append(s.completed, t.stat(s.r.Now(), rt.CauseNone))
	s.releaseSlotLocked()
}

// Cancel resolves the ticket as killed mid-execution with the given
// cause (rt.CauseNone maps to rt.CauseClientCancel) and releases its MPL
// slot. It also cancels the query's lifecycle context, so a caller may
// use Cancel itself as the kill switch rather than cancelling the
// context first. No-op if Done or Cancel already resolved the ticket.
func (t *Ticket) Cancel(cause rt.CancelCause) {
	if cause == rt.CauseNone {
		cause = rt.CauseClientCancel
	}
	if !t.state.CompareAndSwap(ticketActive, ticketCancelled) {
		return
	}
	t.q.Ctx.Cancel(cause) // no-op if the context is already dead
	s := t.s
	s.mu.Lock()
	s.killed = append(s.killed, t.stat(s.r.Now(), cause))
	s.releaseSlotLocked()
}

// releaseSlotLocked hands the caller's freed MPL slot to the next live
// queued entry. Dead picks (cancelled while queued, or past their
// deadline) are dropped on the spot — recorded, woken to observe the
// drop — and the loop moves on, so a burst of expired entries cannot
// absorb slots meant for live queries. Caller holds s.mu; the method
// unlocks it.
func (s *Scheduler) releaseSlotLocked() {
	now := s.r.Now()
	for {
		next := s.popLocked()
		if next == nil {
			s.running--
			s.mu.Unlock()
			return
		}
		if cause := next.deadCause(now); cause != rt.CauseNone {
			s.expelLocked(next, cause)
			continue
		}
		next.granted = true
		s.mu.Unlock()
		next.ev.Fire()
		return // slot transferred, running count unchanged
	}
}

// Check verifies the scheduler's ledger in one critical section: every
// arrival is exactly one of completed, rejected, timed out, cancelled,
// running or queued — so a dead query must have died of a cause Stats
// counts — and at most MPL queries run. With idle set nothing may be
// running or queued. It returns nil or an error naming the scheduler
// and the first broken invariant.
func (s *Scheduler) Check(idle bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	for _, q := range s.dropped {
		countCause(&st, q.Cause)
	}
	for _, q := range s.killed {
		countCause(&st, q.Cause)
	}
	done, queued := int64(len(s.completed)), len(s.queue)
	switch n := done + s.rejected + st.TimedOut + st.Cancelled + int64(s.running+queued); {
	case n != s.arrived:
		return fmt.Errorf("sched: %d arrived, but %d completed, %d rejected, %d timed out and %d cancelled of %d dead, %d running and %d queued make %d",
			s.arrived, done, s.rejected, st.TimedOut, st.Cancelled, len(s.dropped)+len(s.killed), s.running, queued, n)
	case s.running < 0 || s.running > s.cfg.MPL:
		return fmt.Errorf("sched: %d running, MPL %d", s.running, s.cfg.MPL)
	case idle && s.running+queued != 0:
		return fmt.Errorf("sched: %d running and %d queued at idle", s.running, queued)
	}
	return nil
}

// Running reports the number of currently executing queries.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Queued reports the number of queries waiting in the admission queue.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Completed returns the recorded per-query statistics, in completion
// order. The records are append-only and never modified once written,
// so the returned prefix is safe to read, on either runtime, while later
// completions append behind it; it just does not grow. Do not write to
// it.
func (s *Scheduler) Completed() []QueryStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

// Dropped returns the queue-drop records (queries that died waiting, in
// drop order): Cause says why, Latency() how long they held a queue
// slot. Same contract as Completed.
func (s *Scheduler) Dropped() []QueryStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Killed returns the mid-execution kill records (admitted queries
// resolved by Ticket.Cancel), in kill order. Same contract as Completed.
func (s *Scheduler) Killed() []QueryStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// LatencyDist summarizes a latency distribution with nearest-rank
// percentiles.
type LatencyDist struct {
	P50, P95, P99, Max sim.Duration
	Mean               sim.Duration
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ds, which it sorts in place. Zero-length input yields zero; a p
// outside (0, 100] panics.
func Percentile(ds []sim.Duration, p float64) sim.Duration {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("sched: percentile %v outside (0, 100]", p))
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return nearestRank(ds, p)
}

// nearestRank indexes the p-th nearest-rank percentile of an
// already-sorted slice.
func nearestRank(sorted []sim.Duration, p float64) sim.Duration {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// distOf summarizes ds, sorting it in place once and indexing each
// percentile off the sorted slice.
func distOf(ds []sim.Duration) LatencyDist {
	var d LatencyDist
	if len(ds) == 0 {
		return d
	}
	var sum sim.Duration
	for _, v := range ds {
		sum += v
	}
	d.Mean = sum / sim.Duration(len(ds))
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	d.P50 = nearestRank(ds, 50)
	d.P95 = nearestRank(ds, 95)
	d.P99 = nearestRank(ds, 99)
	d.Max = ds[len(ds)-1]
	return d
}

// Stats is the aggregate serving report of a scheduler run.
type Stats struct {
	// Arrived counts every admission request, reads and writes; Completed
	// and Rejected partition the ones that have finished or been turned
	// away (Completed includes completed writes, so the reconciliation
	// invariant is write-agnostic).
	Arrived, Completed, Rejected int64
	// MaxQueueDepth is the high-water mark of the admission queue.
	MaxQueueDepth int
	// Latency, QueueWait and Exec summarize the completed READ queries'
	// end-to-end latency and its queue/execution split: update queries
	// are tiny delta appends whose latencies would drown the scan
	// percentiles the serve table compares across write fractions.
	Latency, QueueWait, Exec LatencyDist
	// SLOAttainment is the fraction of completed read queries whose
	// end-to-end latency met the configured SLO (zero SLO => 1).
	SLOAttainment float64
	// Makespan is the length of the stats window (window start to the
	// time Stats was taken; Stats opens the window at the clock's epoch);
	// Throughput is completed read queries per second over the makespan and
	// WriteThroughput the same for update queries (WriteCompleted of
	// them). All write fields are zero in a read-only run.
	Makespan        sim.Time
	Throughput      float64
	WriteCompleted  int64
	WriteThroughput float64
	// TimedOut counts queries killed by their deadline: queue drops with
	// rt.CauseAdmissionTimeout plus mid-execution expiries with
	// rt.CauseDeadlineExceeded. Cancelled counts client cancels, queued
	// or running. Completed + Rejected + TimedOut + Cancelled covers
	// every resolved arrival.
	TimedOut, Cancelled int64
	// QueueDrop summarizes the queue residence time (arrival to drop) of
	// entries dropped while waiting. It is reported separately so dead
	// entries do not pollute the completed-query latency percentiles.
	QueueDrop LatencyDist
	// DrainRejected counts admissions refused because the scheduler was
	// draining. These are not arrivals: the Completed + Rejected +
	// TimedOut + Cancelled == Arrived reconciliation holds with or
	// without a drain, and shutdown does not inflate Rejected.
	DrainRejected int64
	// Running and Queued are the queries executing and waiting when the
	// stats were taken, read with the counters above: the resolved
	// arrivals plus these two are exactly Arrived, also mid-run.
	Running, Queued int
}

// Stats summarizes the run as of time now, over the window that opened
// at the clock's epoch.
func (s *Scheduler) Stats(now sim.Time) Stats { return s.StatsSince(0, now) }

// StatsSince is Stats over the window [start, now]: the throughput
// denominators exclude whatever idle or setup time preceded start.
func (s *Scheduler) StatsSince(start, now sim.Time) Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Arrived:       s.arrived,
		Completed:     int64(len(s.completed)),
		Rejected:      s.rejected,
		DrainRejected: s.drainRejected,
		MaxQueueDepth: s.maxQueue,
		Makespan:      now - start,
		Running:       s.running,
		Queued:        len(s.queue),
	}
	lat := make([]sim.Duration, 0, len(s.completed))
	qw := make([]sim.Duration, 0, len(s.completed))
	ex := make([]sim.Duration, 0, len(s.completed))
	met := 0
	for _, q := range s.completed {
		if q.Write {
			st.WriteCompleted++
			continue
		}
		lat = append(lat, q.Latency())
		qw = append(qw, q.QueueWait())
		ex = append(ex, q.ExecTime())
		if s.cfg.SLO <= 0 || q.Latency() <= s.cfg.SLO {
			met++
		}
	}
	st.Latency = distOf(lat)
	st.QueueWait = distOf(qw)
	st.Exec = distOf(ex)
	if n := len(lat); n > 0 {
		st.SLOAttainment = float64(met) / float64(n)
	}
	if sec := st.Makespan.Seconds(); sec > 0 {
		st.Throughput = float64(len(lat)) / sec
		st.WriteThroughput = float64(st.WriteCompleted) / sec
	}
	qd := make([]sim.Duration, len(s.dropped))
	for i, q := range s.dropped {
		qd[i] = q.Latency()
		countCause(&st, q.Cause)
	}
	for _, q := range s.killed {
		countCause(&st, q.Cause)
	}
	st.QueueDrop = distOf(qd)
	return st
}

// countCause buckets one dead query into the TimedOut/Cancelled totals.
func countCause(st *Stats, c rt.CancelCause) {
	switch c {
	case rt.CauseClientCancel:
		st.Cancelled++
	case rt.CauseDeadlineExceeded, rt.CauseAdmissionTimeout:
		st.TimedOut++
	}
}

// ExpInterarrival draws one exponentially distributed inter-arrival gap
// for a Poisson process with the given rate (arrivals per virtual
// second). A non-positive rate yields zero (back-to-back arrivals).
func ExpInterarrival(rng *rand.Rand, ratePerSec float64) sim.Duration {
	if ratePerSec <= 0 {
		return 0
	}
	gap := rng.ExpFloat64() / ratePerSec // seconds
	return sim.Duration(gap * 1e9)
}
