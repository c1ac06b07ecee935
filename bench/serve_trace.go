package main

import (
	"runtime"

	"repro/internal/sched"
	"repro/internal/sim"
)

// serveTraced is the traced run of a serve workload: a window with
// tracing off as the overhead base, then a window under the CPU profiler
// with client.request and server.handle spans, whose counter deltas,
// spans and profile give the per-layer metrics.
func serveTraced(res *result, o options, shape serveShape, h *host, clients []*client, tr *tracer) (tally, error) {
	eng := h.srv.Engine()
	runtime.GC()
	base, baseWall := window(clients, o.seconds/3, nil)
	res.phase("untraced_window")

	runtime.GC()
	before := eng.Stats()
	t0 := eng.Now()
	proc0 := sampleProc()
	prof, err := startProfile()
	if err != nil {
		return tally{}, err
	}
	t, wall := window(clients, o.seconds/3, tr)
	cpu, err := prof.stop()
	if err != nil {
		return tally{}, err
	}
	proc1 := sampleProc()
	after := eng.Stats()
	res.phase("traced_window")

	setLatencies(res, eng, before, after, &t)
	if shape.hot {
		setWholeWindow(res, &t, wall)
	}
	setLoadedMB(res, shape, before, after)

	disk := after.DiskStats.Stats
	disk.BytesRead -= before.DiskStats.BytesRead
	disk.Requests -= before.DiskStats.Requests
	disk.Seeks -= before.DiskStats.Seeks
	disk.BusyTime -= before.DiskStats.BusyTime
	disk.Skipped -= before.DiskStats.Skipped
	setDiskCounts(res, disk) // max_queue is the high-water mark since start-up
	pool := after.PoolStats
	pool.Hits -= before.PoolStats.Hits
	pool.Misses -= before.PoolStats.Misses
	pool.Evictions -= before.PoolStats.Evictions
	pool.Stalls -= before.PoolStats.Stalls
	setPoolCounts(res, pool)

	res.set("exec.tuples_m", float64(t.readTuples)/1e6)
	if shape.writes {
		res.set("pdt.writes", float64(t.writes))
		res.set("pdt.write_qps", float64(t.writes)/wall)
		res.set("pdt.ops_applied", float64(t.applied))
		res.set("pdt.checkpoints", float64(after.Checkpoints-before.Checkpoints))
		res.set("pdt.merge_read_p95_ms", after.MergeP95.Seconds()*1e3)
	}

	res.set("sched.arrived", float64(after.Sched.Arrived-before.Sched.Arrived))
	res.set("sched.max_queue_depth", float64(after.Sched.MaxQueueDepth))
	var waits, execs []sim.Duration
	for _, q := range eng.Scheduler().Completed() {
		if q.Arrive >= t0 && !q.Write {
			waits = append(waits, q.QueueWait())
			execs = append(execs, q.ExecTime())
		}
	}
	res.set("sched.queue_wait_p95_ms", sched.Percentile(waits, 95).Seconds()*1e3)
	res.set("sched.exec_p95_ms", sched.Percentile(execs, 95).Seconds()*1e3)
	res.Samples["sched.queue_wait_p95_ms"], res.Samples["sched.exec_p95_ms"] = len(waits), len(execs)

	setSpanMetrics(res, tr, t.spanIDs)
	res.set("server.rows_out", float64(t.rows))
	res.set("server.out_mb", float64(t.bytes)/1e6)

	res.set("tpch.generate_s", h.generateS)
	baseQPS, qps := float64(base.reads)/baseWall, float64(t.reads)/wall
	if baseQPS > 0 {
		res.set("bench.trace_overhead_pct", 100*(baseQPS-qps)/baseQPS)
	}
	setCPULayers(res, cpu)
	setRuntime(res, proc0, proc1, float64(t.reads+t.writes))
	res.spans = tr.spans()
	t.merge(&base)
	if t.attempted > 0 {
		res.set("bench.failed_share", float64(t.failed)/float64(t.attempted))
	}
	// The layer microbenchmarks build engines of their own; stop this
	// one's traffic first so they have the machine.
	if err := setLayerCosts(res, o); err != nil {
		return t, err
	}
	return t, nil
}

// setSpanMetrics derives the server's and the transport's share of each
// traced request: handler time is the server.handle span, transport is
// what is left of the client.request span around it.
func setSpanMetrics(res *result, tr *tracer, clientSpans []int) {
	spans := tr.spans()
	child := map[int]span{}
	for _, s := range spans {
		if s.Name == "server.handle" {
			child[s.Parent] = s
		}
	}
	var handle, transport []float64
	for _, id := range clientSpans {
		c := spans[id-1]
		s, ok := child[id]
		if !ok || c.EndNS == 0 || s.EndNS == 0 {
			continue
		}
		hd := float64(s.EndNS-s.StartNS) / 1e6
		handle = append(handle, hd)
		transport = append(transport, float64(c.EndNS-c.StartNS)/1e6-hd)
	}
	res.set("server.handle_p50_ms", median(handle))
	res.set("server.transport_p50_ms", median(transport))
	res.Samples["server.handle_p50_ms"], res.Samples["server.transport_p50_ms"] = len(handle), len(transport)
}
