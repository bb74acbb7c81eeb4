package main

import (
	"fmt"
	"time"
)

// endToEnd are the metrics the JSON line carries for every workload,
// measured with tracing off: what staging costs the node it runs on,
// per task, and to set up. They are counted in CPU time, allocations
// and memory because those repeat between runs on a shared virtual
// machine, where wall-clock rates move with the hypervisor's steal
// time. The text report adds the wall-clock figures (see doc.go).
var endToEnd = []metricDef{
	{"cpu_us_per_task", "us"},
	{"alloc_bytes_per_task", "B"},
	{"allocs_per_task", "count"},
	{"mem_peak_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, named after the module whose
// boundary they measure.
var perLayer = []metricDef{
	// Spans the benchmark records around its own calls.
	{"norns.submit_batch_ms.p50", "ms"},
	{"norns.submit_batch_ms.p99", "ms"},
	{"norns.await_terminal_ms.p50", "ms"},
	{"norns.await_terminal_ms.p99", "ms"},
	{"gateway.post_tasks_ms.p50", "ms"},
	{"gateway.events_end_ms.p50", "ms"},
	{"gateway.task_share", "ratio"},
	{"nornsctl.submit_ms.p50", "ms"},
	{"nornsctl.wait_ms.p50", "ms"},
	{"nornsctl.wait_ms.p90", "ms"},
	{"client.self_share", "ratio"},
	// Counters read through public surfaces at the same boundaries.
	{"urd.pending_tasks.mean", "count"},
	{"urd.status_polls", "count"},
	{"transfer.task_mib_s.p50", "MiB/s"},
	{"transfer.fabric_byte_share", "ratio"},
	{"transfer.cache_byte_share", "ratio"},
	{"transfer.retries_per_task", "count"},
	{"cascache.hit_ratio", "ratio"},
	{"cascache.evictions_per_task", "count"},
	{"mercury.breaker_trips", "count"},
	{"process.gc_cycles_per_ktask", "count"},
	{"process.gc_cpu_share", "ratio"},
	{"process.heap_peak_mib", "MiB"},
	// Layer replays.
	{"wire.submit64_roundtrip_us", "us"},
	{"wire.event_roundtrip_ns", "ns"},
	{"wire.allocs_per_submit64", "count"},
	{"transport.call_rtt_us.p50", "us"},
	{"transport.call_rtt_us.p99", "us"},
	{"events.publish_state_ns", "ns"},
	{"journal.submit_batch64_us.p50", "us"},
	{"journal.submit_batch64_us.p99", "us"},
	{"journal.record_state_us.p50", "us"},
	{"journal.record_stats_us.p50", "us"},
	{"journal.compact_ms.p50", "ms"},
	{"journal.record_progress_us.p50", "us"},
	{"mercury.bulk_pull_mib_s", "MiB/s"},
	{"mercury.bulk_push_mib_s", "MiB/s"},
	{"mercury.forward_rtt_us.p50", "us"},
	{"storage.write_at_mib_s", "MiB/s"},
	{"storage.copy_range_mib_s", "MiB/s"},
	{"cascache.hash_mib_s", "MiB/s"},
	{"cascache.fill_mib_s", "MiB/s"},
	{"cascache.get_hit_us.p50", "us"},
	// Traced against untraced throughput.
	{"trace_overhead", "ratio"},
}

// endToEnd computes the JSON line's metrics from the untraced window,
// and the text report's lines: those metrics, then the wall-clock and
// derived figures the JSON line leaves out.
func (r *result) endToEnd() (map[string]float64, []string) {
	w := r.plain
	cpuPerTask := w.sliceMedian(func(p procDelta) float64 { return float64(p.cpu) / float64(time.Microsecond) })
	m := map[string]float64{
		"cpu_us_per_task":      cpuPerTask,
		"alloc_bytes_per_task": w.sliceMedian(func(p procDelta) float64 { return float64(p.alloc) }),
		"allocs_per_task":      w.sliceMedian(func(p procDelta) float64 { return float64(p.mallocs) }),
		"mem_peak_mib":         w.memPeakMiB(),
		"setup_s":              r.setupS,
	}
	var lines []string
	line := func(name string, v float64, unit string) {
		lines = append(lines, fmt.Sprintf("%-28s %14.4f %s", name, v, unit))
	}
	for _, d := range endToEnd {
		line(d.name, m[d.name], d.unit)
	}
	lines = append(lines, fmt.Sprintf("-- %s seed %d, %s window, %d tasks ended in it; not in the JSON line:",
		r.w.name, r.seed, w.d, w.st.tasks))
	tps := w.tasksPerSecond()
	line("tasks_per_s", tps, "1/s")
	p50, _ := w.latency(50)
	line("latency_p50_ms", p50, "ms")
	p, enough := tailPercentile(w.pooled.n(), r.w.tailPct)
	tail, sliced := w.latency(p)
	line(fmt.Sprintf("latency_p%g_ms", p), tail, "ms")
	how := "pooled over the window"
	if sliced {
		how = "median over slices of each slice's percentile"
	}
	note := fmt.Sprintf("   (tail: %s; %d samples, %d beyond p%g in the pool)", how, w.pooled.n(), beyond(w.pooled.n(), p), p)
	if !enough {
		note += "; fewer than 10 beyond even the median"
	}
	lines = append(lines, note)
	if r.w.bytesPerTask > 0 {
		line("goodput_mib_s", tps*float64(r.w.bytesPerTask)/mib, "MiB/s")
		line("cpu_s_per_gib", cpuPerTask/1e6*gib/float64(r.w.bytesPerTask), "s/GiB")
	}
	line("setup_wall_s", r.setupWallS, "s")
	line("rss_peak_mib", w.rssPeakMiB, "MiB")
	line("error_ratio", ratio(float64(r.failed()), float64(r.attempted())), "ratio")
	return m, lines
}

// latency is percentile p of the window's latencies in ms. When every
// slice holds at least minBeyond samples beyond p it is the median over
// slices of each slice's percentile, so a stall that hits a few slices
// does not move it; otherwise it is the percentile of the pooled
// samples.
func (w *windowResult) latency(p float64) (float64, bool) {
	var s sample
	for _, l := range w.lat {
		if beyond(l.n(), p) < minBeyond {
			return w.pooled.pct(p), false
		}
		s.add(l.pct(p))
	}
	return s.summary().pct(50), true
}

// tasksPerSecond is the median over slices of credited tasks per
// second.
func (w *windowResult) tasksPerSecond() float64 {
	var s sample
	slice := w.d / windowSlices
	for _, c := range w.st.credit {
		s.add(perSecond(c, slice))
	}
	return s.summary().pct(50)
}

// sliceMedian is the median over slices of a process cost per credited
// task.
func (w *windowResult) sliceMedian(cost func(procDelta) float64) float64 {
	var s sample
	for k, p := range w.slices {
		s.add(ratio(cost(p), w.st.credit[k]))
	}
	return s.summary().pct(50)
}

// memPeakMiB is the median over slices of the per-slice peak of memory
// the Go runtime holds from the OS.
func (w *windowResult) memPeakMiB() float64 {
	var s sample
	for _, p := range w.heldPeak {
		s.add(float64(p) / mib)
	}
	return s.summary().pct(50)
}

// perLayer computes the traced run's layer metrics.
func (r *result) perLayer() map[string]float64 {
	w := r.traced
	tasks := float64(w.st.tasks)
	ms := time.Millisecond
	sub := durations(w.spans, "norns.submit_batch", ms).summary()
	await := durations(w.spans, "norns.await_terminal", ms).summary()
	nsub := durations(w.spans, "nornsctl.submit", ms).summary()
	nwait := durations(w.spans, "nornsctl.wait", ms).summary()
	var totalBytes float64
	if r.w.bytesPerTask > 0 {
		totalBytes = tasks * float64(r.w.bytesPerTask)
	}
	hits := float64(w.c1.cacheHits - w.c0.cacheHits)
	misses := float64(w.c1.cacheMisses - w.c0.cacheMisses)
	m := map[string]float64{
		"norns.submit_batch_ms.p50":   sub.pct(50),
		"norns.submit_batch_ms.p99":   sub.pct(99),
		"norns.await_terminal_ms.p50": await.pct(50),
		"norns.await_terminal_ms.p99": await.pct(99),
		"gateway.post_tasks_ms.p50":   durations(w.spans, "gateway.post_tasks", ms).summary().pct(50),
		"gateway.events_end_ms.p50":   durations(w.spans, "gateway.events_end", ms).summary().pct(50),
		"gateway.task_share":          ratio(float64(w.st.gatewayTasks), tasks),
		"nornsctl.submit_ms.p50":      nsub.pct(50),
		"nornsctl.wait_ms.p50":        nwait.pct(50),
		"nornsctl.wait_ms.p90":        nwait.pct(90),
		"client.self_share":           selfShare(w.spans),
		"urd.pending_tasks.mean":      w.pending.mean(),
		"urd.status_polls":            float64(w.c1.statusPolls - w.c0.statusPolls),
		"transfer.task_mib_s.p50":     w.st.taskMiBs.summary().pct(50),
		"transfer.fabric_byte_share":  ratio(float64(w.st.fabricBytes), totalBytes),
		"transfer.cache_byte_share":   ratio(float64(w.st.cacheBytes), totalBytes),
		"transfer.retries_per_task":   ratio(float64(w.st.retries), tasks),
		"cascache.hit_ratio":          ratio(hits, hits+misses),
		"cascache.evictions_per_task": ratio(float64(w.c1.cacheEvictions-w.c0.cacheEvictions), tasks),
		"mercury.breaker_trips":       float64(w.c1.breakerTrips - w.c0.breakerTrips),
		"process.gc_cycles_per_ktask": ratio(float64(w.proc.gcCycles)*1000, tasks),
		"process.gc_cpu_share":        w.proc.gcShare,
		"process.heap_peak_mib":       float64(w.heapPeak) / mib,
		"trace_overhead":              overhead(r.plain.tasksPerSecond(), w.tasksPerSecond()),
	}
	for k, v := range r.replays.metrics {
		m[k] = v
	}
	return m
}
