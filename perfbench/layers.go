package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// perLayer turns the traced window into the per-layer metrics: the
// self time of every span name, the layers' counters per operation,
// and the derived ratios. Every metric is printed on every workload; a
// call the workload never makes reads 0.
func (r *runner) perLayer(ws *[numWins]winResult, before, after snapshot, maxG gauges, tr *tracer) {
	ops := float64(ws[1].ops())
	spans := tr.all()
	self := selfTimes(spans)
	p50 := map[spanName]float64{}
	for n := spanName(1); n < numSpanNames; n++ { // spOp is not a layer
		h := self[n]
		if h == nil {
			h = new(hist)
		}
		p50[n] = float64(h.quantile(0.50)) / 1e3
		r.put(n.String()+".p50", p50[n], "us")
		r.put(n.String()+".p99", float64(h.quantile(0.99))/1e3, "us")
	}
	d := func(k string) float64 { return after.c[k] - before.c[k] }
	perOp := func(k string) float64 { return ratio(d(k), ops) }

	msTotal := d("core.ms_total_ns")
	r.put("core.ms_runq_share", ratio(d("core.ms_runq_ns"), msTotal), "fraction")
	r.put("core.ms_lock_share", ratio(d("core.ms_lock_ns"), msTotal), "fraction")
	r.put("core.ms_sleep_share", ratio(d("core.ms_sleep_ns"), msTotal), "fraction")
	r.put("core.shard_pops_per_op", perOp("core.shard_pops"), "count/op")
	r.put("core.shard_stolen_per_op", perOp("core.shard_stolen"), "count/op")
	r.put("core.pool_lwps", after.c["core.pool_lwps"], "count")
	r.put("core.growth_failures", d("core.growth_failures"), "count")

	r.put("tsync.lock_waits", perOp("tsync.lock_waits"), "count/op")
	var waits hist
	for _, w := range after.lockWaits {
		waits.add(int64(w))
	}
	r.put("tsync.lock_wait_us.p50", float64(waits.quantile(0.50))/1e3, "us")
	r.put("tsync.lock_wait_us.p99", float64(waits.quantile(0.99))/1e3, "us")

	r.put("sim.dispatches_per_op", perOp("sim.dispatches"), "count/op")
	r.put("sim.steals_per_op", perOp("sim.steals"), "count/op")
	r.put("sim.migrations_per_op", perOp("sim.migrations"), "count/op")
	r.put("sim.sys_ns_per_op", perOp("sim.sys_ns"), "ns/op")
	r.put("sim.user_ns_per_op", perOp("sim.user_ns"), "ns/op")
	r.put("sim.lwps_max", float64(maxG.lwps), "count")

	r.put("vfs.ready_per_poll", ratio(d("vfs.ready"), d("vfs.polls")), "count")
	r.put("vfs.deadline_misses", float64(ws[1].missed), "count")

	r.put("vm.committed_bytes_per_thread", ratio(float64(maxG.committed), float64(maxG.threads)), "bytes")
	r.put("vm.peak_committed_bytes", after.c["vm.peak_committed_bytes"], "bytes")
	r.put("vm.minor_faults_per_op", perOp("vm.minor_faults"), "count/op")

	r.put("trace.ring_events_per_op", perOp("trace.ring_events"), "count/op")
	r.put("trace.ring_torn", d("trace.ring_torn"), "count")
	r.put("trace.journal_bytes_per_op", perOp("trace.journal_bytes"), "bytes/op")
	r.put("chaos.decisions_per_op", perOp("chaos.decisions"), "count/op")
	r.put("ktime.ff_jumps_per_op", perOp("ktime.ff_jumps"), "count/op")
	r.put("ktime.ff_skipped_ms_per_op", perOp("ktime.ff_skipped_ns")/1e6, "ms/op")

	// The paper's ratios, from the p50s of this run's spans: each is
	// 0 on a workload that does not make both calls.
	r.put("paper.create_bound_over_unbound", ratio(p50[spSimCreateBound], p50[spCoreCreate]), "ratio")
	r.put("paper.sync_unbound_over_setjmp", ratio(p50[spTsyncSemaV], p50[spCoreSetjmp]), "ratio")
	r.put("paper.sync_xproc_over_unbound", ratio(p50[spUsyncSemaP], p50[spTsyncSemaP]), "ratio")

	r.put("bench.trace_overhead", ratio(ws[1].opsPerS(), ws[0].opsPerS()), "ratio")
	r.put("bench.traced_ops", ops, "count")

	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", r.name, r.seed))
	t0 := time.Now()
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	fmt.Printf("%d spans written to %s in %v\n", len(spans), path, time.Since(t0).Round(time.Millisecond))
}
