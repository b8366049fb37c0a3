// Command perfbench is the repository's end-to-end benchmark. It
// drives the public sunosmt/mt API through one of four closed-loop
// workloads, checks the workload's outputs, and prints its metrics:
//
//	perfbench --workload pipeline --seed 1 --seconds 10 --trace 0
//
// Each run boots five fresh instances of the workload. With --trace 0
// it measures every instance for a fifth of --seconds and prints the
// end-to-end metrics. With --trace 1 it measures the last instance,
// untraced and then traced, and prints the per-layer metrics of the
// traced window. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// The exit status is 1 when a correctness check failed, 2 on a usage
// or set-up error. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Run-wide limits. A run must end within three minutes whatever the
// program under test does.
const (
	setups       = 5                 // instances per run; setup_s is the median of their set-ups
	runDeadline  = 160 * time.Second // hard end of the whole run
	stallAfter   = 10 * time.Second  // no operation completing for this long is a stall
	finishBudget = 20 * time.Second  // time one instance may take to drain and check
	spanBudget   = 1 << 20           // spans kept in memory in a traced run
	sampleEvery  = 5 * time.Millisecond
	subWindows   = 10 // parts of an untraced run, over all instances; metrics are their medians
)

// workload describes one benchmark workload.
type workload struct {
	// setup boots the simulated system, starts the closed-loop
	// clients and returns once warm-up is done.
	setup func(e *env) (instance, error)
	// deadline is the operation deadline: an operation that takes
	// longer counts as failed.
	deadline time.Duration
}

var workloads = map[string]workload{
	"pipeline":    {setupPipeline, time.Second},
	"server":      {setupServer, time.Second},
	"churn":       {setupChurn, time.Second},
	"chaos-sweep": {setupChaosSweep, 5 * time.Second},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pipeline, server, churn or chaos-sweep")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window(s), in seconds")
	traced := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload pipeline|server|churn|chaos-sweep --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &runner{
		name:    *name,
		wl:      wl,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		clock:   &clock{base: time.Now()},
		ncpu:    runtime.NumCPU(),
		outDir:  filepath.Join(".bench_build", "perfbench"),
		metrics: map[string]metric{},
		checks:  &checks{},
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d ncpu %d\n", r.name, r.seed, *seconds, *traced, r.ncpu)
	res, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type runner struct {
	name    string
	wl      workload
	seed    uint64
	window  time.Duration
	traced  bool
	clock   *clock
	ncpu    int
	outDir  string
	metrics map[string]metric
	checks  *checks
}

func (r *runner) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
}

func (r *runner) run() (*result, error) {
	// Each of the set-ups boots a fresh instance. An untraced run
	// measures every instance for an equal share of the window, so a
	// run's figures are medians over several booted systems, not one.
	// A traced run measures only the last instance: an untraced
	// window, then a traced one.
	var (
		ws     [numWins]winResult
		setupT []float64
		before snapshot
		after  snapshot
		maxG   gauges
		tr     *tracer
		stall  string
		lost   int64 // operations in flight when the load stalled
	)
	for i := 0; i < setups && stall == "" && r.checks.count() == 0; i++ {
		last := i == setups-1
		g := newGate(r.clock, r.wl.deadline, r.checks)
		e := &env{seed: r.seed, ncpu: r.ncpu, clock: r.clock, gate: g}
		if last && r.traced {
			tr = newTracer(r.clock, spanBudget)
			e.tr = tr
		}
		t0 := time.Now()
		inst, err := r.wl.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", r.name, i, err)
		}
		setupT = append(setupT, time.Since(t0).Seconds())

		first := [numWins]int{len(ws[0].subs), len(ws[1].subs)}
		switch {
		case !r.traced:
			stall = r.measure(inst, g, 0, r.window/setups, subWindows/setups, &ws[0], nil, nil)
		case last:
			stall = r.measure(inst, g, 0, r.window/2, 1, &ws[0], nil, nil)
			if stall == "" {
				before = inst.counters()
				tr.on.Store(true)
				stall = r.measure(inst, g, 1, r.window/2, 1, &ws[1], tr, &maxG)
				tr.on.Store(false)
				after = inst.counters()
			}
		}
		g.win.Store(winStopped)
		lost = g.issued.Load() - g.ended.Load()
		if stall == "" {
			stall = r.finish(inst)
		}
		for w := range ws {
			g.window(w, &ws[w], first[w])
		}
		if stall != "" {
			// The run ends here with its counts. Operations still
			// in flight are reported failed; the goroutine dump
			// shows where the simulated threads sleep.
			g.abort.Store(true)
			path := filepath.Join(r.outDir, fmt.Sprintf("stall-%s-seed%d.txt", r.name, r.seed))
			if err := dumpGoroutines(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: goroutine dump:", err)
			}
			fmt.Printf("stall: %s; %d operation(s) in flight counted failed; goroutines in %s\n", stall, lost, path)
		}
	}

	last := &ws[0]
	if r.traced {
		if len(ws[1].subs) > 0 {
			r.perLayer(&ws, before, after, maxG, tr)
			last = &ws[1]
		}
	} else if len(ws[0].subs) > 0 {
		r.endToEnd(&ws[0], median(setupT))
	}
	if stall != "" {
		last.failed += lost
	}
	return r.report(last, stall != ""), nil
}

// measure runs window w of an instance for length, in subs equal
// sub-windows appended to wr, and returns why the load stalled, if it
// did. In a traced window it also tracks the gauges' maxima and ends
// early when the span budget is spent.
func (r *runner) measure(inst instance, g *gate, w int, length time.Duration, subs int, wr *winResult, tr *tracer, maxG *gauges) string {
	g.win.Store(int32(w))
	lastEnded, lastProgress := g.ended.Load(), r.clock.now()
	for k := 0; k < subs; k++ {
		g.sub.Store(int32(k))
		t0 := r.clock.now()
		cpu0, alloc0 := hostUsage()
		end := t0 + int64(length)/int64(subs)
		stall := ""
		for now := t0; now < end && stall == ""; now = r.clock.now() {
			time.Sleep(min(sampleEvery, time.Duration(end-now)))
			if n := g.ended.Load(); n != lastEnded {
				lastEnded, lastProgress = n, r.clock.now()
			} else if time.Duration(r.clock.now()-lastProgress) > stallAfter {
				stall = fmt.Sprintf("no operation completed for %v", stallAfter)
			}
			if tr != nil {
				s := inst.sample()
				maxG.lwps = max(maxG.lwps, s.lwps)
				maxG.threads = max(maxG.threads, s.threads)
				maxG.committed = max(maxG.committed, s.committed)
				if tr.full() {
					end = 0
				}
			}
		}
		cpu1, alloc1 := hostUsage()
		wr.subs = append(wr.subs, subWindow{ns: r.clock.now() - t0, cpu: cpu1 - cpu0, allocs: alloc1 - alloc0})
		if stall != "" {
			return stall
		}
	}
	return ""
}

// finish stops an instance's load, drains it and runs its checks, and
// returns why that stalled, if it did.
func (r *runner) finish(inst instance) string {
	done := make(chan error, 1)
	go func() { done <- inst.finish(r.deadline(finishBudget)) }()
	select {
	case err := <-done:
		if err != nil {
			return err.Error()
		}
		return ""
	case <-time.After(finishBudget + time.Second):
		return "the load did not drain by its deadline"
	}
}

// deadline returns the harness time by which a step of length d must
// end, capped by the run's hard deadline.
func (r *runner) deadline(d time.Duration) time.Duration {
	return min(time.Duration(r.clock.now())+d, runDeadline)
}

func (r *runner) report(w *winResult, stalled bool) *result {
	res := &result{Correct: true, Metrics: r.metrics}
	res.Attempted = w.ops() + w.failed
	res.Failed = w.failed
	fmt.Printf("fail_ratio %.6g fraction (%d failed of %d attempted, %d missed the %v deadline)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted, w.missed, r.wl.deadline)
	if res.Attempted == 0 {
		res.Attempted = 1 // nothing ran: one failed attempt
		res.Failed = 1
	}
	if n, wrong := r.checks.list(); n > 0 {
		res.Correct = false
		fmt.Printf("check failed: %d check(s) failed: %s\n", n, strings.Join(wrong, "; "))
	}
	if stalled {
		fmt.Println("end-of-run checks skipped: the run stalled")
	}
	return res
}

// subWindow is one measured stretch of a window: its length, the host
// process's CPU time and heap allocations over it, and the latencies
// of the operations that ended in it.
type subWindow struct {
	ns     int64
	cpu    time.Duration
	allocs uint64
	lat    hist
}

// winResult is one measured window, as its sub-windows, with the
// operations that failed or missed their deadline.
type winResult struct {
	subs           []subWindow
	failed, missed int64
}

// ops is the number of operations that succeeded in the window.
func (w *winResult) ops() int64 {
	var n int64
	for k := range w.subs {
		n += w.subs[k].lat.n
	}
	return n
}

func (w *winResult) opsPerS() float64 {
	var ns int64
	for k := range w.subs {
		ns += w.subs[k].ns
	}
	return ratio(float64(w.ops()), float64(ns)/1e9)
}

// hostUsage returns the process's user+sys CPU time and its count of
// heap allocations so far.
func hostUsage() (time.Duration, uint64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ms.Mallocs
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// endToEnd computes each end-to-end metric per sub-window and reports
// its median over the sub-windows, so that a burst of host noise, or
// one instance that behaves unlike the others, moves the result less.
func (r *runner) endToEnd(w *winResult, setupS float64) {
	var opsPerS, p50, p99, cpu, allocs []float64
	fewest := int64(-1)
	for k := range w.subs {
		sw := &w.subs[k]
		ops := float64(sw.lat.n)
		opsPerS = append(opsPerS, ops/(float64(sw.ns)/1e9))
		p50 = append(p50, float64(sw.lat.quantile(0.50))/1e3)
		p99 = append(p99, float64(sw.lat.quantile(0.99))/1e3)
		cpu = append(cpu, float64(sw.cpu)/1e3/ops)
		allocs = append(allocs, float64(sw.allocs)/ops)
		if fewest < 0 || sw.lat.n < fewest {
			fewest = sw.lat.n
		}
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"ops_per_s", opsPerS}, {"op_p50_us", p50}, {"op_p99_us", p99}, {"host_cpu_us_per_op", cpu}} {
		fmt.Printf("%s by sub-window: %.4g\n", m.name, m.xs)
	}
	fmt.Printf("%d operations in %d sub-windows; the fewest in one sub-window: %d\n", w.ops(), len(w.subs), fewest)
	r.put("ops_per_s", median(opsPerS), "op/s")
	r.put("op_p50_us", median(p50), "us")
	r.put("op_p99_us", median(p99), "us")
	r.put("host_cpu_us_per_op", median(cpu), "us")
	r.put("host_allocs_per_op", median(allocs), "allocs")
	r.put("host_rss_peak_mb", peakRSSMiB(), "MiB")
	r.put("setup_s", setupS, "s")
}

func dumpGoroutines(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
