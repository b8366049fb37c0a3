package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestSelfTimesSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{name: spOp, start: 0, end: 100, parent: -1},
		{name: spCoreCreate, start: 10, end: 30, parent: 0},
		{name: spCoreReap, start: 20, end: 50, parent: 0},      // overlaps the create
		{name: spVfsPoll, start: 90, end: 120, parent: 0},      // runs past its parent's end
		{name: spVfsRead, start: 12, end: 18, parent: 1},       // a grandchild: inside create only
		{name: spVfsWrite, start: 60, end: 0, parent: 0},       // never ended: ignored
		{name: spTsyncSemaP, start: 200, end: 210, parent: -1}, // a second root
	}
	self := selfTimes(spans)
	want := map[spanName]int64{
		spOp:         100 - 40 - 10, // children cover [10,50) and [90,100)
		spCoreCreate: 20 - 6,
		spCoreReap:   30,
		spVfsPoll:    30,
		spVfsRead:    6,
		spTsyncSemaP: 10,
	}
	for n, w := range want {
		if h := self[n]; h == nil || h.n != 1 || h.quantile(1) != w {
			t.Errorf("self time of %v = %v, want %d", n, h, w)
		}
	}
	if _, ok := self[spVfsWrite]; ok {
		t.Errorf("an open span got a self time")
	}
}

func TestSpanBuffersNestAndRebase(t *testing.T) {
	tr := newTracer(&clock{base: time.Now()}, 100)
	tr.on.Store(true)
	a, b := tr.buf(), tr.buf()
	outer := a.begin(spOp, 7)
	inner := a.begin(spCoreYield, 7)
	a.end(inner)
	a.end(outer)
	x := b.begin(spOp, 8)
	y := b.begin(spTsyncSemaV, 8)
	b.end(y)
	b.end(x)
	all := tr.all()
	if len(all) != 4 {
		t.Fatalf("got %d spans, want 4", len(all))
	}
	if all[0].parent != -1 || all[1].parent != 0 || all[2].parent != -1 || all[3].parent != 2 {
		t.Errorf("parents %d %d %d %d, want -1 0 -1 2", all[0].parent, all[1].parent, all[2].parent, all[3].parent)
	}
	tr.on.Store(false)
	if s := a.begin(spOp, 9); s != -1 {
		t.Errorf("begin with tracing off = %d, want -1", s)
	}
	var nilBuf *spanBuf
	nilBuf.end(nilBuf.begin(spOp, 1)) // an untraced run's buffers are nil
}

func TestSpanBudgetStopsRecording(t *testing.T) {
	tr := newTracer(&clock{base: time.Now()}, 2)
	tr.on.Store(true)
	b := tr.buf()
	for i := 0; i < 5; i++ {
		b.end(b.begin(spOp, uint64(i)))
	}
	if n := len(tr.all()); n != 2 || !tr.full() {
		t.Errorf("kept %d spans (full %v), want 2 and full", n, tr.full())
	}
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	r := &runner{wl: workload{deadline: time.Second}, metrics: map[string]metric{}, checks: &checks{}}
	g := newGate(&clock{base: time.Now()}, time.Second, r.checks)
	if res := r.report(&winResult{}, false); !res.Correct {
		t.Fatalf("a run with no failed check reported incorrect")
	}
	g.fail("table sums to %d, writes applied %d", 1, 2)
	if res := r.report(&winResult{}, false); res.Correct {
		t.Errorf("a run with a failed check reported correct")
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// with its correctness checks, and checks that each run prints exactly
// the metrics BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	for _, name := range []string{"pipeline", "server", "churn", "chaos-sweep"} {
		for _, traced := range []bool{false, true} {
			r := &runner{
				name: name, wl: workloads[name], seed: 3, window: 500 * time.Millisecond,
				traced: traced, clock: &clock{base: time.Now()}, ncpu: runtime.NumCPU(),
				outDir: t.TempDir(), metrics: map[string]metric{}, checks: &checks{},
			}
			res, err := r.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d attempted", name, traced, res.Correct, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			w := append([]string(nil), want...)
			sort.Strings(w)
			if len(got) != len(w) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json declares %d", name, traced, len(got), len(w))
				continue
			}
			for i := range got {
				if got[i] != w[i] {
					t.Errorf("%s traced=%v: printed metric %q, declared %q", name, traced, got[i], w[i])
					break
				}
			}
		}
	}
}

// TestHistQuantiles checks the nearest-rank percentiles the benchmark
// reports, exact below 1024 ns and within 0.2% above.
func TestHistQuantiles(t *testing.T) {
	var h hist
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("quantile of an empty histogram = %d, want 0", got)
	}
	for v := int64(100); v >= 1; v-- {
		h.add(v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := h.quantile(c.q); got != c.want {
			t.Errorf("q%.3f of 1..100 = %d, want %d", c.q, got, c.want)
		}
	}
	for _, v := range []int64{1023, 1024, 5000, 123456, 98765432, 1 << 39} {
		got := histValue(histIndex(v))
		if d := float64(got-v) / float64(v); d < -0.002 || d > 0.002 {
			t.Errorf("%d reads back as %d", v, got)
		}
	}
	var a, b hist
	a.add(10)
	b.add(20)
	b.add(30)
	a.merge(&b)
	if a.n != 3 || a.quantile(1) != 30 {
		t.Errorf("merged histogram has %d samples, max %d", a.n, a.quantile(1))
	}
}
