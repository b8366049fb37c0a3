package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// pfDecode parses the export back and returns the traceEvents array.
func pfDecode(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return top.TraceEvents
}

func pfFilter(evs []map[string]any, ph, name string) []map[string]any {
	var out []map[string]any
	for _, e := range evs {
		if e["ph"] == ph && (name == "" || e["name"] == name) {
			out = append(out, e)
		}
	}
	return out
}

func TestWritePerfetto(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	recs := []Record{
		{Seq: 1, When: ms(1), Kind: EvWakeup, CPU: -1, PID: 1, LWP: 2},
		{Seq: 2, When: ms(2), Kind: EvDispatch, CPU: 0, PID: 1, LWP: 2, Arg: 30},
		{Seq: 3, When: ms(3), Kind: EvThreadRun, CPU: 0, PID: 1, LWP: 2, TID: 7, Arg: 1},
		{Seq: 4, When: ms(5), Kind: EvThreadPark, CPU: 0, PID: 1, LWP: 2, TID: 7, Arg: 2},
		{Seq: 5, When: ms(6), Kind: EvPreempt, CPU: 0, PID: 1, LWP: 2},
		{Seq: 6, When: ms(7), Kind: EvSteal, CPU: 1, PID: 1, LWP: 3, Arg: 0},
		{Seq: 7, When: ms(7), Kind: EvDispatch, CPU: 1, PID: 1, LWP: 3, Arg: 30},
		{Seq: 8, When: ms(9), Kind: EvFastForward, CPU: -1, Arg: uint64(time.Hour)},
		{Seq: 9, When: ms(10), Kind: EvThreadRun, CPU: 1, PID: 1, LWP: 3, TID: 7},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, recs); err != nil {
		t.Fatal(err)
	}
	evs := pfDecode(t, buf.Bytes())

	// Track metadata: a CPUs process with cpu 0 and cpu 1 rows, a
	// wakeups row, and proc/thread names for (1, 7).
	names := map[string]bool{}
	for _, e := range pfFilter(evs, "M", "") {
		if args, ok := e["args"].(map[string]any); ok {
			if n, ok := args["name"].(string); ok {
				names[n] = true
			}
		}
	}
	for _, want := range []string{"CPUs", "cpu 0", "cpu 1", "wakeups", "proc 1", "thread 7"} {
		if !names[want] {
			t.Errorf("missing track name %q (have %v)", want, names)
		}
	}

	// The cpu 0 on-CPU slice runs from the dispatch at 2ms to the
	// preempt at 6ms.
	cpu0 := pfFilter(evs, "X", "pid 1 lwp 2")
	if len(cpu0) != 1 {
		t.Fatalf("on-CPU slices for lwp 2: %v", cpu0)
	}
	if cpu0[0]["ts"].(float64) != 2000 || cpu0[0]["dur"].(float64) != 4000 {
		t.Fatalf("on-CPU slice ts/dur = %v/%v, want 2000/4000", cpu0[0]["ts"], cpu0[0]["dur"])
	}

	// Thread 7 has a run slice (3ms..5ms) carrying the pop choice,
	// then a sleeping park slice (5ms..10ms) cut by its next run.
	run := pfFilter(evs, "X", "run")
	if len(run) != 2 {
		t.Fatalf("run slices: %v", run)
	}
	if run[0]["ts"].(float64) != 3000 || run[0]["dur"].(float64) != 2000 {
		t.Fatalf("first run slice ts/dur = %v/%v, want 3000/2000", run[0]["ts"], run[0]["dur"])
	}
	if args := run[0]["args"].(map[string]any); args["popped_from_shard"].(float64) != 0 {
		t.Fatalf("run slice args = %v, want popped_from_shard 0", args)
	}
	if _, ok := run[1]["args"].(map[string]any)["popped_from_shard"]; ok {
		t.Fatal("Arg 0 (no pop info) still produced popped_from_shard")
	}
	park := pfFilter(evs, "X", "sleeping")
	if len(park) != 1 || park[0]["ts"].(float64) != 5000 || park[0]["dur"].(float64) != 5000 {
		t.Fatalf("park slices: %v", park)
	}
	if park[0]["cname"] != "thread_state_sleeping" {
		t.Fatalf("park cname = %v", park[0]["cname"])
	}

	// The wakeup opens a flow that terminates at lwp 2's dispatch on
	// cpu 0, with matching ids.
	starts := pfFilter(evs, "s", "wakeup")
	ends := pfFilter(evs, "f", "wakeup")
	if len(starts) != 1 || len(ends) != 1 {
		t.Fatalf("flow events: %d starts, %d ends", len(starts), len(ends))
	}
	if starts[0]["id"] != ends[0]["id"] {
		t.Fatalf("flow ids differ: %v vs %v", starts[0]["id"], ends[0]["id"])
	}
	if ends[0]["tid"].(float64) != 0 || ends[0]["ts"].(float64) != 2000 {
		t.Fatalf("flow end = %v, want tid 0 at ts 2000", ends[0])
	}

	// Instants: preempt and steal on their CPU rows, the fast-forward
	// jump as a global instant.
	if p := pfFilter(evs, "i", "preempt"); len(p) != 1 || p[0]["tid"].(float64) != 0 {
		t.Fatalf("preempt instants: %v", p)
	}
	if s := pfFilter(evs, "i", "steal"); len(s) != 1 || s[0]["tid"].(float64) != 1 {
		t.Fatalf("steal instants: %v", s)
	}
	ffi := pfFilter(evs, "i", "fast-forward +1h0m0s")
	if len(ffi) != 1 || ffi[0]["s"] != "g" {
		t.Fatalf("fast-forward instants: %v", ffi)
	}
}

// TestWritePerfettoLifecycle: every lifecycle kind exports as one
// process-scoped instant named by the kind, on its process's track,
// carrying its lwp, tid and arg unchanged.
func TestWritePerfettoLifecycle(t *testing.T) {
	var recs []Record
	for k := EvProcCreate; k < numEventKinds; k++ {
		recs = append(recs, Record{Seq: uint64(k), When: time.Duration(k) * time.Millisecond,
			Kind: k, CPU: -1, PID: 4, LWP: 2, TID: 3, Arg: uint64(k) + 100})
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, recs); err != nil {
		t.Fatal(err)
	}
	evs := pfDecode(t, buf.Bytes())
	for _, r := range recs {
		got := pfFilter(evs, "i", r.Kind.String())
		if len(got) != 1 || got[0]["s"] != "p" || got[0]["pid"].(float64) != 4 || got[0]["ts"].(float64) != pfTS(r.When) ||
			fmt.Sprint(got[0]["args"]) != fmt.Sprintf("map[arg:%d lwp:2 tid:3]", r.Arg) {
			t.Fatalf("%v instants = %v", r.Kind, got)
		}
	}
}

func TestWritePerfettoEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if evs := pfDecode(t, buf.Bytes()); len(pfFilter(evs, "X", "")) != 0 {
		t.Fatalf("slices from an empty snapshot: %v", evs)
	}
}
