package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	j := NewJournal()
	j.Meta["chaos-config"] = `{"Seed":42,"Preempt":100}`
	j.Meta["workload"] = "broken mutex 2x150"
	j.Decisions = []Decision{
		{Site: "sim.preempt", N: 1, Value: 1},
		{Site: "sim.pick", N: 4, Value: -1},
		{Site: "ktime.jitter", N: 1000000, Value: 999000},
	}
	j.Events = []Record{
		{Seq: 1, When: 5, Kind: EvDispatch, CPU: 0, PID: 1, LWP: 2, TID: 0, Arg: 30},
		{Seq: 2, When: 9, Kind: EvWakeup, CPU: -1, PID: 1, LWP: 3, TID: 0, Arg: 0},
	}
	// Every lifecycle kind survives the round trip, extreme fields
	// included.
	for k := EvProcCreate; k < numEventKinds; k++ {
		j.Events = append(j.Events, Record{Kind: k, CPU: -1, PID: 1<<31 - 1, LWP: -1 << 31, TID: 7, Arg: 1<<64 - 1})
	}
	var buf bytes.Buffer
	if err := j.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Meta) != 2 || got.Meta["chaos-config"] != j.Meta["chaos-config"] ||
		got.Meta["workload"] != j.Meta["workload"] {
		t.Fatalf("meta round trip: %+v", got.Meta)
	}
	if len(got.Decisions) != 3 {
		t.Fatalf("decisions round trip: %+v", got.Decisions)
	}
	for i, d := range j.Decisions {
		if got.Decisions[i] != d {
			t.Fatalf("decision %d: %+v != %+v", i, got.Decisions[i], d)
		}
	}
	if len(got.Events) != len(j.Events) {
		t.Fatalf("events round trip: %+v", got.Events)
	}
	// Seq and When are deliberately not serialized.
	if div := FirstEventDivergence(got.Events, j.Events); div != -1 {
		t.Fatalf("round-tripped events diverge at %d", div)
	}
	// Serialization is deterministic.
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialized journal differs byte for byte")
	}
}

func TestFirstEventDivergence(t *testing.T) {
	a := []Record{
		{Kind: EvDispatch, CPU: 0, PID: 1, LWP: 1},
		{Kind: EvPreempt, CPU: 0, PID: 1, LWP: 1},
	}
	same := []Record{
		{Seq: 99, When: 123, Kind: EvDispatch, CPU: 0, PID: 1, LWP: 1},
		{Seq: 100, When: 456, Kind: EvPreempt, CPU: 0, PID: 1, LWP: 1},
	}
	if d := FirstEventDivergence(a, same); d != -1 {
		t.Fatalf("identical schedules diverge at %d", d)
	}
	diff := []Record{
		{Kind: EvDispatch, CPU: 0, PID: 1, LWP: 1},
		{Kind: EvPreempt, CPU: 1, PID: 1, LWP: 1},
	}
	if d := FirstEventDivergence(a, diff); d != 1 {
		t.Fatalf("divergence at %d, want 1", d)
	}
	if d := FirstEventDivergence(a, a[:1]); d != 1 {
		t.Fatalf("prefix divergence at %d, want 1", d)
	}
}

func TestReadJournalRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not a journal\n",
		"sunosmt-journal v1\nx what\n",
		"sunosmt-journal v1\nd site 1\n",
		"sunosmt-journal v1\ne 1 2 3\n",
	} {
		if _, err := ReadJournal(bytes.NewReader([]byte(in))); err == nil {
			t.Fatalf("ReadJournal accepted %q", in)
		}
	}
	// Out-of-range event fields are rejected with their line number,
	// not silently truncated.
	for _, ev := range []string{
		"e 0 0 1 1 0 0",   // EvNone
		"e 256 0 1 1 0 0", // wraps to EvNone as a uint8
		fmt.Sprintf("e %d 0 1 1 0 0", numEventKinds), // one past the last kind
		"e 1 2147483648 1 1 0 0",                     // CPU
		"e 1 0 -2147483649 1 0 0",                    // PID
		"e 1 0 1 4294967297 0 0",                     // LWP
		"e 1 0 1 1 2147483648 0",                     // TID
	} {
		in := "sunosmt-journal v1\ne 1 0 1 1 0 0\n" + ev + "\n"
		_, err := ReadJournal(bytes.NewReader([]byte(in)))
		if err == nil {
			t.Fatalf("ReadJournal accepted %q", ev)
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("error for %q does not name line 3: %v", ev, err)
		}
	}
}
