package trace

import (
	"sync"
	"testing"
	"time"
)

func TestRingsRecordAndSnapshot(t *testing.T) {
	var tick time.Duration
	r := NewRings(2, 64, func() time.Duration { tick += time.Microsecond; return tick })
	r.Record(0, EvDispatch, 1, 2, 0, 42)
	r.Record(1, EvDispatch, 1, 3, 0, 7)
	r.Record(-1, EvWakeup, 1, 2, 0, 0)
	r.Record(0, EvThreadRun, 1, 2, 9, 0)

	recs, dropped := r.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(recs) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has Seq %d; merge not ordered: %v", i, rec.Seq, recs)
		}
	}
	if recs[0].Kind != EvDispatch || recs[0].CPU != 0 || recs[0].LWP != 2 || recs[0].Arg != 42 {
		t.Fatalf("first record = %+v", recs[0])
	}
	if recs[2].CPU != -1 {
		t.Fatalf("unattributed record has CPU %d, want -1", recs[2].CPU)
	}
	if recs[3].TID != 9 {
		t.Fatalf("thread record TID = %d, want 9", recs[3].TID)
	}
	if got := r.Kinds(EvDispatch); len(got) != 2 {
		t.Fatalf("Kinds(EvDispatch) returned %d records, want 2", len(got))
	}
}

func TestRingsDropCounting(t *testing.T) {
	r := NewRings(1, 64, nil)
	const writes = 200
	for i := 0; i < writes; i++ {
		r.Record(0, EvDispatch, 1, 1, 0, uint64(i))
	}
	recs, dropped := r.Snapshot()
	if len(recs) != 64 {
		t.Fatalf("retained %d records, want capacity 64", len(recs))
	}
	if dropped != writes-64 {
		t.Fatalf("dropped = %d, want %d", dropped, writes-64)
	}
	// The retained set is the most recent writes: the smallest Arg
	// present must be writes-64.
	min := uint64(writes)
	for _, rec := range recs {
		if rec.Arg < min {
			min = rec.Arg
		}
	}
	if min != writes-64 {
		t.Fatalf("oldest retained Arg = %d, want %d", min, writes-64)
	}
}

func TestRingsNilSafe(t *testing.T) {
	var r *Rings
	r.Record(0, EvDispatch, 1, 1, 0, 0)
	if recs, dropped := r.Snapshot(); recs != nil || dropped != 0 {
		t.Fatalf("nil rings snapshot = %v, %d", recs, dropped)
	}
	if r.Dropped() != 0 || r.Torn() != 0 || r.NCPU() != 0 {
		t.Fatal("nil rings accessors not zero")
	}
}

// TestRingsConcurrent hammers the rings from several writers while a
// reader snapshots continuously; under -race this checks the seqlock
// discipline, and the assertions check no record is ever invented or
// torn. The unattributed case has every writer share one ring (cpu
// -1), so claims of different laps race for the same slots.
func TestRingsConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		cpu  func(w int) int
	}{
		{"per-cpu", func(w int) int { return w }},
		{"unattributed", func(int) int { return -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRings(4, 256, nil)
			const writers = 4
			const perWriter = 5000
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(writers)
			for w := 0; w < writers; w++ {
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						r.Record(tc.cpu(w), EvDispatch, w+1, i, 0, uint64(i))
					}
				}(w)
			}
			var readerWG sync.WaitGroup
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					recs, _ := r.Snapshot()
					for _, rec := range recs {
						if rec.Kind != EvDispatch || rec.PID < 1 || rec.PID > writers ||
							int(rec.CPU) != tc.cpu(int(rec.PID)-1) || uint64(rec.LWP) != rec.Arg {
							t.Errorf("corrupt record observed: %+v", rec)
							return
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			readerWG.Wait()

			recs, dropped := r.Snapshot()
			if got := uint64(len(recs)) + dropped + r.Torn(); got < writers*perWriter {
				t.Fatalf("retained+dropped+torn = %d, want >= %d", got, writers*perWriter)
			}
		})
	}
}

// TestKindsFilter: Kinds keeps exactly the requested kinds, in Seq
// order, lifecycle kinds on the unattributed ring included.
func TestKindsFilter(t *testing.T) {
	r := NewRings(1, 64, nil)
	r.Record(-1, EvProcCreate, 2, 0, 0, 1)
	r.Record(0, EvDispatch, 2, 1, 0, 30)
	r.Record(-1, EvProcExit, 2, 0, 0, 0)
	r.Record(-1, EvLWPExit, 2, 1, 0, 0)
	got := r.Kinds(EvProcCreate, EvProcExit)
	if len(got) != 2 || got[0].Kind != EvProcCreate || got[1].Kind != EvProcExit || got[0].Seq > got[1].Seq {
		t.Fatalf("Kinds(proccreate, procexit) = %v", got)
	}
}

// TestTimestampsUseNowFunc: records are stamped from the now func;
// a nil now stamps zero.
func TestTimestampsUseNowFunc(t *testing.T) {
	var now time.Duration
	r := NewRings(1, 64, func() time.Duration { return now })
	r.Record(0, EvDispatch, 1, 1, 0, 0)
	now = 5 * time.Second
	r.Record(-1, EvFork, 1, 1, 0, 2)
	if recs, _ := r.Snapshot(); recs[0].When != 0 || recs[1].When != 5*time.Second {
		t.Fatalf("timestamps = %v, %v", recs[0].When, recs[1].When)
	}
	z := NewRings(1, 64, nil)
	z.Record(0, EvDispatch, 1, 1, 0, 0)
	if recs, _ := z.Snapshot(); recs[0].When != 0 {
		t.Fatalf("nil now stamped %v", recs[0].When)
	}
}

// TestDefaultCapacity: each ring keeps at least 64 events and rounds
// its capacity up to a power of two.
func TestDefaultCapacity(t *testing.T) {
	for _, tc := range []struct{ perCPU, want int }{{0, 64}, {64, 64}, {65, 128}, {1000, 1024}} {
		r := NewRings(1, tc.perCPU, nil)
		for i := 0; i < 4*tc.want; i++ {
			r.Record(0, EvDispatch, 1, 1, 0, 0)
		}
		if recs, dropped := r.Snapshot(); len(recs) != tc.want || dropped != uint64(3*tc.want) {
			t.Fatalf("perCPU %d: retained %d, dropped %d; want %d, %d", tc.perCPU, len(recs), dropped, tc.want, 3*tc.want)
		}
	}
}
