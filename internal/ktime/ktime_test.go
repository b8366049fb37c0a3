package ktime

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestManualNowStartsAtZero(t *testing.T) {
	m := NewManual()
	if got := m.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestManualAdvanceMovesNow(t *testing.T) {
	m := NewManual()
	m.Advance(3 * time.Second)
	if got := m.Now(); got != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", got)
	}
	m.Advance(0)
	if got := m.Now(); got != 3*time.Second {
		t.Fatalf("Now() after Advance(0) = %v, want 3s", got)
	}
}

func TestManualNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative Advance")
		}
	}()
	NewManual().Advance(-time.Second)
}

func TestManualTimerFiresAtDeadline(t *testing.T) {
	m := NewManual()
	var fired atomic.Bool
	AfterFunc(m, 10*time.Millisecond, func() { fired.Store(true) })
	m.Advance(9 * time.Millisecond)
	if fired.Load() {
		t.Fatal("timer fired before deadline")
	}
	m.Advance(time.Millisecond)
	if !fired.Load() {
		t.Fatal("timer did not fire at deadline")
	}
}

func TestManualTimerSeesDeadlineTime(t *testing.T) {
	m := NewManual()
	var at time.Duration
	AfterFunc(m, 10*time.Millisecond, func() { at = m.Now() })
	m.Advance(time.Second)
	if at != 10*time.Millisecond {
		t.Fatalf("callback observed Now()=%v, want 10ms", at)
	}
}

func TestManualTimersFireInDeadlineOrder(t *testing.T) {
	m := NewManual()
	var order []int
	AfterFunc(m, 30*time.Millisecond, func() { order = append(order, 3) })
	AfterFunc(m, 10*time.Millisecond, func() { order = append(order, 1) })
	AfterFunc(m, 20*time.Millisecond, func() { order = append(order, 2) })
	m.Advance(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestManualEqualDeadlinesFIFO(t *testing.T) {
	m := NewManual()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		AfterFunc(m, 5*time.Millisecond, func() { order = append(order, i) })
	}
	m.Advance(5 * time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-deadline order = %v, want ascending", order)
		}
	}
}

func TestManualStopPreventsFire(t *testing.T) {
	m := NewManual()
	var fired atomic.Bool
	tm := AfterFunc(m, time.Millisecond, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop() = false on armed timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	m.Advance(time.Second)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestManualStopAfterFire(t *testing.T) {
	m := NewManual()
	tm := AfterFunc(m, time.Millisecond, func() {})
	m.Advance(time.Millisecond)
	if tm.Stop() {
		t.Fatal("Stop() = true after fire, want false")
	}
}

func TestManualTimerArmedInsideCallback(t *testing.T) {
	m := NewManual()
	var second atomic.Bool
	AfterFunc(m, time.Millisecond, func() {
		AfterFunc(m, time.Millisecond, func() { second.Store(true) })
	})
	m.Advance(10 * time.Millisecond)
	if !second.Load() {
		t.Fatal("timer armed inside a callback did not fire within the same Advance")
	}
}

func TestManualPendingTimers(t *testing.T) {
	m := NewManual()
	a := AfterFunc(m, time.Millisecond, func() {})
	AfterFunc(m, 2*time.Millisecond, func() {})
	if got := m.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers() = %d, want 2", got)
	}
	a.Stop()
	if got := m.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers() after Stop = %d, want 1", got)
	}
	m.Advance(time.Hour)
	if got := m.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers() after fire = %d, want 0", got)
	}
}

func TestManualConcurrentAfterFunc(t *testing.T) {
	m := NewManual()
	var count atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				AfterFunc(m, time.Duration(j)*time.Millisecond, func() { count.Add(1) })
			}
		}()
	}
	wg.Wait()
	m.Advance(time.Second)
	if count.Load() != 50*20 {
		t.Fatalf("fired %d timers, want %d", count.Load(), 50*20)
	}
}

func TestRealClockAdvances(t *testing.T) {
	r := NewReal()
	t0 := r.Now()
	time.Sleep(2 * time.Millisecond)
	if r.Now() <= t0 {
		t.Fatal("real clock did not advance")
	}
}

func TestRealAfterFunc(t *testing.T) {
	r := NewReal()
	ch := make(chan struct{})
	AfterFunc(r, time.Millisecond, func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("real timer did not fire")
	}
}

func TestSleepOnManualClock(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		Sleep(m, 100*time.Millisecond)
		close(done)
	}()
	// Wait until the sleeper has armed its timer.
	for m.PendingTimers() == 0 {
		time.Sleep(time.Microsecond)
	}
	m.Advance(100 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

// Property: for any sequence of timer durations, advancing past the
// maximum fires all of them, and the observed fire order is sorted by
// deadline.
func TestManualFireOrderProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		m := NewManual()
		type rec struct{ when time.Duration }
		var mu sync.Mutex
		var fires []rec
		var max time.Duration
		for _, d := range ds {
			dd := time.Duration(d) * time.Microsecond
			if dd > max {
				max = dd
			}
			AfterFunc(m, dd, func() {
				mu.Lock()
				fires = append(fires, rec{m.Now()})
				mu.Unlock()
			})
		}
		m.Advance(max + time.Second)
		if len(fires) != len(ds) {
			return false
		}
		for i := 1; i < len(fires); i++ {
			if fires[i].when < fires[i-1].when {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTimerResetRearms: on every clock, Reset moves a pending arming
// (reporting true) or re-arms a fired timer (reporting false), and
// each arming that expires calls the function exactly once.
func TestTimerResetRearms(t *testing.T) {
	clocks := map[string]Clock{
		"real":        NewReal(),
		"fastforward": NewFastForward(), // no idle predicate: never leaps
		"jittered":    NewJittered(NewReal(), func(d time.Duration) time.Duration { return d }),
	}
	for name, c := range clocks {
		t.Run(name, func(t *testing.T) {
			ch := make(chan int, 4)
			tm := c.NewTimer(func() { ch <- 1 })
			if tm.Reset(time.Hour) {
				t.Fatal("first Reset reported a pending arming")
			}
			if !tm.Reset(time.Millisecond) {
				t.Fatal("Reset of a pending arming reported none")
			}
			collect(t, ch, 1)
			if tm.Reset(time.Millisecond) {
				t.Fatal("Reset after firing reported a pending arming")
			}
			collect(t, ch, 1)
			tm.Reset(time.Hour)
			if !tm.Stop() {
				t.Fatal("Stop of a pending arming reported none")
			}
			select {
			case <-ch:
				t.Fatal("a moved or stopped arming fired")
			case <-time.After(20 * time.Millisecond):
			}
		})
	}
}

func TestManualTimerReset(t *testing.T) {
	m := NewManual()
	var fires atomic.Int64
	tm := m.NewTimer(func() { fires.Add(1) })
	tm.Reset(10 * time.Millisecond)
	if !tm.Reset(30 * time.Millisecond) {
		t.Fatal("Reset of a pending arming reported none")
	}
	if got := m.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers() = %d after moving one arming, want 1", got)
	}
	m.Advance(20 * time.Millisecond)
	if fires.Load() != 0 {
		t.Fatal("timer fired at its old deadline")
	}
	m.Advance(10 * time.Millisecond)
	if fires.Load() != 1 {
		t.Fatalf("fired %d times at the new deadline, want 1", fires.Load())
	}
	if tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset after firing reported a pending arming")
	}
	m.Advance(time.Second)
	if fires.Load() != 2 {
		t.Fatalf("re-armed timer fired %d times in all, want 2", fires.Load())
	}
}

// TestJitteredOneDecisionPerArm: the perturbation is consulted once
// per arming, whether through AfterFunc or by re-arming one timer, and
// never by building or stopping one — so a chaos journal records the
// same jitter decisions as with a fresh timer per wait.
func TestJitteredOneDecisionPerArm(t *testing.T) {
	var calls int
	j := NewJittered(NewManual(), func(d time.Duration) time.Duration { calls++; return d })
	tm := j.NewTimer(func() {})
	if calls != 0 {
		t.Fatalf("NewTimer consulted the jitter %d times", calls)
	}
	for i := 0; i < 3; i++ {
		tm.Reset(time.Millisecond)
	}
	tm.Stop()
	AfterFunc(j, time.Millisecond, func() {})
	if calls != 4 {
		t.Fatalf("jitter consulted %d times for 4 armings", calls)
	}
}

// TestWaitTimerGenerations drives the generation rule by hand: timer
// calls are recorded as pending and delivered late, out of order, or
// after a Stop, as a host can schedule them; only a call that settles
// the open wait's own arming may count as its timeout.
func TestWaitTimerGenerations(t *testing.T) {
	m := NewManual()
	pending := 0 // calls the timer made that have not been delivered
	var w WaitTimer
	w.Build(m.NewTimer(func() { pending++ }))
	deliver := func() bool { pending--; return w.Expired() }

	// A wait woken for real just as its arming expired: the call is
	// late, and lands in the next wait.
	w.Arm(10 * time.Millisecond)
	m.Advance(10 * time.Millisecond)
	w.Close()
	w.Arm(10 * time.Millisecond)
	if deliver() {
		t.Fatal("a late call of the previous wait timed out the current one")
	}
	m.Advance(10 * time.Millisecond)
	if !deliver() {
		t.Fatal("the current wait's own call was not its timeout")
	}
	w.Close()

	// A wait closed before its arming expired settles it by Stop.
	w.Arm(10 * time.Millisecond)
	w.Close()
	w.Arm(10 * time.Millisecond)
	m.Advance(10 * time.Millisecond)
	if !deliver() {
		t.Fatal("timeout after a stopped wait was not counted")
	}
	w.Close()

	// Two late calls delivered newest first: the first delivered is
	// stale, the second is credited to the open wait, whose own
	// arming has expired by then.
	w.Arm(10 * time.Millisecond)
	m.Advance(10 * time.Millisecond)
	w.Close()
	w.Arm(10 * time.Millisecond)
	m.Advance(10 * time.Millisecond)
	if pending != 2 {
		t.Fatalf("%d calls pending, want 2", pending)
	}
	if deliver() || !deliver() {
		t.Fatal("out-of-order calls not settled oldest arming first")
	}
	w.Close()

	// A call delivered after its wait closed, with no wait open.
	w.Arm(10 * time.Millisecond)
	m.Advance(10 * time.Millisecond)
	w.Close()
	if deliver() {
		t.Fatal("a call with no wait open counted as a timeout")
	}
}
