package ktime

import (
	"sync/atomic"
	"testing"
	"time"
)

// collect waits for n values on ch, failing the test after a real-time
// limit (generous: the whole point of fast-forward is that virtual
// hours pass in milliseconds).
func collect(t *testing.T, ch <-chan int, n int) []int {
	t.Helper()
	out := make([]int, 0, n)
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case v := <-ch:
			out = append(out, v)
		case <-deadline:
			t.Fatalf("timed out: got %d of %d timer firings (%v)", len(out), n, out)
		}
	}
	return out
}

func alwaysIdle() bool { return true }

// TestFastForwardJumpsIdleTime: with an always-idle predicate, timers
// hours out fire in deadline order within real milliseconds, and the
// clock lands past the last deadline.
func TestFastForwardJumpsIdleTime(t *testing.T) {
	ff := NewFastForward()
	ch := make(chan int, 8)
	AfterFunc(ff, 3*time.Hour, func() { ch <- 3 })
	AfterFunc(ff, 1*time.Hour, func() { ch <- 1 })
	AfterFunc(ff, 2*time.Hour, func() { ch <- 2 })
	// Go idle only once all three are armed: idle from the start, the
	// advancer could leap to the 3h timer before the others exist.
	ff.SetIdle(alwaysIdle)
	ff.Kick()
	got := collect(t, ch, 3)
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("firing order %v, want [1 2 3]", got)
		}
	}
	if now := ff.Now(); now < 3*time.Hour {
		t.Fatalf("Now() = %v after firing a 3h timer, want >= 3h", now)
	}
	if jumps, skipped := ff.Stats(); jumps == 0 || skipped < 3*time.Hour-time.Minute {
		t.Fatalf("Stats() = %d jumps, %v skipped; want jumps > 0 and ~3h skipped", jumps, skipped)
	}
}

// TestFastForwardIdenticalDeadlines: timers armed at the same virtual
// deadline fire in arming (FIFO) order, like Manual.Advance.
func TestFastForwardIdenticalDeadlines(t *testing.T) {
	ff := NewFastForward()
	ff.SetIdle(alwaysIdle)
	ch := make(chan int, 8)
	const when = time.Hour
	for i := 0; i < 5; i++ {
		i := i
		AfterFunc(ff, when, func() { ch <- i })
	}
	got := collect(t, ch, 5)
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-deadline firing order %v, want [0 1 2 3 4]", got)
		}
	}
}

// TestFastForwardArmDuringJump: a callback firing during a jump arms a
// further timer; the advancer picks it up and jumps again without any
// real waiting — the sequential-sleep pattern of every sleep loop.
func TestFastForwardArmDuringJump(t *testing.T) {
	ff := NewFastForward()
	ff.SetIdle(alwaysIdle)
	ch := make(chan int, 8)
	var step atomic.Int32
	var chain func()
	chain = func() {
		n := int(step.Add(1))
		ch <- n
		if n < 4 {
			AfterFunc(ff, time.Duration(n)*time.Hour, chain)
		}
	}
	AfterFunc(ff, time.Hour, chain)
	got := collect(t, ch, 4)
	for i := range got {
		if got[i] != i+1 {
			t.Fatalf("chained firing order %v, want [1 2 3 4]", got)
		}
	}
	if now := ff.Now(); now < 7*time.Hour {
		t.Fatalf("Now() = %v after a 1+1+2+3 hour chain, want >= 7h", now)
	}
}

// TestFastForwardDisableMidRun: SetEnabled(false) stops jumping —
// pending far-out timers stay pending — and re-enabling fires them.
func TestFastForwardDisableMidRun(t *testing.T) {
	ff := NewFastForward()
	ff.SetIdle(alwaysIdle)
	ch := make(chan int, 1)
	ff.SetEnabled(false)
	AfterFunc(ff, time.Hour, func() { ch <- 1 })
	select {
	case <-ch:
		t.Fatal("timer fired while fast-forward was disabled")
	case <-time.After(50 * time.Millisecond):
	}
	ff.SetEnabled(true)
	collect(t, ch, 1)
}

// TestFastForwardNotIdleMeansRealTime: while the idle predicate is
// false the clock never jumps; short timers still fire through the
// host timer at roughly wall speed.
func TestFastForwardNotIdleMeansRealTime(t *testing.T) {
	ff := NewFastForward()
	busy := atomic.Bool{}
	busy.Store(true)
	ff.SetIdle(func() bool { return !busy.Load() })
	ch := make(chan int, 2)
	AfterFunc(ff, time.Hour, func() { ch <- 99 })
	AfterFunc(ff, 10*time.Millisecond, func() { ch <- 1 })
	start := time.Now()
	got := collect(t, ch, 1)
	if got[0] != 1 {
		t.Fatalf("got firing %v, want the 10ms timer", got)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("10ms timer fired early: the clock jumped while busy")
	}
	if jumps, _ := ff.Stats(); jumps != 0 {
		t.Fatalf("%d jumps while the system was busy, want 0", jumps)
	}
	busy.Store(false)
	ff.Kick()
	collect(t, ch, 1) // the 1h timer fires once idle
}

// TestFastForwardStopDuringIdle: a stopped timer never fires and does
// not block jumping to later deadlines.
func TestFastForwardStopDuringIdle(t *testing.T) {
	ff := NewFastForward()
	ch := make(chan int, 2)
	tm := AfterFunc(ff, time.Hour, func() { ch <- 1 })
	AfterFunc(ff, 2*time.Hour, func() { ch <- 2 })
	if !tm.Stop() {
		t.Fatal("Stop() = false for a pending timer")
	}
	ff.SetIdle(alwaysIdle)
	ff.Kick()
	if got := collect(t, ch, 1); got[0] != 2 {
		t.Fatalf("got firing %v, want the 2h timer only", got)
	}
	select {
	case v := <-ch:
		t.Fatalf("stopped timer fired (%d)", v)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestFastForwardJitterInteraction: chaos wraps the clock in Jittered,
// so deadlines are perturbed before arming. FastForwardOf must see
// through the wrapper, and jumps must honor the *jittered* deadline
// order.
func TestFastForwardJitterInteraction(t *testing.T) {
	ff := NewFastForward()
	jit := NewJittered(ff, func(d time.Duration) time.Duration {
		// Deterministic "jitter": halve every duration.
		return d / 2
	})
	if FastForwardOf(jit) != ff {
		t.Fatal("FastForwardOf failed to unwrap Jittered")
	}
	ff.SetIdle(alwaysIdle)
	ch := make(chan int, 4)
	// 4h jittered to 2h fires before an unjittered 3h timer.
	AfterFunc(jit, 4*time.Hour, func() { ch <- 4 })
	AfterFunc(ff, 3*time.Hour, func() { ch <- 3 })
	got := collect(t, ch, 2)
	if got[0] != 4 || got[1] != 3 {
		t.Fatalf("firing order %v, want [4 3] (jitter halves the 4h arm)", got)
	}
}

// TestFastForwardOfPlainClocks: non-fast-forward clocks unwrap to nil.
func TestFastForwardOfPlainClocks(t *testing.T) {
	if FastForwardOf(NewReal()) != nil {
		t.Fatal("FastForwardOf(Real) != nil")
	}
	if FastForwardOf(NewJittered(NewManual(), nil)) != nil {
		t.Fatal("FastForwardOf(Jittered(Manual)) != nil")
	}
	if FastForwardOf(nil) != nil {
		t.Fatal("FastForwardOf(nil) != nil")
	}
}
