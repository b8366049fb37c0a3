package tsync

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/core"
)

// TestTimedWaitStaleTimeout runs back-to-back timed waits by one
// thread, cycling through Mutex, Sema, Cond and RWLock, each with a
// deadline that races a real wake from a second thread. A thread's
// timed waits share one re-armed timer, and a timer call may land
// after its own wait has returned; the generation rule must keep such
// a late call from touching the next wait. The test asserts that
//
//   - no wait reports a timeout before its deadline (a late call
//     dequeuing a later wait would time it out early);
//   - a wait that reports success really was woken: the lock is held,
//     the unit or the signal was really there;
//   - between waits, the waiter parks and is unparked only by the
//     waker, which unparks it once it is seen asleep there (a stray
//     wake permit left by a late call would end that park early).
//
// The waiter runs unbound (user-level park) and bound (kernel park).
func TestTimedWaitStaleTimeout(t *testing.T) {
	iters := 4000
	if testing.Short() {
		iters = 1000
	}
	for _, bound := range []bool{false, true} {
		name := "unbound"
		if bound {
			name = "bound"
		}
		t.Run(name, func(t *testing.T) { staleTimeoutRun(t, iters, bound) })
	}
}

func staleTimeoutRun(t *testing.T, iters int, bound bool) {
	w := newWorld(2)
	var (
		mu, cmu  Mutex
		sp       Sema
		cv       Cond
		rw       RWLock
		signaled bool // guarded by cmu

		ready, started, parked, sent atomic.Int64 // iteration numbers, -1 before the first
		startAt                      atomic.Int64 // waiter's start of the current wait
		timeouts, successes          atomic.Int64
	)
	ready.Store(-1)
	started.Store(-1)
	parked.Store(-1)
	sent.Store(-1)
	// The wait bound and the waker's delay both vary, the delay
	// straddling the bound by up to 30µs either way.
	bound_ := func(i int) time.Duration { return time.Duration(20+i*37%80) * time.Microsecond }
	delay := func(i int) time.Duration { return bound_(i) + time.Duration(i*53%61-30)*time.Microsecond }

	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		clk := r.Kernel().Clock()
		flags := core.CreateOpts{Flags: core.ThreadWait}
		if bound {
			flags.Flags |= core.ThreadBindLWP
		}
		waiter, err := r.Create(func(c *core.Thread, _ any) {
			for i := 0; i < iters; i++ {
				for ready.Load() != int64(i) {
					c.Yield()
				}
				d := bound_(i)
				start := clk.Now()
				startAt.Store(int64(start))
				started.Store(int64(i))
				var timedOut bool
				switch i % 4 {
				case 0:
					err := mu.TimedEnter(c, d)
					timedOut = err == ErrTimedOut
					if !timedOut {
						if !mu.Held() {
							t.Errorf("iter %d: TimedEnter succeeded without the lock", i)
						}
						mu.Exit(c)
					}
				case 1:
					timedOut = sp.TimedP(c, d) == ErrTimedOut
				case 2:
					cmu.Enter(c)
					if !signaled {
						timedOut = !cv.TimedWait(c, &cmu, d)
						if !timedOut && !signaled {
							t.Errorf("iter %d: TimedWait returned without a signal", i)
						}
					}
					cmu.Exit(c)
				case 3:
					var err error
					if i%8 == 3 {
						err = rw.TimedRdLock(c, d)
					} else {
						err = rw.TimedWrLock(c, d)
					}
					timedOut = err == ErrTimedOut
					if !timedOut {
						rw.Exit(c)
					}
				}
				if timedOut {
					timeouts.Add(1)
					if el := clk.Now() - start; el < d {
						t.Errorf("iter %d (kind %d): timed out after %v, before its %v bound", i, i%4, el, d)
					}
				} else {
					successes.Add(1)
				}
				parked.Store(int64(i))
				c.Park()
				if sent.Load() != int64(i) {
					t.Errorf("iter %d: unparked between waits by something other than the waker", i)
					for sent.Load() != int64(i) {
						c.Park()
					}
				}
				if i%4 == 1 {
					// The waker posted exactly one unit: the wait took
					// it, or it is still there.
					if left := sp.TryP(c); left == !timedOut {
						t.Errorf("iter %d: sema wait timedOut=%v but a unit left=%v", i, timedOut, left)
					}
				}
			}
		}, nil, flags)
		if err != nil {
			t.Error(err)
			return
		}
		waker, err := r.Create(func(c *core.Thread, _ any) {
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					mu.Enter(c)
				case 2:
					cmu.Enter(c)
					signaled = false
					cmu.Exit(c)
				case 3:
					rw.Enter(c, RWWriter)
				}
				ready.Store(int64(i))
				for started.Load() != int64(i) {
					c.Yield()
				}
				for at := time.Duration(startAt.Load()) + delay(i); clk.Now() < at; {
					c.Yield()
				}
				switch i % 4 {
				case 0:
					mu.Exit(c)
				case 1:
					sp.V(c)
				case 2:
					cmu.Enter(c)
					signaled = true
					cv.Signal(c)
					cmu.Exit(c)
				case 3:
					rw.Exit(c)
				}
				for parked.Load() != int64(i) || waiter.State() != core.ThreadSleeping {
					c.Yield()
				}
				sent.Store(int64(i))
				waiter.Unpark()
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		self.Wait(waiter.ID())
		self.Wait(waker.ID())
	})
	select {
	case <-m.Exited():
	case <-time.After(120 * time.Second):
		t.Fatalf("timeout waiting for runtime exit: ready %d started %d parked %d, %d timeouts %d successes",
			ready.Load(), started.Load(), parked.Load(), timeouts.Load(), successes.Load())
	}
	t.Logf("%d timeouts, %d successes", timeouts.Load(), successes.Load())
	if timeouts.Load() == 0 || successes.Load() == 0 {
		t.Errorf("deadlines never raced the wake: %d timeouts, %d successes", timeouts.Load(), successes.Load())
	}
	if sq, ts := m.ResidualLinks(); sq != 0 || ts != 0 {
		t.Errorf("residual links after the run: sleepq %d, turnstiles %d", sq, ts)
	}
}
