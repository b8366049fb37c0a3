package tsync

import (
	"sync"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/usync"
)

// Cond is a condition variable. It must be used with a Mutex held,
// forming a monitor; because the reacquisition of the mutex can be
// blocked by other threads, the waited-for condition must be
// re-tested in a loop, exactly as the paper's usage example shows.
// The zero value is a valid condition variable.
type Cond struct {
	mu      sync.Mutex
	waiters waitq
	name    string
	bi      *core.BlockInfo // wait-for edge of every waiter (edgeLocked)

	// sv (process-shared variant): word 0 is the wake generation
	// counter.
	sv *usync.Var
}

// CondShmSize is the number of bytes a process-shared condition
// variable occupies in mapped memory.
const CondShmSize = 8

// InitShared binds the condition variable to shared state —
// the USYNC_PROCESS variant (cv_init with THREAD_SYNC_SHARED).
func (cv *Cond) InitShared(sv *usync.Var) { cv.sv = sv }

// Name returns the condition variable's identity for diagnostics.
func (cv *Cond) Name() string {
	if cv.sv != nil {
		return cv.sv.Name()
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	return lazyName(&cv.name, "cond")
}

// edgeLocked returns the wait-for edge every waiter publishes, built
// at first use. A condition wait has no owner — someone must Signal —
// so it never contributes an edge to deadlock cycles, but it does
// show up in lstatus as what the thread is blocked on. Word lock held.
func (cv *Cond) edgeLocked() *core.BlockInfo {
	if cv.bi == nil {
		if cv.sv != nil {
			cv.bi = &core.BlockInfo{Kind: "cond", Name: cv.sv.Name()}
		} else {
			cv.bi = &core.BlockInfo{Kind: "cond", Name: lazyName(&cv.name, "cond")}
		}
	}
	return cv.bi
}

// condQueue is a Cond seen as the core.Dequeuer of its waiter queue,
// for timed waits.
type condQueue Cond

// Dequeue implements core.Dequeuer.
func (q *condQueue) Dequeue(t *core.Thread) bool {
	cv := (*Cond)(q)
	cv.mu.Lock()
	removed := cv.waiters.remove(t)
	cv.mu.Unlock()
	return removed
}

// Wait blocks until the condition is signalled (cv_wait): it releases
// mp before blocking and reacquires it before returning. Spurious
// wakeups are possible; callers loop.
func (cv *Cond) Wait(t *core.Thread, mp *Mutex) {
	if cv.sv != nil {
		cv.waitShared(t, mp, 0)
		return
	}
	cv.waitLocal(t, mp, 0)
}

// TimedWait is Wait with a timeout bound, an extension of the shipped
// library (cond_timedwait). It reports false on timeout; d <= 0 waits
// without one. Process-shared variables time out in the kernel sleep,
// unshared ones through the thread's timed park.
func (cv *Cond) TimedWait(t *core.Thread, mp *Mutex, d time.Duration) bool {
	if cv.sv != nil {
		return cv.waitShared(t, mp, d)
	}
	return cv.waitLocal(t, mp, d)
}

// waitLocal is the unshared wait; d > 0 bounds it. Reports false on
// timeout.
func (cv *Cond) waitLocal(t *core.Thread, mp *Mutex, d time.Duration) bool {
	var deadline time.Duration
	if d > 0 {
		deadline = t.Runtime().Kernel().Clock().Now() + d
	}
	cv.mu.Lock()
	cv.waiters.push(t)
	bi := cv.edgeLocked()
	cv.mu.Unlock()
	mp.Exit(t)
	timedOut := false
	if chaosOf(t).SpuriousWakeup() {
		t.Checkpoint() // chaos: spurious wakeup, park elided
	} else {
		t.NoteBlocked(bi)
		if d > 0 {
			timedOut = t.ParkTimed(deadline, (*condQueue)(cv))
		} else {
			t.Park()
		}
		t.NoteUnblocked()
	}
	// Deregister in case the wake was a permit consumed elsewhere
	// (stop/continue interleavings); harmless if already popped.
	cv.mu.Lock()
	cv.waiters.remove(t)
	cv.mu.Unlock()
	mp.Enter(t)
	t.Checkpoint()
	return !timedOut
}

// Signal wakes one waiter (cv_signal). There is no guaranteed order
// of mutex acquisition among woken threads.
func (cv *Cond) Signal(t *core.Thread) {
	if cv.sv != nil {
		cv.sv.Atomically(func(w usync.Words) { w.Store(0, w.Load(0)+1) })
		cv.sv.Wake(1)
		return
	}
	cv.mu.Lock()
	wake := cv.waiters.pop()
	cv.mu.Unlock()
	if wake != nil {
		wake.Unpark()
	}
}

// Broadcast wakes all waiters (cv_broadcast). The paper cautions that
// all of them re-contend for the mutex, so it should be used with
// care — e.g. when variable amounts of resources are released.
func (cv *Cond) Broadcast(t *core.Thread) {
	if cv.sv != nil {
		cv.sv.Atomically(func(w usync.Words) { w.Store(0, w.Load(0)+1) })
		cv.sv.Wake(-1)
		return
	}
	cv.mu.Lock()
	all := cv.waiters.popAll()
	cv.mu.Unlock()
	// Batch: all waiters enter the run queue in one pass over the
	// scheduler lock instead of one unpark round-trip each.
	core.UnparkAll(all)
}

// Waiters reports how many threads are blocked (debugging aid).
func (cv *Cond) Waiters() int {
	if cv.sv != nil {
		return cv.sv.Waiters()
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	return cv.waiters.len()
}

// waitShared implements the process-shared wait: generation counting
// through the mapped word with a race-free kernel commit. Returns
// false on timeout.
func (cv *Cond) waitShared(t *core.Thread, mp *Mutex, d time.Duration) bool {
	var gen uint64
	cv.sv.Atomically(func(w usync.Words) { gen = w.Load(0) })
	mp.Exit(t)
	opts := usync.SleepOpts{}
	if d > 0 {
		opts.Timeout = d
	}
	cv.mu.Lock()
	bi := cv.edgeLocked()
	cv.mu.Unlock()
	t.NoteBlocked(bi)
	res, slept := cv.sv.SleepWhile(t.LWP(), func(w usync.Words) bool {
		return w.Load(0) == gen // no signal since we decided to wait
	}, opts)
	t.NoteUnblocked()
	mp.Enter(t)
	t.Checkpoint()
	return !(slept && res == sim.WakeTimeout)
}
