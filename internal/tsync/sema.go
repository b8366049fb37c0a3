package tsync

import (
	"sync"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/usync"
)

// Sema is a classic counting semaphore. Semaphores are not as
// efficient as mutex locks, but they need not be bracketed, so they
// can be used for asynchronous event notification (e.g. from signal
// handlers), and they carry state, so they can be used without an
// associated mutex (paper). The zero value is a semaphore with count
// zero.
//
// Semaphores have no strict owner, so robustness on the shared
// variant is best-effort: the most recent P-er that has not yet V'd
// is recorded, and if its process dies the sweep restores the
// consumed unit and leaves a one-shot owner-dead mark that the next
// PErr consumes. A death between a V and the next P is invisible, as
// it is in every robust-semaphore design.
type Sema struct {
	mu      sync.Mutex
	count   uint
	holder  *core.Thread // most recent P-er without a matching V
	waiters waitq
	name    string
	bi      *core.BlockInfo // wait-for edge of every waiter (edgeLocked)

	// sv (process-shared variant): word 0 is the count, word 1 the
	// most recent holder (pid, tid), word 2 the robust state.
	sv *usync.Var
}

// SemaShmSize is the number of bytes a process-shared semaphore
// occupies in mapped memory.
const SemaShmSize = 24

// Init sets the initial count (sema_init).
func (sp *Sema) Init(count uint) {
	sp.mu.Lock()
	sp.count = count
	sp.mu.Unlock()
}

// InitShared binds the semaphore to shared state at the variable —
// the USYNC_PROCESS variant — and sets the initial count if the
// shared word is still zero and count is non-zero.
func (sp *Sema) InitShared(sv *usync.Var, count uint) {
	sp.sv = sv
	sv.Declare(usync.KindSema)
	if count > 0 {
		sv.Atomically(func(w usync.Words) {
			if w.Load(0) == 0 {
				w.Store(0, uint64(count))
			}
		})
	}
}

// Name returns the semaphore's identity for diagnostics.
func (sp *Sema) Name() string {
	if sp.sv != nil {
		return sp.sv.Name()
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return lazyName(&sp.name, "sema")
}

// edgeLocked returns the wait-for edge every waiter in P publishes,
// built at first contended use. The resolvable owner is the most
// recent un-V'd P-er, which makes mutex-style semaphore usage visible
// to the deadlock detector; Owner reads through the semaphore at walk
// time. Word lock held.
func (sp *Sema) edgeLocked() *core.BlockInfo {
	if sp.bi == nil {
		if sp.sv != nil {
			sp.bi = &core.BlockInfo{Kind: "sema", Name: sp.sv.Name(), Owner: sharedOwner(sp.sv, 1)}
		} else {
			sp.bi = &core.BlockInfo{Kind: "sema", Name: lazyName(&sp.name, "sema"), Owner: localOwner(&sp.mu, &sp.holder)}
		}
	}
	return sp.bi
}

// semaQueue is a Sema seen as the core.Dequeuer of its waiter queue,
// for timed parks.
type semaQueue Sema

// Dequeue implements core.Dequeuer.
func (q *semaQueue) Dequeue(t *core.Thread) bool {
	sp := (*Sema)(q)
	sp.mu.Lock()
	removed := sp.waiters.remove(t)
	sp.mu.Unlock()
	return removed
}

// P decrements the semaphore, blocking while the count is zero
// (sema_p). A pending owner-death mark on a shared semaphore is
// absorbed silently; use PErr to observe it.
func (sp *Sema) P(t *core.Thread) {
	sp.PErr(t)
}

// PErr is P surfacing the robust protocol of shared semaphores: it
// returns ErrOwnerDead (with the unit acquired) to the first P after
// a process died between P and V — the compensating unit restored by
// the sweep may guard state that needs checking. Unshared semaphores
// always return nil.
func (sp *Sema) PErr(t *core.Thread) error {
	if sp.sv != nil {
		return sp.pShared(t, 0)
	}
	return sp.pLocal(t, 0)
}

// TimedP is PErr with a deadline, returning ErrTimedOut when d
// elapses before a unit is available (sema_timedwait).
func (sp *Sema) TimedP(t *core.Thread, d time.Duration) error {
	if sp.sv != nil {
		return sp.pShared(t, d)
	}
	return sp.pLocal(t, d)
}

func (sp *Sema) pLocal(t *core.Thread, d time.Duration) error {
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	for {
		sp.mu.Lock()
		if sp.count > 0 {
			sp.count--
			sp.holder = t
			sp.mu.Unlock()
			return nil
		}
		if d > 0 && clk.Now() >= deadline {
			sp.mu.Unlock()
			return ErrTimedOut
		}
		sp.waiters.push(t)
		bi := sp.edgeLocked()
		sp.mu.Unlock()
		if chaosOf(t).SpuriousWakeup() {
			t.Checkpoint() // chaos: spurious wakeup, park elided
		} else {
			t.NoteBlocked(bi)
			timedOut := false
			if d > 0 {
				timedOut = t.ParkTimed(deadline, (*semaQueue)(sp))
			} else {
				t.Park()
			}
			t.NoteUnblocked()
			if timedOut {
				return ErrTimedOut
			}
		}
		// Mesa semantics: re-check; a barger may have taken the
		// count.
		sp.mu.Lock()
		sp.waiters.remove(t)
		sp.mu.Unlock()
	}
}

// TryP decrements the semaphore only if no blocking is required
// (sema_tryp); it reports whether the decrement happened.
func (sp *Sema) TryP(t *core.Thread) bool {
	if sp.sv != nil {
		ok := false
		self := ownerWord(t)
		sp.sv.Atomically(func(w usync.Words) {
			if c := w.Load(0); c > 0 {
				w.Store(0, c-1)
				w.Store(1, self)
				if w.Load(2) == usync.RobustOwnerDead {
					w.Store(2, usync.RobustOK) // absorbed silently
				}
				ok = true
			}
		})
		return ok
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.count == 0 {
		return false
	}
	sp.count--
	sp.holder = t
	return true
}

// V increments the semaphore, unblocking one waiter (sema_v). V takes
// the posting thread for symmetry but never blocks, so it is safe in
// signal handlers; t may be nil when posting from outside any thread.
func (sp *Sema) V(t *core.Thread) {
	if sp.sv != nil {
		var self uint64
		if t != nil {
			self = ownerWord(t)
		}
		sp.sv.Atomically(func(w usync.Words) {
			w.Store(0, w.Load(0)+1)
			if self != 0 && w.Load(1) == self {
				w.Store(1, 0) // balanced P/V: no outstanding holder
			}
		})
		sp.sv.Wake(1)
		return
	}
	sp.mu.Lock()
	sp.count++
	if t != nil && sp.holder == t {
		sp.holder = nil
	}
	wake := sp.waiters.pop()
	sp.mu.Unlock()
	if wake != nil {
		wake.Unpark()
	}
}

// Count returns the current count (debugging aid).
func (sp *Sema) Count() uint {
	if sp.sv != nil {
		var c uint64
		sp.sv.Atomically(func(w usync.Words) { c = w.Load(0) })
		return uint(c)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.count
}

func (sp *Sema) pShared(t *core.Thread, d time.Duration) error {
	l := t.LWP()
	self := ownerWord(t)
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	for {
		var acquired, dead bool
		sp.sv.Atomically(func(w usync.Words) {
			if c := w.Load(0); c > 0 {
				w.Store(0, c-1)
				w.Store(1, self)
				if w.Load(2) == usync.RobustOwnerDead {
					// One-shot: the first P after the death
					// observes it; later Ps see a normal
					// semaphore.
					w.Store(2, usync.RobustOK)
					dead = true
				}
				acquired = true
			}
		})
		if acquired {
			if dead {
				return ErrOwnerDead
			}
			return nil
		}
		if d > 0 && clk.Now() >= deadline {
			return ErrTimedOut
		}
		opts := usync.SleepOpts{}
		if d > 0 {
			opts.Timeout = deadline - clk.Now()
		}
		sp.mu.Lock()
		bi := sp.edgeLocked()
		sp.mu.Unlock()
		t.NoteBlocked(bi)
		sp.sv.SleepWhile(l, func(w usync.Words) bool {
			return w.Load(0) == 0
		}, opts)
		t.NoteUnblocked()
		t.Checkpoint()
	}
}
