package tsync

import (
	"sync"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/usync"
)

// RWType selects reader or writer acquisition for RWLock.Enter.
type RWType int

// rw_enter types.
const (
	// RWReader acquires a readers lock: many simultaneous holders.
	RWReader RWType = iota
	// RWWriter acquires the writer lock: exclusive.
	RWWriter
)

// RWLock is the paper's multiple-readers, single-writer lock: a good
// fit for an object searched more frequently than it is changed.
// Writers are preferred: a waiting writer blocks new readers, which
// prevents writer starvation. The zero value is an unheld lock.
//
// Process-shared locks are robust for writers: a process that dies
// holding the writer lock (or an unresolved owner-dead claim) is
// swept, and the next acquirer — in either mode — gets ErrOwnerDead
// and holds a claim until MakeConsistent. Reader deaths are not
// tracked (readers leave no owner word), matching the POSIX robust
// model, which covers only exclusive ownership.
type RWLock struct {
	mu        sync.Mutex
	readers   int
	writer    bool
	owner     *core.Thread // writer owner (wait-for graph)
	wwaiting  int          // writers waiting
	upgrading bool
	rq        waitq          // blocked readers
	wq        waitq          // blocked writers
	ts        core.Turnstile // priority-inheritance anchor (writer owner)
	name      string
	bi        *core.BlockInfo // wait-for edge of every waiter (edgeLocked)

	// sv (process-shared variant): word 0 = readers, word 1 =
	// writer flag, word 2 = waiting writers, word 3 = upgrade in
	// progress, word 4 = owner (pid, tid) of the writer or of the
	// owner-dead claimant, word 5 = robust state.
	sv *usync.Var
}

// RWShmSize is the number of bytes a process-shared readers/writer
// lock occupies in mapped memory.
const RWShmSize = 48

// InitShared binds the lock to shared state — the USYNC_PROCESS
// variant (rw_init with THREAD_SYNC_SHARED).
func (rw *RWLock) InitShared(sv *usync.Var) {
	rw.sv = sv
	sv.Declare(usync.KindRW)
}

// Name returns the lock's identity for diagnostics.
func (rw *RWLock) Name() string {
	if rw.sv != nil {
		return rw.sv.Name()
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return lazyName(&rw.name, "rwlock")
}

// edgeLocked returns the wait-for edge every waiter on this lock
// publishes, built at first contended use. The resolvable owner is
// the writer (readers are anonymous); Owner reads through the lock at
// walk time. Word lock held.
func (rw *RWLock) edgeLocked() *core.BlockInfo {
	if rw.bi == nil {
		if rw.sv != nil {
			rw.bi = &core.BlockInfo{Kind: "rwlock", Name: rw.sv.Name(), Owner: sharedOwner(rw.sv, 4)}
		} else {
			rw.bi = &core.BlockInfo{Kind: "rwlock", Name: lazyName(&rw.name, "rwlock"), Ts: &rw.ts, Owner: localOwner(&rw.mu, &rw.owner)}
		}
	}
	return rw.bi
}

// rwReaders and rwWriters are an RWLock seen as the core.Dequeuer of
// its blocked-reader and blocked-writer queues, for timed parks.
type (
	rwReaders RWLock
	rwWriters RWLock
)

// Dequeue implements core.Dequeuer.
func (q *rwReaders) Dequeue(t *core.Thread) bool {
	rw := (*RWLock)(q)
	rw.mu.Lock()
	removed := rw.rq.remove(t)
	rw.mu.Unlock()
	return removed
}

// Dequeue implements core.Dequeuer.
func (q *rwWriters) Dequeue(t *core.Thread) bool {
	rw := (*RWLock)(q)
	rw.mu.Lock()
	removed := rw.wq.remove(t)
	rw.mu.Unlock()
	return removed
}

// Enter acquires a readers or writer lock (rw_enter), blocking as
// needed. An owner-dead shared lock is recovered transparently (use
// EnterErr for the robust protocol).
func (rw *RWLock) Enter(t *core.Thread, typ RWType) {
	switch err := rw.EnterErr(t, typ); err {
	case nil:
	case ErrOwnerDead:
		rw.MakeConsistent(t)
	case ErrNotRecoverable:
		panic("tsync: rw_enter of a not-recoverable shared lock")
	}
}

// EnterErr acquires like Enter but surfaces the robust protocol on
// shared locks: ErrOwnerDead means the caller holds the requested
// mode plus the recovery claim (other acquirers wait until
// MakeConsistent or a claim-dropping Exit, which poisons the lock
// with ErrNotRecoverable). Unshared locks always return nil.
func (rw *RWLock) EnterErr(t *core.Thread, typ RWType) error {
	if rw.sv != nil {
		return rw.enterShared(t, typ, 0)
	}
	return rw.enterLocal(t, typ, 0)
}

// TimedRdLock acquires a readers lock with a deadline, returning
// ErrTimedOut when d elapses first (cf. Cond.TimedWait).
func (rw *RWLock) TimedRdLock(t *core.Thread, d time.Duration) error {
	if rw.sv != nil {
		return rw.enterShared(t, RWReader, d)
	}
	return rw.enterLocal(t, RWReader, d)
}

// TimedWrLock acquires the writer lock with a deadline, returning
// ErrTimedOut when d elapses first.
func (rw *RWLock) TimedWrLock(t *core.Thread, d time.Duration) error {
	if rw.sv != nil {
		return rw.enterShared(t, RWWriter, d)
	}
	return rw.enterLocal(t, RWWriter, d)
}

// MakeConsistent resolves an ErrOwnerDead claim held by the calling
// thread: the lock returns to normal service in the claimed mode.
// Reports whether a claim was resolved.
func (rw *RWLock) MakeConsistent(t *core.Thread) bool {
	if rw.sv == nil {
		return false
	}
	self := ownerWord(t)
	ok := false
	rw.sv.Atomically(func(w usync.Words) {
		if w.Load(5) == usync.RobustClaimed && w.Load(4) == self {
			w.Store(5, usync.RobustOK)
			if w.Load(1) == 0 {
				w.Store(4, 0) // reader claim: readers are anonymous again
			}
			ok = true
		}
	})
	if ok {
		rw.sv.Wake(-1) // claim resolved: everyone re-contends
	}
	return ok
}

// enterLocal acquires the unshared lock; d > 0 bounds the wait.
func (rw *RWLock) enterLocal(t *core.Thread, typ RWType, d time.Duration) error {
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	var dq core.Dequeuer = (*rwReaders)(rw)
	if typ == RWWriter {
		dq = (*rwWriters)(rw)
	}
	for {
		rw.mu.Lock()
		if rw.tryLocked(t, typ) {
			rw.mu.Unlock()
			return nil
		}
		if d > 0 && clk.Now() >= deadline {
			rw.mu.Unlock()
			return ErrTimedOut
		}
		if typ == RWWriter {
			rw.wwaiting++
			rw.ts.SetQueue(rw.wq.chanOf())
			rw.wq.push(t)
		} else {
			rw.ts.SetQueue2(rw.rq.chanOf())
			rw.rq.push(t)
		}
		bi := rw.edgeLocked()
		rw.mu.Unlock()
		timedOut := false
		if chaosOf(t).SpuriousWakeup() {
			t.Checkpoint() // chaos: spurious wakeup, park elided
		} else {
			t.NoteBlocked(bi)
			t.WillPriority() // boost the writer holding us out
			if d > 0 {
				timedOut = t.ParkTimed(deadline, dq)
			} else {
				t.Park()
			}
			t.NoteUnblocked()
		}
		rw.mu.Lock()
		if typ == RWWriter {
			if rw.wq.remove(t) {
				// Still queued: the wake was spurious; our
				// wwaiting contribution stands until we
				// re-queue, so drop it now.
			}
			rw.wwaiting--
		} else {
			rw.rq.remove(t)
		}
		rw.mu.Unlock()
		if timedOut {
			return ErrTimedOut
		}
	}
}

// tryLocked attempts the acquisition; caller holds rw.mu. Readers are
// admitted only when no writer holds or awaits the lock (writer
// preference).
func (rw *RWLock) tryLocked(t *core.Thread, typ RWType) bool {
	if typ == RWWriter {
		if rw.writer || rw.readers > 0 {
			return false
		}
		rw.writer = true
		rw.owner = t
		rw.ts.Acquired(t)
		return true
	}
	if rw.writer || rw.wwaiting > 0 {
		return false
	}
	rw.readers++
	return true
}

// TryEnter acquires the lock only if no blocking is required
// (rw_tryenter). A shared lock with a pending or unresolved owner
// death is never taken by TryEnter — recovery needs EnterErr.
func (rw *RWLock) TryEnter(t *core.Thread, typ RWType) bool {
	if rw.sv != nil {
		return rw.tryEnterShared(t, typ)
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.tryLocked(t, typ)
}

// Exit releases a readers or writer lock (rw_exit). Releasing an
// unresolved ErrOwnerDead claim poisons the shared lock
// (ErrNotRecoverable) — callers must MakeConsistent first.
func (rw *RWLock) Exit(t *core.Thread) {
	if rw.sv != nil {
		rw.exitShared(t)
		return
	}
	var wakeOne *core.Thread
	var wakeAll []*core.Thread
	rw.mu.Lock()
	switch {
	case rw.writer:
		rw.writer = false
		rw.owner = nil
		rw.ts.Released(t) // shed any boost willed by blocked acquirers
	case rw.readers > 0:
		rw.readers--
	default:
		rw.mu.Unlock()
		panic("tsync: rw_exit of an unheld lock")
	}
	if rw.readers == 0 && !rw.writer {
		if rw.wq.len() > 0 {
			wakeOne = rw.wq.pop()
		} else {
			wakeAll = rw.rq.popAll()
		}
	}
	rw.mu.Unlock()
	if wakeOne != nil {
		wakeOne.Unpark()
	}
	core.UnparkAll(wakeAll) // readers wake in one scheduler-lock pass
}

// Downgrade atomically converts a writer lock into a readers lock
// (rw_downgrade). Any waiting writers remain waiting; if there are
// none, pending readers are woken (paper).
func (rw *RWLock) Downgrade(t *core.Thread) {
	if rw.sv != nil {
		rw.downgradeShared()
		return
	}
	var wakeAll []*core.Thread
	rw.mu.Lock()
	if !rw.writer {
		rw.mu.Unlock()
		panic("tsync: rw_downgrade without the writer lock")
	}
	rw.writer = false
	rw.owner = nil
	rw.ts.Released(t) // readers hold no turnstile
	rw.readers = 1
	if rw.wwaiting == 0 {
		wakeAll = rw.rq.popAll()
	}
	rw.mu.Unlock()
	core.UnparkAll(wakeAll)
}

// TryUpgrade attempts to atomically convert a readers lock into a
// writer lock (rw_tryupgrade). It fails if another upgrade is in
// progress, writers are waiting (paper), or other readers hold the
// lock.
func (rw *RWLock) TryUpgrade(t *core.Thread) bool {
	if rw.sv != nil {
		return rw.tryUpgradeShared(t)
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.upgrading || rw.wwaiting > 0 || rw.writer || rw.readers != 1 {
		return false
	}
	rw.readers = 0
	rw.writer = true
	rw.owner = t
	rw.ts.Acquired(t)
	return true
}

// Holders reports (readers, writerHeld) for debugging.
func (rw *RWLock) Holders() (int, bool) {
	if rw.sv != nil {
		var r int
		var w bool
		rw.sv.Atomically(func(ws usync.Words) {
			r = int(ws.Load(0))
			w = ws.Load(1) != 0
		})
		return r, w
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.readers, rw.writer
}

// --- process-shared implementation --------------------------------------

func (rw *RWLock) tryEnterShared(t *core.Thread, typ RWType) bool {
	self := ownerWord(t)
	ok := false
	rw.sv.Atomically(func(w usync.Words) {
		if w.Load(5) != usync.RobustOK {
			return
		}
		readers, writer, ww := w.Load(0), w.Load(1), w.Load(2)
		if typ == RWWriter {
			if writer == 0 && readers == 0 {
				w.Store(1, 1)
				w.Store(4, self)
				ok = true
			}
		} else if writer == 0 && ww == 0 {
			w.Store(0, readers+1)
			ok = true
		}
	})
	return ok
}

func (rw *RWLock) enterShared(t *core.Thread, typ RWType, d time.Duration) error {
	l := t.LWP()
	self := ownerWord(t)
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	// Writer-waiting count: incremented once, decremented on every
	// exit (including unwind) so a dying waiter cannot wedge the
	// writer-preference gate.
	wwait := false
	defer func() {
		if wwait {
			rw.sv.Atomically(func(w usync.Words) { w.Store(2, w.Load(2)-1) })
		}
	}()
	for {
		var acquired, dead, notrec bool
		rw.sv.Atomically(func(w usync.Words) {
			switch w.Load(5) {
			case usync.RobustNotRecoverable:
				notrec = true
				return
			case usync.RobustOwnerDead:
				// First acquirer after an owner death claims the
				// lock in the requested mode, bypassing the
				// writer-preference gate: recovery must not wait
				// behind ordinary contention.
				if typ == RWWriter {
					w.Store(1, 1)
				} else {
					w.Store(0, w.Load(0)+1)
				}
				w.Store(4, self)
				w.Store(5, usync.RobustClaimed)
				dead = true
				acquired = true
				return
			case usync.RobustClaimed:
				return // wait for the claim to resolve
			}
			readers, writer, ww := w.Load(0), w.Load(1), w.Load(2)
			if typ == RWWriter {
				if writer == 0 && readers == 0 {
					w.Store(1, 1)
					w.Store(4, self)
					acquired = true
				}
			} else if writer == 0 && ww == 0 {
				w.Store(0, readers+1)
				acquired = true
			}
		})
		if notrec {
			return ErrNotRecoverable
		}
		if acquired {
			if dead {
				return ErrOwnerDead
			}
			return nil
		}
		if d > 0 && clk.Now() >= deadline {
			return ErrTimedOut
		}
		if typ == RWWriter && !wwait {
			wwait = true
			rw.sv.Atomically(func(w usync.Words) { w.Store(2, w.Load(2)+1) })
		}
		opts := usync.SleepOpts{}
		if d > 0 {
			opts.Timeout = deadline - clk.Now()
		}
		rw.mu.Lock()
		bi := rw.edgeLocked()
		rw.mu.Unlock()
		t.NoteBlocked(bi)
		if typ == RWWriter {
			rw.sv.SleepWhile(l, func(w usync.Words) bool {
				if rb := w.Load(5); rb == usync.RobustNotRecoverable || rb == usync.RobustOwnerDead {
					return false // wake: the robust state must be acted on
				} else if rb == usync.RobustClaimed {
					return true // claim pending: keep waiting
				}
				return w.Load(1) != 0 || w.Load(0) != 0
			}, opts)
		} else {
			rw.sv.SleepWhile(l, func(w usync.Words) bool {
				if rb := w.Load(5); rb == usync.RobustNotRecoverable || rb == usync.RobustOwnerDead {
					return false
				} else if rb == usync.RobustClaimed {
					return true
				}
				return w.Load(1) != 0 || w.Load(2) != 0
			}, opts)
		}
		t.NoteUnblocked()
		t.Checkpoint()
	}
}

func (rw *RWLock) exitShared(t *core.Thread) {
	self := ownerWord(t)
	rw.sv.Atomically(func(w usync.Words) {
		if w.Load(5) == usync.RobustClaimed && w.Load(4) == self {
			// The claimant released without MakeConsistent: the
			// protected state is unrecoverable, forever.
			w.Store(0, 0)
			w.Store(1, 0)
			w.Store(4, 0)
			w.Store(5, usync.RobustNotRecoverable)
			return
		}
		if w.Load(1) != 0 {
			w.Store(1, 0)
			w.Store(4, 0)
		} else if r := w.Load(0); r > 0 {
			w.Store(0, r-1)
		}
	})
	rw.sv.Wake(-1) // writers and readers re-contend; shared variant keeps one queue
}

func (rw *RWLock) downgradeShared() {
	rw.sv.Atomically(func(w usync.Words) {
		w.Store(1, 0)
		w.Store(0, 1)
		if w.Load(5) != usync.RobustClaimed {
			w.Store(4, 0) // claimants keep their claim across downgrade
		}
	})
	rw.sv.Wake(-1)
}

func (rw *RWLock) tryUpgradeShared(t *core.Thread) bool {
	self := ownerWord(t)
	ok := false
	rw.sv.Atomically(func(w usync.Words) {
		if w.Load(5) != usync.RobustOK {
			return
		}
		if w.Load(3) == 0 && w.Load(2) == 0 && w.Load(1) == 0 && w.Load(0) == 1 {
			w.Store(0, 0)
			w.Store(1, 1)
			w.Store(4, self)
			ok = true
		}
	})
	return ok
}
