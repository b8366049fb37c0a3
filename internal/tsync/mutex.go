package tsync

import (
	"sync"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/usync"
)

// Mutex is the paper's mutual exclusion lock: low overhead in space
// and time, suitable for high-frequency usage, strictly bracketing.
// The zero value is an unlocked mutex of the default variant.
//
// Every variant records its owner so the library can maintain the
// wait-for graph (deadlock detection, /proc lstatus); only the
// error-checking variant acts on it. Process-shared mutexes are
// robust: the owner's (pid, tid) lives in the mapped words, a process
// death sweeps it, and the next acquirer gets ErrOwnerDead (see
// EnterErr and MakeConsistent).
type Mutex struct {
	mu      sync.Mutex // word lock; models the atomic instructions
	held    bool
	owner   *core.Thread
	variant Variant
	waiters waitq
	ts      core.Turnstile // priority-inheritance anchor (local only)
	name    string         // lazily assigned; identifies the lock in lstatus

	// policy is the configured lock/wake policy (InitPolicy); pinned
	// is its resolved implementation, fixed at first use so the
	// waiter-queue discipline never changes mid-life. See policy.go.
	policy Policy
	pinned lockPolicy

	// bi is the wait-for edge published by every waiter (edgeLocked).
	bi *core.BlockInfo

	// qhead/qtail chain the queue policy's explicit MCS nodes and
	// qfree holds its spare ones; plSeq counts the parking-lot
	// policy's releases for its fairness hand-off. All under the word
	// lock.
	qhead, qtail, qfree *mcsNode
	plSeq               uint64

	// sv, when non-nil, makes this a process-shared mutex whose
	// state lives in mapped memory at the variable's offset:
	// word 0 = lock state, word 1 = waiter count, word 2 = owner
	// (pid, tid), word 3 = robust state.
	sv *usync.Var
}

// MutexShmSize is the number of bytes a process-shared mutex occupies
// in mapped memory.
const MutexShmSize = 32

// Init selects the implementation variant (mutex_init). Calling Init
// on a held mutex is a programming error the library does not check
// for, as in the original.
func (mp *Mutex) Init(v Variant) { mp.variant = v }

// InitPolicy pins this lock's lock/wake policy (see Policy), overriding
// the process default. Like Init, it must be called before first use;
// once the mutex has been contended the policy is fixed.
func (mp *Mutex) InitPolicy(p Policy) {
	mp.mu.Lock()
	mp.policy = p
	mp.mu.Unlock()
}

// LockPolicy reports the lock's policy: the resolved one once the
// mutex has been used, the configured one before that.
func (mp *Mutex) LockPolicy() string { return mp.policyName() }

// InitShared binds the mutex to shared state at (obj, off) resolved
// through reg — the USYNC_PROCESS variant. Threads in any process
// that binds a Mutex to the same identity contend on the same lock.
func (mp *Mutex) InitShared(sv *usync.Var) {
	mp.sv = sv
	sv.Declare(usync.KindMutex)
}

// Name returns the lock's identity for diagnostics: the shared
// variable's system-wide name, or a lazily assigned "mutex#N".
func (mp *Mutex) Name() string {
	if mp.sv != nil {
		return mp.sv.Name()
	}
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return lazyName(&mp.name, "mutex")
}

// edgeLocked returns the wait-for edge every waiter on this mutex
// publishes, building it at first contended use: after the policy is
// pinned, so its Policy never changes. Owner reads through the mutex
// at walk time, never under the caller's locks, so /proc lstatus, the
// deadlock detector and the priority-inheritance walk see the current
// owner. Word lock held.
func (mp *Mutex) edgeLocked() *core.BlockInfo {
	if mp.bi == nil {
		if mp.sv != nil {
			mp.bi = &core.BlockInfo{Kind: "mutex", Name: mp.sv.Name(), Owner: sharedOwner(mp.sv, 2)}
		} else {
			mp.bi = &core.BlockInfo{Kind: "mutex", Name: lazyName(&mp.name, "mutex"), Ts: &mp.ts,
				Policy: mp.pinned.name(), Owner: localOwner(&mp.mu, &mp.owner)}
		}
	}
	return mp.bi
}

// mutexQueue is a Mutex seen as the core.Dequeuer of its waiter
// queue, for timed parks.
type mutexQueue Mutex

// Dequeue implements core.Dequeuer.
func (q *mutexQueue) Dequeue(t *core.Thread) bool {
	mp := (*Mutex)(q)
	mp.mu.Lock()
	removed := mp.dequeueSelfLocked(t)
	mp.mu.Unlock()
	return removed
}

// Enter acquires the lock, blocking if it is already held
// (mutex_enter). On an error-check mutex a lock-time deadlock panics,
// as the paper's debugging variant did; an owner-dead shared lock is
// recovered transparently (use EnterErr for the robust protocol).
func (mp *Mutex) Enter(t *core.Thread) {
	switch err := mp.EnterErr(t); err {
	case nil:
	case ErrOwnerDead:
		mp.MakeConsistent(t)
	case ErrDeadlock:
		panic("tsync: recursive mutex_enter (self-deadlock) detected by error-check mutex")
	case ErrNotRecoverable:
		panic("tsync: mutex_enter of a not-recoverable shared lock")
	}
}

// EnterErr acquires the lock like Enter but reports exceptional
// acquisitions instead of panicking or recovering silently:
//
//   - ErrDeadlock (error-check variant): the calling thread already
//     owns the lock, or parking would close a wait-for cycle. The
//     lock is not acquired and the thread did not park.
//   - ErrOwnerDead (shared): a process died holding the lock. The
//     caller HOLDS the lock and must repair the protected state and
//     call MakeConsistent before Exit; releasing without it makes
//     the lock permanently ErrNotRecoverable.
//   - ErrNotRecoverable (shared): the lock is dead forever.
func (mp *Mutex) EnterErr(t *core.Thread) error {
	if mp.sv != nil {
		return mp.enterShared(t, 0)
	}
	return mp.enterLocal(t, 0)
}

// TimedEnter is EnterErr with a deadline: it gives up and returns
// ErrTimedOut if the lock cannot be acquired within d (cf.
// Cond.TimedWait). d <= 0 means no deadline.
func (mp *Mutex) TimedEnter(t *core.Thread, d time.Duration) error {
	if mp.sv != nil {
		return mp.enterShared(t, d)
	}
	return mp.enterLocal(t, d)
}

// MakeConsistent marks an owner-dead shared lock consistent again
// (pthread_mutex_consistent). Only the thread currently holding the
// lock after an ErrOwnerDead acquisition may call it; reports whether
// the mark was cleared. Unshared mutexes have no robust state.
func (mp *Mutex) MakeConsistent(t *core.Thread) bool {
	if mp.sv == nil {
		return false
	}
	self := ownerWord(t)
	ok := false
	mp.sv.Atomically(func(w usync.Words) {
		if w.Load(3) == usync.RobustOwnerDead && w.Load(0) != 0 && w.Load(2) == self {
			w.Store(3, usync.RobustOK)
			ok = true
		}
	})
	return ok
}

// enterLocal is the unshared acquisition path: it resolves the lock's
// policy (per-lock InitPolicy, else the process default) and runs its
// acquisition loop. d > 0 bounds the wait.
func (mp *Mutex) enterLocal(t *core.Thread, d time.Duration) error {
	return mp.impl(t).enter(mp, t, d)
}

// TryEnter acquires the lock only if that requires no blocking
// (mutex_tryenter); it reports whether the lock was taken. The paper
// notes it can be used to avoid deadlock in lock-hierarchy
// violations. An owner-dead shared lock is taken and recovered
// transparently; a not-recoverable one is never taken.
func (mp *Mutex) TryEnter(t *core.Thread) bool {
	if mp.sv != nil {
		return mp.tryEnterShared(t)
	}
	mp.mu.Lock()
	defer mp.mu.Unlock()
	if mp.held {
		return false
	}
	mp.held = true
	mp.owner = t
	mp.ts.Acquired(t)
	return true
}

// Exit releases the lock (mutex_exit): the policy either wakes the
// best waiter into an open re-acquisition race (barging: adaptive,
// parkinglot) or transfers ownership directly to the oldest waiter
// (hand-off: ticket, queue).
func (mp *Mutex) Exit(t *core.Thread) {
	if mp.sv != nil {
		mp.exitShared(t)
		return
	}
	mp.impl(t).exit(mp, t)
}

// Held reports whether the mutex is currently held (debugging aid).
func (mp *Mutex) Held() bool {
	if mp.sv != nil {
		var h bool
		mp.sv.Atomically(func(w usync.Words) { h = w.Load(0) != 0 })
		return h
	}
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.held
}

// ownerWord encodes the calling thread as a shared owner word.
func ownerWord(t *core.Thread) uint64 {
	return usync.EncodeOwner(t.Runtime().Process().PID(), int(t.ID()))
}

// --- process-shared implementation --------------------------------------

func (mp *Mutex) enterShared(t *core.Thread, d time.Duration) error {
	l := t.LWP()
	self := ownerWord(t)
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	// The waiter count is incremented once and decremented on every
	// exit from this function — including a kernel unwind tearing
	// through the sleep when this process dies, which previously
	// leaked the count forever.
	waiting := false
	defer func() {
		if waiting {
			mp.sv.Atomically(func(w usync.Words) { w.Store(1, w.Load(1)-1) })
		}
	}()
	for {
		var acquired, dead, notrec, selfOwned bool
		mp.sv.Atomically(func(w usync.Words) {
			switch {
			case w.Load(3) == usync.RobustNotRecoverable:
				notrec = true
			case w.Load(0) == 0:
				w.Store(0, 1)
				w.Store(2, self)
				dead = w.Load(3) == usync.RobustOwnerDead
				acquired = true
			default:
				selfOwned = w.Load(2) == self
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
		if selfOwned && mp.variant == VariantErrorCheck {
			return ErrDeadlock
		}
		if d > 0 && clk.Now() >= deadline {
			return ErrTimedOut
		}
		if !waiting {
			waiting = true
			mp.sv.Atomically(func(w usync.Words) { w.Store(1, w.Load(1)+1) })
		}
		opts := usync.SleepOpts{}
		if d > 0 {
			opts.Timeout = deadline - clk.Now()
		}
		mp.mu.Lock()
		bi := mp.edgeLocked()
		mp.mu.Unlock()
		// Block in the kernel: the thread is temporarily bound to
		// the LWP that blocks, as in a system call (paper). The
		// sleep breaks on release, on the owner-death sweep
		// (which clears the lock word), and on NOTRECOVERABLE.
		t.NoteBlocked(bi)
		mp.sv.SleepWhile(l, func(w usync.Words) bool {
			return w.Load(0) != 0 && w.Load(3) != usync.RobustNotRecoverable
		}, opts)
		t.NoteUnblocked()
		t.Checkpoint()
	}
}

func (mp *Mutex) tryEnterShared(t *core.Thread) bool {
	self := ownerWord(t)
	acquired := false
	mp.sv.Atomically(func(w usync.Words) {
		if w.Load(3) == usync.RobustNotRecoverable {
			return
		}
		if w.Load(0) == 0 {
			w.Store(0, 1)
			w.Store(2, self)
			if w.Load(3) == usync.RobustOwnerDead {
				w.Store(3, usync.RobustOK) // transparent recovery
			}
			acquired = true
		}
	})
	return acquired
}

func (mp *Mutex) exitShared(t *core.Thread) {
	self := ownerWord(t)
	var hadWaiters, wakeAll, bad bool
	mp.sv.Atomically(func(w usync.Words) {
		if mp.variant == VariantErrorCheck && (w.Load(0) == 0 || w.Load(2) != self) {
			bad = true
			return
		}
		if w.Load(3) == usync.RobustOwnerDead && w.Load(2) == self {
			// Released while still inconsistent: nobody can ever
			// trust the protected state again (ENOTRECOVERABLE).
			// All sleepers wake and fail their acquisitions.
			w.Store(3, usync.RobustNotRecoverable)
			wakeAll = true
		}
		w.Store(0, 0)
		w.Store(2, 0)
		hadWaiters = w.Load(1) > 0
	})
	if bad {
		panic("tsync: mutex_exit of a lock not held by the thread")
	}
	if wakeAll {
		mp.sv.Wake(-1)
	} else if hadWaiters {
		mp.sv.Wake(1)
	}
}
