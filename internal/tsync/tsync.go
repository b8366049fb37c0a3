// Package tsync implements the paper's thread synchronization
// facilities: mutual exclusion locks, condition variables, counting
// semaphores, and multiple-readers/single-writer locks.
//
// Each type follows the paper's rules:
//
//   - A variable statically or dynamically allocated as zero is
//     usable immediately and provides the default implementation
//     variant (all zero values here are valid).
//   - The programmer chooses an implementation variant at
//     initialization time (spin, adaptive, sleep/default,
//     error-checking for mutexes).
//   - Process-shared variants place their state in mapped memory
//     (internal/vm object bytes) and block through the kernel
//     (internal/usync), so threads of different processes — mapping
//     the object at different virtual addresses — synchronize with
//     each other, and a variable placed in a file outlives its
//     creating process.
//
// Operations on unshared variables never enter the simulated kernel
// unless they must block (and for unbound threads not even then: the
// thread parks at user level and its LWP picks another thread).
//
// Every blocking operation takes the calling thread explicitly
// because Go has no implicit current-thread register; see DESIGN.md.
package tsync

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sunosmt/internal/chaos"
	"sunosmt/internal/core"
	"sunosmt/internal/usync"
)

// Errors returned by the fallible acquisition entry points (EnterErr,
// TimedEnter, PErr, ...). They map to the POSIX robust-mutex and
// timed-lock errno values named in the comments.
var (
	// ErrTimedOut: the timed acquisition's deadline expired
	// (ETIMEDOUT).
	ErrTimedOut = errors.New("tsync: timed acquisition expired")
	// ErrOwnerDead: the previous owner died holding the lock; the
	// caller now holds it and must make the protected state
	// consistent, then call MakeConsistent — or release, making the
	// lock permanently unusable (EOWNERDEAD).
	ErrOwnerDead = errors.New("tsync: previous owner died holding the lock")
	// ErrNotRecoverable: an owner-dead holder released the lock
	// without MakeConsistent; it can never be acquired again
	// (ENOTRECOVERABLE).
	ErrNotRecoverable = errors.New("tsync: lock is not recoverable")
	// ErrDeadlock: acquiring would deadlock the calling thread —
	// it already owns the lock, or the wait-for graph closes a
	// cycle through it (EDEADLK). Error-check mutexes only.
	ErrDeadlock = errors.New("tsync: acquisition would deadlock")
)

// nameSeq numbers the lazily-assigned names of unshared primitives so
// wait-for edges and /proc lstatus have something to print.
var nameSeq atomic.Uint64

func autoName(kind string) string {
	return fmt.Sprintf("%s#%d", kind, nameSeq.Add(1))
}

// lazyName returns *name, assigning "kind#N" at first use. The
// object's word lock is held.
func lazyName(name *string, kind string) string {
	if *name == "" {
		*name = autoName(kind)
	}
	return *name
}

// localOwner resolves an unshared object's owner at walk time: the
// thread in *owner, read under the object's word lock mu.
func localOwner(mu *sync.Mutex, owner **core.Thread) func() (core.OwnerRef, bool) {
	return func() (core.OwnerRef, bool) {
		mu.Lock()
		o := *owner
		mu.Unlock()
		if o == nil {
			return core.OwnerRef{}, false
		}
		return core.OwnerRef{TID: o.ID()}, true
	}
}

// sharedOwner resolves a process-shared object's owner at walk time
// from the (pid, tid) in its state word i.
func sharedOwner(sv *usync.Var, i int) func() (core.OwnerRef, bool) {
	return func() (core.OwnerRef, bool) {
		var ow uint64
		sv.Atomically(func(w usync.Words) { ow = w.Load(i) })
		if ow == 0 {
			return core.OwnerRef{}, false
		}
		pid, tid := usync.DecodeOwner(ow)
		return core.OwnerRef{PID: pid, TID: core.ThreadID(tid)}, true
	}
}

// Variant selects a mutex implementation variant, as the paper allows
// at initialization time.
type Variant int

// Mutex variants.
const (
	// VariantDefault parks waiters after a brief adaptive phase.
	VariantDefault Variant = iota
	// VariantSpin never parks: waiters spin (yielding the LWP
	// between probes). Appropriate for short critical sections on
	// multiprocessors.
	VariantSpin
	// VariantAdaptive spins briefly, then parks — explicit version
	// of the default.
	VariantAdaptive
	// VariantErrorCheck records ownership and panics on
	// self-deadlock or on release by a non-owner, matching the
	// paper's "extra debugging" variant. Mutexes are strictly
	// bracketing: releasing a lock not held by the thread is an
	// error.
	VariantErrorCheck
)

// adaptiveSpinCap bounds the owner-running spin phase of
// adaptive/default mutexes: a waiter keeps probing only while the
// owner is observed on a processor (core.Thread.OnCPU), so the spin
// budget tracks observed owner-running time rather than a fixed
// iteration count, and a waiter whose owner is preempted parks
// immediately. The cap catches pathological long critical sections.
const adaptiveSpinCap = 128

// waitq is a queue of parked threads — ordered by descending
// effective priority, FIFO among equals, so pop always wakes the best
// waiter — fronted by the primitive's internal word lock. The word lock (a plain Go mutex) models the
// hardware atomic instruction sequence of a real implementation: it
// is never held while parked. The waiters themselves hang off one
// channel of the core package's sharded sleep-queue table (the
// Solaris turnstile analogue), so enqueue, dequeue and — critically
// for timed waits — middle-of-queue removal are all O(1), and
// primitives hashing to different shards never touch a common lock.
// The channel is allocated lazily under the word lock, keeping the
// paper's "a zero variable is usable immediately" rule.
type waitq struct {
	wc core.WaitChan
}

func (w *waitq) chanOf() core.WaitChan {
	if !w.wc.Valid() {
		w.wc = core.AllocWaitChan()
	}
	return w.wc
}

// chanOfFIFO allocates the queue as a strict arrival-order channel
// instead — the hand-off lock policies' discipline. A given waitq is
// allocated exactly one way (the policy is pinned before its first
// enqueue), so the two allocators never race on one queue.
func (w *waitq) chanOfFIFO() core.WaitChan {
	if !w.wc.Valid() {
		w.wc = core.AllocWaitChanFIFO()
	}
	return w.wc
}

func (w *waitq) push(t *core.Thread) { w.chanOf().Enqueue(t) }

func (w *waitq) pop() *core.Thread {
	if !w.wc.Valid() {
		return nil
	}
	return w.wc.DequeueOne()
}

func (w *waitq) remove(t *core.Thread) bool {
	if !w.wc.Valid() {
		return false
	}
	return w.wc.Remove(t)
}

func (w *waitq) len() int {
	if !w.wc.Valid() {
		return 0
	}
	return w.wc.Len()
}

// popAll empties the queue, returning the waiters in queue
// (priority-then-FIFO) order.
func (w *waitq) popAll() []*core.Thread {
	if !w.wc.Valid() {
		return nil
	}
	return w.wc.DequeueAll()
}

// chaosOf returns the chaos source perturbing t's system (nil — and
// so inert — when chaos is disabled). Spurious wakeups are injected
// only at the park sites in this package because every one of them
// sits in a Mesa-style re-check loop; kernel sleep sites do not all
// tolerate a WakeNormal without the awaited event.
func chaosOf(t *core.Thread) *chaos.Source { return t.Runtime().ChaosSource() }
