// Package usync is the kernel-mediated blocking path for
// process-shared synchronization variables.
//
// The paper: "Synchronization variables that are in shared memory or
// in files are also unknown to the kernel unless a thread is blocked
// on them. In the latter case the thread is temporarily bound to the
// LWP that is blocked by the kernel, as in a system call."
//
// A shared synchronization variable is identified by the (object,
// offset) pair of the underlying mapped object — never by a virtual
// address, since the sharing processes may map the object at
// different addresses. This package keeps one kernel wait queue and
// one word-lock per variable identity; the word-lock stands in for
// the hardware atomic instructions that real implementations use on
// the shared word, so the uncontended paths of the primitives built
// on top never enter the (simulated) kernel.
//
// The state words themselves live in the mapped object's bytes, so a
// synchronization variable placed in a file keeps its state across
// process lifetimes, exactly as the paper requires.
package usync

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/vm"
)

// Registry maps variable identities to their kernel-side state. One
// Registry serves a whole simulated machine.
type Registry struct {
	kern *sim.Kernel
	mu   sync.Mutex
	vars map[varKey]*varState
}

type varKey struct {
	obj uint64
	off int64
}

type varState struct {
	wordMu sync.Mutex // models the hardware atomic on the shared words
	// word is the transfer buffer of Words.Load/Store, guarded by
	// wordMu. A stack buffer would escape through the vm.Object
	// interface call and cost a heap allocation per word access.
	word [8]byte
	wq   *sim.WaitQ
	// obj is the backing object, retained so the owner-death sweep
	// can reach the state words without a per-process handle; kind
	// tells the sweep which word layout the variable uses. Both are
	// guarded by Registry.mu.
	obj  vm.Object
	kind Kind
}

// NewRegistry creates a registry bound to a kernel. The registry
// hooks process death so shared variables owned by a dead process are
// marked OWNERDEAD and their waiters woken (robust-mutex semantics).
func NewRegistry(kern *sim.Kernel) *Registry {
	r := &Registry{kern: kern, vars: make(map[varKey]*varState)}
	kern.AddDeathHook(func(p *sim.Process) { r.SweepOwnerDead(p.PID()) })
	return r
}

// Kernel returns the registry's kernel.
func (r *Registry) Kernel() *sim.Kernel { return r.kern }

// Var returns the handle for the synchronization variable at (obj,
// off). Handles obtained by different processes for the same identity
// share one wait queue and one word-lock.
func (r *Registry) Var(obj vm.Object, off int64) *Var {
	key := varKey{obj.ObjectID(), off}
	r.mu.Lock()
	st, ok := r.vars[key]
	if !ok {
		st = &varState{wq: sim.NewWaitQ(fmt.Sprintf("usync:%d+%d", key.obj, key.off)), obj: obj}
		r.vars[key] = st
	}
	r.mu.Unlock()
	return &Var{reg: r, obj: obj, off: off, st: st}
}

// NumVars reports how many variable identities the registry tracks.
func (r *Registry) NumVars() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.vars)
}

// Var is a handle on one shared synchronization variable. The
// variable's state is an array of 64-bit words in the backing
// object's bytes starting at the variable's offset.
type Var struct {
	reg *Registry
	obj vm.Object
	off int64
	st  *varState
}

// WaitQ exposes the variable's kernel wait queue (for tests and
// debugging tools).
func (v *Var) WaitQ() *sim.WaitQ { return v.st.wq }

// Name returns the variable's system-wide identity string (the wait
// queue name), stable across the processes sharing it.
func (v *Var) Name() string { return v.st.wq.Name() }

// Words provides load/store access to the variable's state words
// while the word-lock is held.
type Words struct{ v *Var }

// Load returns state word i.
func (w Words) Load(i int) uint64 {
	b := w.v.st.word[:]
	if err := w.v.obj.ReadObject(b, w.v.off+int64(8*i)); err != nil {
		panic(fmt.Sprintf("usync: load word %d: %v", i, err))
	}
	return binary.LittleEndian.Uint64(b)
}

// Store sets state word i.
func (w Words) Store(i int, x uint64) {
	b := w.v.st.word[:]
	binary.LittleEndian.PutUint64(b, x)
	if err := w.v.obj.WriteObject(b, w.v.off+int64(8*i)); err != nil {
		panic(fmt.Sprintf("usync: store word %d: %v", i, err))
	}
}

// Atomically runs f with the variable's word-lock held, giving f
// consistent access to the state words. This stands in for the
// load-store-conditional / test-and-set sequence of a real
// implementation: it involves no kernel entry.
func (v *Var) Atomically(f func(Words)) {
	v.st.wordMu.Lock()
	defer v.st.wordMu.Unlock()
	f(Words{v})
}

// SleepOpts re-exports the kernel sleep options for callers.
type SleepOpts = sim.SleepOpts

// SleepWhile blocks l on the variable's wait queue if cond (evaluated
// atomically with respect to Atomically sections) still holds at
// commit time. Returns the wake result and whether the LWP actually
// slept. Callers use the standard futex loop:
//
//	for {
//	    acquired := false
//	    v.Atomically(func(w Words){ ... try; acquired = ... })
//	    if acquired { return }
//	    v.SleepWhile(l, func(w Words) bool { return stillContended(w) }, opts)
//	}
func (v *Var) SleepWhile(l *sim.LWP, cond func(Words) bool, opts SleepOpts) (sim.WakeResult, bool) {
	k := v.reg.kern
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	return k.SleepIf(l, v.st.wq, func() bool {
		v.st.wordMu.Lock()
		defer v.st.wordMu.Unlock()
		return cond(Words{v})
	}, opts)
}

// Wake wakes up to n LWPs blocked on the variable (n < 0: all) and
// returns how many were woken. Callers must not hold the word-lock
// (i.e. call it after Atomically returns).
func (v *Var) Wake(n int) int {
	return v.reg.kern.Wakeup(v.st.wq, n)
}

// Waiters reports how many LWPs are blocked on the variable.
func (v *Var) Waiters() int { return v.st.wq.Len(v.reg.kern) }

// SleepWhileTimeout is SleepWhile with a bound.
func (v *Var) SleepWhileTimeout(l *sim.LWP, cond func(Words) bool, d time.Duration) (sim.WakeResult, bool) {
	return v.SleepWhile(l, cond, SleepOpts{Interruptible: true, Timeout: d})
}
