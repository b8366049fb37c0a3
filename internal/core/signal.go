package core

import (
	"fmt"

	"sunosmt/internal/sim"
)

// This file implements the thread half of the paper's signal model:
// per-thread signal masks, thread_kill, sigsend(P_THREAD_ALL), trap
// raising, and the delivery of process interrupts to whichever thread
// has them unmasked.
//
// All threads share the process's handler vector (set with
// Runtime.Signal, the signal(2)/sigaction(2) analogue). Each thread
// has its own mask; while a thread runs, the library mirrors its mask
// into the executing LWP, so the kernel routes interrupts only to
// LWPs whose current thread can take them.

// Signal installs a process-wide disposition, like signal(2). handler
// runs in the context of the thread that takes the signal.
func (m *Runtime) Signal(sig sim.Signal, disp sim.Disposition, handler func(*Thread, sim.Signal)) error {
	return m.SignalMask(sig, disp, handler, 0)
}

// SignalMask is Signal with a sigaction-style handler mask, blocked
// in the handling thread for the duration of the handler.
func (m *Runtime) SignalMask(sig sim.Signal, disp sim.Disposition, handler func(*Thread, sim.Signal), handlerMask sim.Sigset) error {
	var cookie any
	if handler != nil {
		cookie = handler
	}
	return m.kern.SetActionCookie(m.proc, sig, disp, nil, cookie, handlerMask)
}

// mask returns the thread's signal mask (thread-safe snapshot).
func (t *Thread) mask() sim.Sigset {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.sigmask
}

// SigSetMask implements thread_sigsetmask: it adjusts the calling
// thread's signal mask and returns the old mask. If the thread is
// running, the LWP's mask is updated immediately; unmasking a
// process-pended signal delivers it at the next checkpoint (which
// this call performs).
func (t *Thread) SigSetMask(how sim.SigHow, set sim.Sigset) sim.Sigset {
	m := t.m
	m.mu.Lock()
	old := t.sigmask
	t.sigmask = sim.ApplyMask(old, how, set)
	m.mu.Unlock()
	if l := t.LWP(); l != nil {
		m.kern.SetLWPMask(l, sim.SigSetMask, t.sigmask)
	}
	t.pollSignals()
	return old
}

// SigMask returns the calling thread's signal mask.
func (t *Thread) SigMask() sim.Sigset { return t.mask() }

// Kill implements thread_kill: it sends sig to a specific thread in
// the same process. The signal behaves like a trap: it is handled
// only by the specified thread, when that thread next runs with the
// signal unmasked.
func (caller *Thread) Kill(target *Thread, sig sim.Signal) error {
	if !sig.Valid() {
		return fmt.Errorf("core: bad signal %d", int(sig))
	}
	m := caller.m
	m.mu.Lock()
	if target.state == ThreadZombie {
		m.mu.Unlock()
		return ErrNoThread
	}
	a := target.auxb()
	a.pending = a.pending.Add(sig)
	masked := target.sigmask.Has(sig)
	parked := target.state == ThreadSleeping || target.state == ThreadWaiting
	m.mu.Unlock()
	if masked {
		return nil // pends on the thread until unmasked
	}
	if parked {
		// Wake the thread so it can handle the signal; the
		// synchronization primitives re-check their condition on
		// spurious wakeups, as they must.
		m.unparkInto(target)
	}
	return nil
}

// SigSendAll implements sigsend(P_THREAD_ALL): sig is sent to every
// thread in the process.
func (caller *Thread) SigSendAll(sig sim.Signal) error {
	m := caller.m
	m.mu.Lock()
	targets := make([]*Thread, 0, len(m.threads))
	for _, t := range m.threads {
		targets = append(targets, t)
	}
	m.mu.Unlock()
	for _, t := range targets {
		if err := caller.Kill(t, sig); err != nil && err != ErrNoThread {
			return err
		}
	}
	return nil
}

// RaiseTrap reports a synchronous trap (SIGFPE, SIGSEGV, ...) caused
// by the calling thread. Per the paper, traps are handled only by the
// thread that caused them. If the trap is caught, its handler runs on
// this thread before RaiseTrap returns; a default disposition
// terminates the process.
func (t *Thread) RaiseTrap(sig sim.Signal) {
	l := t.LWP()
	if l == nil {
		panic("core: RaiseTrap outside a running thread")
	}
	ts, ok := t.m.kern.RaiseTrap(l, sig)
	if !ok {
		return
	}
	t.runHandler(ts)
}

// pollSignals delivers pending signals to the calling thread: first
// thread-directed signals (thread_kill), then process-level signals
// the kernel routed to the executing LWP.
func (t *Thread) pollSignals() {
	m := t.m
	for {
		// Thread-directed pending signals.
		m.mu.Lock()
		a := t.auxb()
		deliverable := a.pending.Minus(t.sigmask)
		sig := deliverable.Lowest()
		if sig != sim.SIGNONE {
			a.pending = a.pending.Del(sig)
		}
		m.mu.Unlock()
		if sig == sim.SIGNONE {
			break
		}
		t.dispatchSignal(sig)
	}
	// Kernel-level (LWP/process) pending signals.
	l := t.LWP()
	if l == nil {
		return
	}
	for {
		ts, ok := m.kern.TakeSignal(l)
		if !ok {
			return
		}
		t.runHandler(ts)
	}
}

// dispatchSignal applies the process disposition to a thread-directed
// signal.
func (t *Thread) dispatchSignal(sig sim.Signal) {
	m := t.m
	disp, kh, cookie, hm := m.kern.ActionInfo(m.proc, sig)
	switch disp {
	case sim.SigIgn:
		return
	case sim.SigCatch:
		t.runHandler(sim.TakenSignal{Sig: sig, Handler: kh, Cookie: cookie, HandlerMask: hm})
		return
	}
	// SIG_DFL: the action affects the whole process (paper: "If a
	// signal handler is marked SIG_DFL or SIG_IGN the action ...
	// affects all the threads in the receiving process").
	if sim.DefaultActionOf(sig) == sim.ActIgnore {
		return
	}
	if l := t.LWP(); l != nil {
		m.kern.ApplyDefault(l, sig)
	}
}

// SigAltStack registers an alternate signal stack for the calling
// thread, which must be bound to an LWP: the paper deems alternate
// stacks too expensive for unbound threads ("this would require a
// system call to establish the alternate stack for each context
// switch"), so they are an LWP capability only.
func (t *Thread) SigAltStack(base, size int64, enabled bool) error {
	if !t.bound() {
		return ErrUnboundAltStack
	}
	t.m.kern.SigAltStack(t.bndLWP, base, size, enabled)
	return nil
}

// ErrUnboundAltStack reports an alternate-stack request by an unbound
// thread.
var ErrUnboundAltStack = fmt.Errorf("core: threads not bound to LWPs may not use alternate signal stacks")

// runHandler executes a caught signal's handler in this thread's
// context with the handler mask in effect, per sigaction semantics:
// the signal itself plus the action's mask are blocked for the
// duration.
func (t *Thread) runHandler(ts sim.TakenSignal) {
	m := t.m
	block := ts.HandlerMask.Add(ts.Sig)
	old := t.SigSetMask(sim.SigBlock, block)
	defer t.SigSetMaskNoPoll(sim.SigSetMask, old)
	if l := t.LWP(); l != nil && t.bound() {
		if m.kern.EnterAltStack(l) {
			defer m.kern.ExitAltStack(l)
		}
	}
	if th, ok := ts.Cookie.(func(*Thread, sim.Signal)); ok {
		th(t, ts.Sig)
		return
	}
	if ts.Handler != nil {
		ts.Handler(ts.Sig)
	}
}

// SigSetMaskNoPoll adjusts the mask without re-polling for signals;
// used when unwinding a handler frame to avoid recursion.
func (t *Thread) SigSetMaskNoPoll(how sim.SigHow, set sim.Sigset) sim.Sigset {
	m := t.m
	m.mu.Lock()
	old := t.sigmask
	t.sigmask = sim.ApplyMask(old, how, set)
	m.mu.Unlock()
	if l := t.LWP(); l != nil {
		m.kern.SetLWPMask(l, sim.SigSetMask, t.sigmask)
	}
	return old
}

// Pending returns the set of signals pending on the thread.
func (t *Thread) Pending() sim.Sigset {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if a := t.aux; a != nil {
		return a.pending
	}
	return 0
}
