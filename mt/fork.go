package mt

import (
	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/vfs"
	"sunosmt/internal/vm"
)

// This file implements process creation and destruction for threads:
// fork (duplicate the whole process), fork1 (duplicate only the
// calling thread), exec, exit, and waiting for children.
//
// Go cannot clone goroutine stacks, so a duplicated thread resumes in
// the child from an explicit continuation: childMain for the calling
// thread, and each other thread's SetForkContinuation (threads
// without one do not reappear). The kernel-side semantics — address
// space copied (MAP_SHARED mappings still shared), descriptor table
// shared entry-by-entry, EINTR delivered to other LWPs' interruptible
// calls, locks in shared memory held across the fork — all follow the
// paper. See DESIGN.md's substitution table.

// Fork1 implements fork1(2): only the calling thread is duplicated
// into the child, which starts by running childMain(childArg). It
// returns the child Proc handle (nil inside the child's world — the
// child is a separate Proc whose main thread is the continuation).
func (p *Proc) Fork1(t *Thread, childMain Func, childArg any) (*Proc, error) {
	return p.forkCommon(t, childMain, childArg, false)
}

// Fork implements fork(2): it duplicates the address space and
// re-creates the same threads in the child. The calling thread
// continues as childMain; every other thread that registered a
// continuation with SetForkContinuation is re-created running it.
func (p *Proc) Fork(t *Thread, childMain Func, childArg any) (*Proc, error) {
	return p.forkCommon(t, childMain, childArg, true)
}

func (p *Proc) forkCommon(t *Thread, childMain Func, childArg any, all bool) (*Proc, error) {
	s := p.Sys
	k := s.Kern

	// Gather continuations before the kernel fork so the set of
	// duplicated threads matches the kernel's LWP duplication.
	type contRec struct {
		fn  Func
		arg any
	}
	var conts []contRec
	if all {
		for _, th := range p.RT.Threads() {
			if th == t {
				continue
			}
			if fn, arg := th.ForkContinuation(); fn != nil {
				conts = append(conts, contRec{fn, arg})
			}
		}
	}

	child, cl, others, err := k.Fork(t.LWP(), all)
	if err != nil {
		return nil, err
	}
	// Duplicate the descriptor table (open-file entries shared) and
	// the address space (private copied, shared still shared).
	p.PF.ForkInto(child)
	cas, err := p.AS.Fork()
	if err != nil {
		return nil, err
	}
	cas.SetFaultFn(child.AddFault)
	child.Mem = cas

	cp, err := s.buildProc(child, func(main *Thread, _ any) {
		for _, c := range conts {
			main.Runtime().Create(c.fn, c.arg, CreateOpts{})
		}
		childMain(main, childArg)
	}, nil, ProcConfig{}, nil)
	if err != nil {
		return nil, err
	}

	// The kernel-side LWP records duplicated by Fork cannot be
	// animated by cloned goroutines; the child's runtime just built
	// its own pool LWP, so retire the placeholders now (after the
	// pool LWP exists, or the child would be finalized as LWP-less).
	k.ExitLWP(cl)
	for _, o := range others {
		k.ExitLWP(o.LWP)
	}
	return cp, nil
}

// Exec replaces the process image: all LWPs (and so all threads) are
// destroyed, the address space is reset, close-on-exec descriptors
// are closed, and the new image's main thread runs newMain on the
// single fresh LWP. The calling thread never returns.
func (p *Proc) Exec(t *Thread, name string, newMain Func, arg any) error {
	nl, err := t.Exec(name)
	if err != nil {
		return err
	}
	p.AS.Reset()
	p.PF.CloseOnExec()
	newRT := core.NewRuntime(p.Sys.Kern, p.proc, core.Config{
		InitialLWP: nl,
	})
	p.RT = newRT
	if _, err := newRT.Start(newMain, arg); err != nil {
		return err
	}
	// The old image's calling thread ends here.
	t.Exit()
	return nil // unreached
}

// WaitChild waits for a child process to exit, like waitpid(2). The
// calling thread's LWP blocks in the kernel; other threads keep
// running. pid < 0 waits for any child.
func (p *Proc) WaitChild(t *Thread, pid sim.PID) (sim.WaitResult, error) {
	return p.Sys.Kern.WaitChild(t.LWP(), pid)
}

// Exit terminates the whole process with the given status, like
// exit(2): all threads are destroyed.
func (p *Proc) Exit(t *Thread, status int) {
	t.ExitProcess(status)
}

// interface checks
var (
	_ vm.Object     = (*vfs.File)(nil)
	_ core.ThreadID = 0
)
