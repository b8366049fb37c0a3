package mt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/usync"
)

// TestLifecycleEventsInRings: the process, LWP, signal, pool, pset
// and owner-death lifecycle lands in the event rings as typed kinds
// with the right pid/lwp. One parent catches a signal, forks a child
// that execs and exits 42, grows its pool on SIGWAITING, binds a
// thread's LWP to a processor set and lets an idle pool LWP age out;
// a second process dies holding a robust shared mutex.
func TestLifecycleEventsInRings(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2, EventRing: 1 << 14, LWPCreateCost: -1, KernelSwitchCost: -1})
	var boundLWP atomic.Int64
	forked := make(chan *Proc, 1)
	ps := sys.PsetCreate()
	if err := sys.PsetAssign(ps, 1); err != nil {
		t.Fatal(err)
	}
	p := spawn(t, sys, "parent", ProcConfig{LWPAgeTime: 20 * time.Millisecond}, func(p *Proc, tt *Thread) {
		defer close(forked)
		rt := tt.Runtime()
		var caught atomic.Bool
		rt.Signal(SIGUSR1, SigCatch, func(*Thread, Signal) { caught.Store(true) })
		p.Kill(SIGUSR1)
		if !yieldUntil(t, tt, "SIGUSR1 caught", caught.Load) {
			return
		}

		// The test waits for the child on the host side, not with
		// WaitChild, whose check-then-sleep window can still lose the
		// child's wakeup under host load.
		childCh := make(chan *Proc, 1)
		child, err := p.Fork1(tt, func(ct *Thread, _ any) {
			(<-childCh).Exec(ct, "image", func(nt *Thread, _ any) { nt.ExitProcess(42) }, nil)
		}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		childCh <- child
		forked <- child

		// SIGWAITING growth, as in TestPollDrivesSIGWAITINGGrowth.
		rfd, wfd, _ := p.Pipe(tt)
		rt.Create(func(c *Thread, _ any) { p.Write(c, wfd, []byte("x")) }, nil, CreateOpts{})
		if _, err := p.Poll(tt, []PollFD{{FD: rfd, Events: PollIn}}, 0); err != nil && !errors.Is(err, sim.ErrIntr) {
			t.Error(err)
		}

		c, _ := rt.Create(func(ct *Thread, _ any) {
			if err := sys.PsetBind(ct, ps); err != nil {
				t.Error(err)
			}
			boundLWP.Store(int64(ct.BoundLWP().ID()))
		}, nil, CreateOpts{Flags: ThreadWait | ThreadBindLWP})
		tt.Wait(c.ID())

		if !pollUntil(10*time.Second, func() bool { return rt.AgedOut() > 0 }) {
			t.Errorf("no LWP aged out (pool %d)", rt.PoolSize())
		}
	})
	c := <-forked
	if c == nil {
		t.Fatal("parent never forked")
	}
	select {
	case <-c.Process().Exited():
	case <-time.After(60 * time.Second):
		t.Fatal("fork1 child never exited")
	}
	if st, _ := c.Process().ExitStatus(); st != 42 {
		t.Errorf("child exit status = %d, want 42", st)
	}
	waitProc(t, p)

	var holder atomic.Int64
	victim := spawn(t, sys, "victim", ProcConfig{}, func(p *Proc, tt *Thread) {
		fd, _ := p.Open(tt, "/shm", OCreate|ORdWr)
		va, _ := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
		mu, err := p.SharedMutexAt(tt, va)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Enter(tt)
		holder.Store(int64(tt.ID()))
		for {
			tt.Checkpoint() // spins holding the lock until killed
		}
	})
	if !pollUntil(10*time.Second, func() bool { return holder.Load() != 0 }) {
		t.Fatal("victim never entered the critical section")
	}
	victim.Kill(SIGKILL)
	waitProc(t, victim)
	// The owner-death sweep runs on a death-hook goroutine.
	pollUntil(10*time.Second, func() bool { return len(sys.Events().Kinds(EvOwnerDead)) > 0 })

	recs, _ := sys.Events().Snapshot()
	dump := ""
	for _, r := range recs {
		if r.CPU == -1 {
			dump += r.String() + "\n"
		}
	}
	// find returns the index of the first record matching want on
	// every nonzero field at or after from, or -1.
	find := func(from int, want EventRecord) int {
		for i := from; i < len(recs); i++ {
			r := recs[i]
			if r.Kind == want.Kind && r.CPU == -1 &&
				(want.PID == 0 || r.PID == want.PID) && (want.LWP == 0 || r.LWP == want.LWP) &&
				(want.TID == 0 || r.TID == want.TID) && (want.Arg == 0 || r.Arg == want.Arg) {
				return i
			}
		}
		return -1
	}
	parent, child := int32(p.PID()), int32(c.PID())
	for _, c := range []struct {
		what string
		want EventRecord
	}{
		{"signal taken", EventRecord{Kind: EvSignal, PID: parent, Arg: uint64(SIGUSR1)}},
		{"child created", EventRecord{Kind: EvProcCreate, PID: child, Arg: uint64(parent)}},
		{"child LWP", EventRecord{Kind: EvLWPCreate, PID: child, LWP: 1}},
		{"fork1", EventRecord{Kind: EvFork, PID: parent, Arg: uint64(child)}},
		{"child exits 42", EventRecord{Kind: EvProcExit, PID: child, Arg: 42}},
		{"pset bind", EventRecord{Kind: EvPset, PID: parent, LWP: int32(boundLWP.Load()), Arg: uint64(ps)}},
		// Only SIGWAITING grows the parent's pool to two LWPs.
		{"SIGWAITING", EventRecord{Kind: EvSigwaiting, PID: parent}},
		{"SIGWAITING pool growth", EventRecord{Kind: EvPoolGrow, PID: parent, Arg: 2}},
		{"pool age", EventRecord{Kind: EvPoolAge, PID: parent}},
		{"owner dead", EventRecord{Kind: EvOwnerDead, PID: int32(victim.PID()), TID: int32(holder.Load()),
			Arg: uint64(usync.KindMutex)}},
	} {
		if find(0, c.want) < 0 {
			t.Errorf("no %s record %+v in the rings:\n%s", c.what, c.want, dump)
		}
	}
	// exec consumes the calling LWP: it exits after the exec record.
	if ex := find(0, EventRecord{Kind: EvExec, PID: child}); ex < 0 || recs[ex].LWP == 0 ||
		find(ex, EventRecord{Kind: EvLWPExit, PID: child, LWP: recs[ex].LWP}) < 0 {
		t.Errorf("no exec by a child LWP that then exits:\n%s", dump)
	}
}
