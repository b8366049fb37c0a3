package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/internal/ktime"
	"sunosmt/internal/sim"
	"sunosmt/internal/trace"
)

// ThreadID identifies a thread within its process; thread IDs have no
// meaning outside the process (paper).
type ThreadID int

// Func is a thread body. Because Go provides no implicit
// thread-local "current thread" register, the thread handle is passed
// explicitly as the first argument; every potentially-blocking
// library call takes the calling thread. This is the one deliberate
// API deviation from Figure 4 and is recorded in DESIGN.md.
type Func func(t *Thread, arg any)

// CreateFlags are the or'able options of thread_create.
type CreateFlags int

// thread_create flags (paper, "Thread creation").
const (
	// ThreadStop: the thread is created suspended and will not run
	// until Continue.
	ThreadStop CreateFlags = 1 << iota
	// ThreadNewLWP: create a new LWP and add it to the pool used
	// to execute unbound threads.
	ThreadNewLWP
	// ThreadBindLWP: create a new LWP and permanently bind the new
	// thread to it.
	ThreadBindLWP
	// ThreadWait: another thread will eventually thread_wait for
	// this one; its ID is not reused until then.
	ThreadWait
	// ThreadDaemon threads do not keep the process alive: the
	// process exits when only daemon threads remain. (An extension
	// present in the shipped Solaris library.)
	ThreadDaemon
)

// ThreadState is the library-level state of a thread.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadRunning
	ThreadSleeping // blocked on a synchronization object
	ThreadStopped
	ThreadWaiting // in thread_wait
	ThreadZombie
)

// String implements fmt.Stringer.
func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadSleeping:
		return "sleeping"
	case ThreadStopped:
		return "stopped"
	case ThreadWaiting:
		return "waiting"
	case ThreadZombie:
		return "zombie"
	}
	return fmt.Sprintf("ThreadState(%d)", int(s))
}

// Errors returned by thread operations.
var (
	ErrNoThread   = errors.New("core: no such thread")
	ErrNotWaited  = errors.New("core: thread was not created with THREAD_WAIT")
	ErrSelfWait   = errors.New("core: cannot wait for the current thread")
	ErrDoubleWait = errors.New("core: another thread is already waiting")
	ErrBadPrio    = errors.New("core: priority must be >= 0")
	ErrExiting    = errors.New("core: process is exiting")
	ErrNotBound   = errors.New("core: thread is not bound to an LWP")

	// ErrAgain is EAGAIN — thr_create's documented failure when "a
	// system limit is exceeded": the per-process thread cap, a stack
	// allocation failure, or the kernel refusing another LWP. One
	// sentinel (the kernel's) is shared across layers so callers
	// test errors.Is(err, ErrAgain) regardless of which resource ran
	// out. Always transient: retry later or shed the request.
	ErrAgain = sim.ErrAgain
)

// CreateOpts carries the optional thread_create parameters.
type CreateOpts struct {
	Flags CreateFlags
	// Stack is the caller-supplied stack (stack_addr/stack_size);
	// nil means the library allocates (and caches) a default
	// stack. Thread-local storage is carved from the top of a
	// caller-supplied stack so the library never calls malloc on
	// the caller's behalf (paper design goal).
	Stack []byte
	// StackSize requests a specific library-allocated stack size
	// when Stack is nil.
	StackSize int
	// Priority sets the initial priority when > 0; the zero value
	// keeps the library default (1). Higher values win.
	Priority int
}

// Thread is a user-level thread: per the paper its unique state is
// the thread ID, register state (here: the goroutine and gate),
// stack, signal mask, priority, and thread-local storage.
type Thread struct {
	m     *Runtime
	id    ThreadID
	flags CreateFlags
	fn    Func
	arg   any

	gate chan struct{} // run grant; buffered(1)

	// Intrusive run-queue node (Solaris: t_link on the disp_q). All
	// four fields are guarded by the lock of the dispatcher shard
	// the thread is (or was last) queued on.
	rqNext, rqPrev *Thread
	rqLevel        int
	rqOn           bool
	rqSeq          uint64 // global push sequence; cross-shard FIFO tiebreak

	// shard is the dispatcher shard the thread queues on: the shard
	// it is queued on now, or the one it last ran from (wakeups
	// queue it back there, cache-affine). -1 before the first
	// enqueue. Atomic: remove/requeue read it lock-free and confirm
	// under the shard lock.
	shard atomic.Int32

	// poppedFrom is the shard index the most recent dispatcher pop
	// took the thread from, or -1 before its first pop. The dispatch
	// trace records it (as shard+1) in EvThreadRun's Arg so a
	// schedule journal captures which queue the pop chose — the one
	// dispatcher decision the event stream otherwise loses.
	poppedFrom atomic.Int32

	// Intrusive sleep-queue node. sqNext/sqPrev are guarded by the
	// shard lock of the channel the thread is queued on; sqBkt
	// itself is atomic so teardown can read it without that lock.
	sqNext, sqPrev *Thread
	sqBkt          atomic.Pointer[sleepqBucket]

	// waitWC is the thread_wait sleep channel of this thread:
	// threads waiting for this one to exit park here. Immutable
	// after create.
	waitWC WaitChan

	// onCPU mirrors whether the thread currently holds a processor
	// grant. Advisory (read lock-free by the adaptive mutex spin
	// policy: spin while the owner is observed running).
	onCPU atomic.Bool

	// blocked is the wait-for edge published just before parking on
	// a synchronization object; atomic so the hot park/unpark path
	// publishes it without touching Runtime.mu.
	blocked atomic.Pointer[BlockInfo]

	// effPrio is the effective (inherited) dispatch priority: the
	// base priority plus any boost willed through held turnstiles.
	// The run queue and the sleep queues order by it. Written only
	// under m.mu (setEffLocked); atomic so the inheritance walk and
	// the sleep-queue insert read it without m.mu.
	effPrio atomic.Int32

	// heldTs heads the list of turnstiles this thread owns (the
	// locks it holds that track ownership); guarded by m.mu.
	heldTs *Turnstile

	// tp is the timed-park state (ParkTimed), built at the thread's
	// first timed wait. It is kept across shell recycling with its
	// timer, which may still owe a late call to a previous wait.
	tp *timedPark

	// All fields below are guarded by m.mu unless noted.
	state      ThreadState
	prio       int
	lwp        *poolLWP // while running unbound
	bndLWP     *sim.LWP // bound threads only; immutable after create
	started    bool
	killed     bool
	preempt    bool
	stopReq    bool
	wakePermit bool
	sigmask    sim.Sigset // also mirrored into the LWP while running
	errno      int

	// Stack descriptor. Library stacks are reservations in the
	// process address space (or the built-in flat mapper): stkBase/
	// stkSize name the carve and stackOwn marks it library-owned.
	// A caller-supplied stack keeps its bytes in stack.
	stkBase  int64
	stkSize  int64
	stackOwn bool
	stack    []byte // caller-supplied stack only
	tls      []byte // thread-local storage block (pooled)

	// aux is the cold half of the thread: TSD slots, wait/exit
	// bookkeeping, signal pending set, fork continuation, and
	// microstate accounting. It is split out so the hot scheduling
	// fields above pack tightly, and it recycles with the shell
	// through the freelist. Guarded by m.mu unless noted.
	aux *threadAux
}

// threadAux holds the demoted cold per-thread state. One block is
// allocated per shell and scrubbed at reuse (deferred scrub: a
// retired thread's handle keeps readable microstates until a later
// create recycles the struct, like pthread_t reuse).
type threadAux struct {
	// tsd is the thread-specific-data slot table, indexed by TSDKey.
	// Owner-thread access only (no lock): see tsd.go.
	tsd []any

	stopWaiters []*Thread
	pending     sim.Sigset // thread-directed pending signals
	forkCont    Func
	forkArg     any

	// Microstate accounting (see microstate.go): the state being
	// charged, the virtual time of the last transition, birth time,
	// and the per-state accumulators. Guarded by m.mu.
	msState Microstate
	msMark  time.Duration
	msBorn  time.Duration
	msAcc   [NumMicrostates]time.Duration
}

// auxb returns the thread's aux block, allocating it if the thread
// has never had one. Threads obtained through Create always have one;
// the allocation covers zero-value handles defensively.
func (t *Thread) auxb() *threadAux {
	if t.aux == nil {
		t.aux = &threadAux{}
	}
	return t.aux
}

// ID implements thread_get_id for this thread handle.
func (t *Thread) ID() ThreadID { return t.id }

// Runtime returns the owning threads library instance.
func (t *Thread) Runtime() *Runtime { return t.m }

// State reports the thread's current state.
func (t *Thread) State() ThreadState {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.state
}

// Bound reports whether the thread is permanently bound to an LWP.
func (t *Thread) Bound() bool { return t.bndLWP != nil }

// BoundLWP returns the LWP a bound thread is permanently attached to,
// or nil for an unbound thread. Kernel scheduling controls that
// outlive a single dispatch — priocntl, pset_bind, processor_bind —
// only make sense against this LWP.
func (t *Thread) BoundLWP() *sim.LWP { return t.bndLWP }

func (t *Thread) bound() bool { return t.bndLWP != nil }

// LWP returns the LWP currently executing the thread. For bound
// threads this never changes; for unbound threads it is only
// meaningful from the thread itself while running.
func (t *Thread) LWP() *sim.LWP {
	if t.bndLWP != nil {
		return t.bndLWP
	}
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.lwp != nil {
		return t.lwp.l
	}
	return nil
}

// grant hands the CPU to the thread's goroutine.
func (t *Thread) grant() { t.gate <- struct{}{} }

// Create implements thread_create: it allocates the thread and makes
// it runnable (or stopped, with ThreadStop). Creation of an unbound
// thread involves no kernel call — the property behind the 42x ratio
// in the paper's Figure 5 — and in steady state no heap allocation
// either: the shell, its gate channel, its TSD/microstate block, its
// TLS block, and its stack reservation all come from the runtime's
// freelists, refilled by exiting threads.
func (m *Runtime) Create(fn Func, arg any, opts CreateOpts) (*Thread, error) {
	if fn == nil {
		return nil, fmt.Errorf("core: nil thread function")
	}
	m.mu.Lock()
	if m.dying.Load() {
		m.mu.Unlock()
		return nil, ErrExiting
	}
	if m.cfg.MaxThreads > 0 && m.nlive >= m.cfg.MaxThreads {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: %d live threads at cap %d: %w", m.nlive, m.cfg.MaxThreads, ErrAgain)
	}
	m.tlsFrozen = true
	// Stack: caller-supplied, else a reservation from the library's
	// cache (TLS lives in its own pooled block; a caller-supplied
	// stack carries TLS at its top so the library never calls malloc
	// on the caller's behalf).
	tlsSize := m.tlsSize
	var (
		span  stackSpan
		stack []byte
		tls   []byte
		own   bool
	)
	switch {
	case opts.Stack != nil:
		stack = opts.Stack
		if len(stack) < tlsSize {
			m.mu.Unlock()
			return nil, fmt.Errorf("core: stack smaller than thread-local storage (%d < %d)", len(stack), tlsSize)
		}
		if tlsSize > 0 {
			tls = stack[len(stack)-tlsSize:]
		}
	default:
		size := opts.StackSize
		if size <= 0 {
			size = m.cfg.DefaultStackSize
		}
		if m.kern.Chaos().StackFail() {
			m.mu.Unlock()
			return nil, fmt.Errorf("core: transient stack allocation failure: %w", ErrAgain)
		}
		var err error
		span, err = m.stackFromCacheLocked(int64(size))
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
		own = true
		tls = m.tlsFromCacheLocked()
	}
	clear(tls) // TLS starts zeroed (paper)
	t := m.allocThreadLocked()
	m.nextID++
	t.m = m
	t.id = m.nextID
	t.flags = opts.Flags
	t.fn = fn
	t.arg = arg
	t.prio = 1
	if opts.Priority > 0 {
		t.prio = opts.Priority
	}
	t.effPrio.Store(int32(t.prio))
	t.shard.Store(-1) // first enqueue places round-robin
	t.poppedFrom.Store(-1)
	t.stack = stack
	t.stkBase, t.stkSize = span.base, span.size
	t.stackOwn = own
	t.tls = tls
	m.threads[t.id] = t
	m.nlive++
	if opts.Flags&ThreadDaemon != 0 {
		m.ndaemon++
	}
	bind := opts.Flags&ThreadBindLWP != 0
	now := m.kern.Clock().Now()
	if opts.Flags&ThreadStop != 0 {
		t.state = ThreadStopped
		t.stopReq = true
		t.msInitLocked(now, MSStopped)
	} else {
		t.state = ThreadRunnable
		t.msInitLocked(now, MSRunq)
	}
	m.mu.Unlock()

	if opts.Flags&ThreadNewLWP != 0 && !bind {
		// THREAD_NEW_LWP increments the pool. A refused LWP refuses
		// the whole create, and the half-built thread is unwound so
		// a failed thr_create leaves no trace (EAGAIN semantics).
		if err := m.addPoolLWP(); err != nil {
			m.uncreate(t)
			return nil, err
		}
	}
	if bind {
		l, err := m.kern.NewLWP(m.proc, sim.ClassTS, 30)
		if err != nil {
			m.uncreate(t)
			return nil, err
		}
		t.bndLWP = l
		m.exitWG.Add(1)
		m.mu.Lock()
		t.started = true
		m.mu.Unlock()
		go t.boundMain()
		return t, nil
	}
	if opts.Flags&ThreadStop == 0 {
		m.enqueue(t)
	}
	return t, nil
}

// uncreate unwinds a registered thread after a failed create (the
// LWP-acquiring tail of Create refused). The thread never ran and was
// never enqueued, so unwinding is pure deregistration: close its
// microstate interval, drop it from the thread table, and return its
// stack, TLS block, and shell to the freelists. Afterwards no runq
// link, sleepq link, turnstile, TLS block, or lock-graph vertex
// refers to it — the invariant the exhaustion chaos sweep asserts.
func (m *Runtime) uncreate(t *Thread) {
	m.mu.Lock()
	t.state = ThreadZombie
	t.msFinalLocked(m.kern.Clock().Now())
	delete(m.threads, t.id)
	m.nlive--
	if t.flags&ThreadDaemon != 0 {
		m.ndaemon--
	}
	m.freeThreadLocked(t)
	m.mu.Unlock()
}

// enqueue makes an unbound thread runnable and finds it an LWP.
func (m *Runtime) enqueue(t *Thread) {
	m.mu.Lock()
	wake := m.enqueueLocked(t)
	m.mu.Unlock()
	if wake != nil {
		m.kern.Unpark(wake.l)
	}
}

// enqueueLocked makes t runnable and returns the idle pool LWP the
// caller must unpark after dropping m.mu, if any. Caller holds m.mu.
func (m *Runtime) enqueueLocked(t *Thread) *poolLWP {
	if t.state == ThreadZombie || m.dying.Load() {
		return nil
	}
	t.state = ThreadRunnable
	t.msSwitchLocked(m.kern.Clock().Now(), MSRunq)
	m.disp.push(t)
	// Wake an idle LWP if there is one; otherwise ask a
	// lower-priority running thread to yield.
	var wake *poolLWP
	if n := len(m.idle); n > 0 {
		wake = m.idle[n-1]
		m.idle = m.idle[:n-1]
	} else {
		m.flagPreemptionLocked(int(t.effPrio.Load()))
	}
	return wake
}

// flagPreemptionLocked marks the lowest-effective-priority running
// unbound thread for preemption if it is beneath prio.
func (m *Runtime) flagPreemptionLocked(prio int) {
	var victim *Thread
	for _, pl := range m.pool {
		if pl.cur != nil && (victim == nil || pl.cur.effPrio.Load() < victim.effPrio.Load()) {
			victim = pl.cur
		}
	}
	if victim != nil && int(victim.effPrio.Load()) < prio {
		victim.preempt = true
	}
}

// threadMain runs one incarnation of an unbound thread on the calling
// animator goroutine. It reports whether the goroutine may animate
// another thread afterwards: true after a normal retire, false when a
// kernel unwind (process death, exec) tore through the body.
func (t *Thread) threadMain() (reusable bool) {
	defer t.releaseOnUnwind()
	<-t.gate // first dispatch
	t.checkKilledPanic()
	t.pollSignals()
	t.callBody()
	t.retire()
	return true
}

// callBody runs the thread function, turning Thread.Exit's panic into
// a normal return and any other panic into a simulated process abort.
// Kernel unwinds pass through untouched.
func (t *Thread) callBody() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if te, ok := r.(threadExitPanic); ok && te.t == t {
			return
		}
		if sim.IsUnwind(r) {
			panic(r)
		}
		t.abortProcess(r)
	}()
	t.fn(t, t.arg)
}

// abortProcess contains a panicking thread body: the panic becomes a
// fatal-SIGABRT-with-core death of the simulated process (observable
// through WaitExit), never a crash of the host binary or of any other
// simulated process. It does not return — Kernel.Abort unwinds, and
// the normal unwind recovery retires the LWP.
func (t *Thread) abortProcess(r any) {
	msg := fmt.Sprintf("thread %d panic: %v\n%s", t.id, r, debug.Stack())
	l := t.LWP()
	if l == nil {
		// The thread lost its LWP (it raced with process death);
		// unwind like any other torn-down thread.
		panic(&sim.Unwind{Proc: t.m.proc, Reason: "panic during teardown"})
	}
	t.m.kern.Abort(l, msg)
}

// releaseOnUnwind recovers a kernel unwind (process death, exec,
// exit) that tore through the thread body. It accounts the thread as
// gone and, crucially, releases the LWP dispatcher goroutine that is
// waiting for this thread to hand control back.
func (t *Thread) releaseOnUnwind() {
	r := recover()
	if r == nil {
		return
	}
	if !sim.IsUnwind(r) {
		panic(r)
	}
	m := t.m
	m.threadGone(t)
	m.mu.Lock()
	var pl *poolLWP
	for _, x := range m.pool {
		if x.cur == t {
			pl = x
			break
		}
	}
	m.mu.Unlock()
	if pl != nil {
		yieldLWP(pl)
	}
	m.sweepIfDying()
}

// boundMain is the goroutine body of a bound thread: it animates its
// own LWP for the thread's whole life.
func (t *Thread) boundMain() {
	defer t.m.exitWG.Done()
	defer func() {
		r := recover()
		if r != nil && !sim.IsUnwind(r) {
			panic(r)
		}
		t.m.kern.ExitLWP(t.bndLWP)
		if r != nil {
			t.m.threadGone(t)
			t.m.sweepIfDying()
		}
	}()
	m := t.m
	m.kern.Start(t.bndLWP)
	m.kern.SetLWPMask(t.bndLWP, sim.SigSetMask, t.mask())
	m.touchStack(t) // first frame: commit the top of the stack carve
	m.mu.Lock()
	stopped := t.stopReq
	if !stopped {
		t.state = ThreadRunning
		t.msSwitchLocked(m.kern.Clock().Now(), MSUser)
	}
	m.mu.Unlock()
	t.onCPU.Store(true)
	if stopped {
		t.parkSelf(ThreadStopped)
	}
	t.pollSignals()
	t.callBody()
	t.retire()
}

// currentPL returns the pool LWP the thread is on, or nil.
func (t *Thread) currentPL() *poolLWP {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.lwp
}

// parkSelf blocks the calling thread with the given state until
// someone re-enqueues it. This is the user-level context switch: for
// unbound threads control returns to the LWP dispatcher with no
// kernel involvement. A wake permit left by an earlier Unpark (the
// wake raced ahead of the park) is consumed and the park elided, so
// the synchronization primitives built on park/unpark are race-free.
func (t *Thread) parkSelf(state ThreadState) {
	m := t.m
	m.mu.Lock()
	switch state {
	case ThreadSleeping, ThreadWaiting:
		if t.wakePermit && !t.bound() {
			t.wakePermit = false
			m.mu.Unlock()
			return
		}
	case ThreadStopped:
		// A thread_continue that raced ahead of this park wins:
		// the stop never takes effect.
		if !t.stopReq {
			m.mu.Unlock()
			return
		}
	}
	if t.bound() {
		t.state = state
		t.msSwitchLocked(m.kern.Clock().Now(), t.msParkState(state))
		m.mu.Unlock()
		t.onCPU.Store(false)
		if state == ThreadStopped {
			t.noteStopped()
		}
		m.kern.Park(t.bndLWP) // kernel park has its own permit
		m.mu.Lock()
		t.state = ThreadRunning
		t.msSwitchLocked(m.kern.Clock().Now(), MSUser)
		m.mu.Unlock()
		t.onCPU.Store(true)
		t.stopIfRequested(state)
		return
	}
	pl := t.lwp
	t.state = state
	t.msSwitchLocked(m.kern.Clock().Now(), t.msParkState(state))
	t.lwp = nil
	if pl != nil && pl.cur == t {
		// Release the dispatcher's claim now, not when it next runs:
		// if this thread is re-dispatched elsewhere and exits before
		// pl's dispatcher drains back, a stale pl.cur would make
		// releaseOnUnwind hand the exit token to the wrong LWP.
		pl.cur = nil
	}
	m.mu.Unlock()
	t.onCPU.Store(false)
	if state == ThreadStopped {
		t.noteStopped()
	}
	m.rings.Record(pl.l.CurCPU(), trace.EvThreadPark, int(m.proc.PID()), int(pl.l.ID()), int(t.id), uint64(state))
	yieldLWP(pl)
	<-t.gate
	t.checkKilledPanic()
	t.stopIfRequested(state)
}

// stopIfRequested honours a thread_stop that arrived while the thread
// was parked: the wake becomes a stop at this dispatch point rather
// than a resumption.
func (t *Thread) stopIfRequested(prev ThreadState) {
	if prev == ThreadStopped {
		return // just woke from the stop itself
	}
	t.m.mu.Lock()
	stop := t.stopReq
	t.m.mu.Unlock()
	if stop {
		t.parkSelf(ThreadStopped)
	}
}

// checkKilledPanic unwinds a thread whose wake raced with process
// death — whether the grant came from the dying sweep or from a
// dispatcher that lost the race. The unwind lands in releaseOnUnwind,
// which hands the LWP back to any dispatcher still waiting on it; a
// plain return here would leave that dispatcher blocked forever.
func (t *Thread) checkKilledPanic() bool {
	t.m.mu.Lock()
	killed := t.killed || t.m.dying.Load()
	t.m.mu.Unlock()
	if killed {
		panic(&sim.Unwind{Proc: t.m.proc, Reason: "process dying"})
	}
	return false
}

// unparkInto re-enqueues a previously parked thread. If the thread
// has not parked yet (the wake raced ahead), a wake permit is left
// for its park to consume.
func (m *Runtime) unparkInto(t *Thread) {
	if t.bound() {
		m.mu.Lock()
		if t.state != ThreadZombie {
			t.state = ThreadRunnable
			t.msSwitchLocked(m.kern.Clock().Now(), MSRunq)
		}
		m.mu.Unlock()
		m.kern.Unpark(t.bndLWP)
		return
	}
	// The state check and the enqueue share one critical section: two
	// racing unparks of a parked thread must enqueue it once and leave
	// the other wake as a permit, not push it on the run queue twice.
	m.mu.Lock()
	var wake *poolLWP
	switch t.state {
	case ThreadSleeping, ThreadWaiting:
		wake = m.enqueueLocked(t)
	case ThreadZombie:
	default:
		t.wakePermit = true
	}
	m.mu.Unlock()
	if wake != nil {
		m.kern.Unpark(wake.l)
	}
}

// Unpark makes a thread parked with Park runnable again (or leaves a
// wake permit if it has not parked yet). The synchronization package
// uses this as the wake half of its sleep queues.
func (t *Thread) Unpark() { t.m.unparkInto(t) }

// OnCPU reports whether the thread currently holds a processor grant.
// Advisory and lock-free: the adaptive mutex spin policy uses it to
// spin only while the lock owner is observed running.
func (t *Thread) OnCPU() bool { return t.onCPU.Load() }

// UnparkAll wakes a batch of parked threads — the multi-thread wakeup
// of Cond.Broadcast, rwlock release, and thread exit. Threads of one
// runtime are re-enqueued in a single pass over the scheduler lock
// instead of one lock round-trip per waiter.
func UnparkAll(ts []*Thread) {
	for i := 0; i < len(ts); {
		m := ts[i].m
		j := i + 1
		for j < len(ts) && ts[j].m == m {
			j++
		}
		m.unparkBatch(ts[i:j])
		i = j
	}
}

// unparkBatch is unparkInto over a batch of this runtime's threads:
// one Runtime.mu critical section inserts every waking thread into
// the run queue, then idle LWPs are kicked (and at most one
// preemption flagged) outside the lock.
func (m *Runtime) unparkBatch(ts []*Thread) {
	if len(ts) == 0 {
		return
	}
	if len(ts) == 1 {
		m.unparkInto(ts[0])
		return
	}
	var kicks []*sim.LWP
	m.mu.Lock()
	now := m.kern.Clock().Now()
	maxPrio := -1
	woken := 0
	for _, t := range ts {
		if t.bound() {
			if t.state != ThreadZombie {
				t.state = ThreadRunnable
				t.msSwitchLocked(now, MSRunq)
			}
			kicks = append(kicks, t.bndLWP)
			continue
		}
		switch t.state {
		case ThreadSleeping, ThreadWaiting:
			if m.dying.Load() {
				continue // the sweep owns these threads now
			}
			t.state = ThreadRunnable
			t.msSwitchLocked(now, MSRunq)
			m.disp.push(t)
			woken++
			if p := int(t.effPrio.Load()); p > maxPrio {
				maxPrio = p
			}
		case ThreadZombie:
		default:
			t.wakePermit = true
		}
	}
	for woken > 0 && len(m.idle) > 0 {
		pl := m.idle[len(m.idle)-1]
		m.idle = m.idle[:len(m.idle)-1]
		kicks = append(kicks, pl.l)
		woken--
	}
	if woken > 0 && maxPrio >= 0 {
		m.flagPreemptionLocked(maxPrio)
	}
	m.mu.Unlock()
	for _, l := range kicks {
		m.kern.Unpark(l)
	}
}

// Park blocks the calling thread as sleeping on a synchronization
// object until Unpark. For an unbound thread this switches to another
// thread with no kernel involvement.
func (t *Thread) Park() { t.parkSelf(ThreadSleeping) }

// Dequeuer removes a parked thread from the wait queue of the object
// it parked on. A primitive hands one to ParkTimed; it is typically
// the primitive itself under another method set, so arming a timed
// wait builds no closure.
type Dequeuer interface {
	// Dequeue removes t under the object's own lock and reports
	// whether t was still queued. False means a real wake already
	// took t off the queue.
	Dequeue(t *Thread) bool
}

// timedPark is a thread's timed-wait state: one timer, built at the
// first timed wait and re-armed by every later one under the
// generation rule of ktime.WaitTimer, so a late call of an earlier
// wait can never dequeue or unpark the thread out of a later one,
// whatever primitive that wait is on.
type timedPark struct {
	mu    sync.Mutex
	timer ktime.WaitTimer
	dq    Dequeuer // the open wait's queue
	fired bool     // the open wait's timer dequeued the thread
}

// ParkTimed is Park with a deadline on the kernel clock. The caller
// has queued t on a primitive whose Dequeue is dq. If the deadline
// passes while t is still queued, the timer dequeues and unparks it
// and ParkTimed reports true (timed out). A real wake that pops t
// first keeps its normal meaning: the timer's dequeue fails and
// ParkTimed reports false. In steady state a timed wait allocates
// nothing.
func (t *Thread) ParkTimed(deadline time.Duration, dq Dequeuer) (timedOut bool) {
	clk := t.m.kern.Clock()
	rem := deadline - clk.Now()
	if rem <= 0 {
		if dq.Dequeue(t) {
			return true
		}
		// Already woken for real: consume the wake.
		t.Park()
		return false
	}
	tp := t.tp
	if tp == nil {
		tp = &timedPark{}
		t.tp = tp
	}
	tp.mu.Lock()
	if !tp.timer.Built() {
		tp.timer.Build(clk.NewTimer(func() { t.parkTimeout(tp) }))
	}
	tp.dq, tp.fired = dq, false
	tp.timer.Arm(rem)
	tp.mu.Unlock()
	// Deferred so a kernel unwind through the park (process death)
	// also stops the timer.
	defer func() { timedOut = tp.close() }()
	t.Park()
	return false
}

// close ends the open timed wait and reports whether its timer fired
// and dequeued the thread.
func (tp *timedPark) close() bool {
	tp.mu.Lock()
	tp.timer.Close()
	tp.dq = nil
	fired := tp.fired
	tp.mu.Unlock()
	return fired
}

// parkTimeout is the timed-park timer's call.
func (t *Thread) parkTimeout(tp *timedPark) {
	tp.mu.Lock()
	if !tp.timer.Expired() || !tp.dq.Dequeue(t) {
		tp.mu.Unlock()
		return
	}
	tp.fired = true
	tp.mu.Unlock()
	t.Unpark()
}

// Yield gives up the processor to a higher- or equal-priority thread,
// if any (thr_yield). For an unbound thread this is a pure user-level
// operation unless the run queue is empty.
func (t *Thread) Yield() {
	m := t.m
	if t.bound() {
		m.kern.Yield(t.bndLWP)
		t.Checkpoint()
		return
	}
	m.mu.Lock()
	hasWork := m.disp.len() > 0
	if hasWork {
		t.state = ThreadRunnable
		t.msSwitchLocked(m.kern.Clock().Now(), MSRunq)
		m.disp.push(t)
		pl := t.lwp
		t.lwp = nil
		if pl != nil && pl.cur == t {
			pl.cur = nil // see parkSelf: avoid a stale dispatcher claim
		}
		m.mu.Unlock()
		t.onCPU.Store(false)
		pl.fair = true // next pop: oldest equal on any shard, not affinity
		yieldLWP(pl)
		<-t.gate
		t.checkKilledPanic()
	} else {
		m.mu.Unlock()
		// Nothing else to run; let the kernel checkpoint.
		if pl := t.currentPL(); pl != nil {
			m.kern.Checkpoint(pl.l)
		}
	}
	t.Checkpoint()
}

// Checkpoint is the thread-level preemption point: it honours stop
// requests, library preemption flags, pending thread signals, and
// kernel checkpoints. Synchronization operations call it.
func (t *Thread) Checkpoint() {
	m := t.m
	m.mu.Lock()
	stop := t.stopReq
	preempt := t.preempt
	t.preempt = false
	m.mu.Unlock()
	if stop {
		t.parkSelf(ThreadStopped)
	}
	// Chaos: force the thread back onto the run queue as if a
	// higher-priority thread had flagged it; the branch below only
	// switches when another thread is actually runnable.
	if !preempt && !t.bound() && m.kern.Chaos().ThreadPreempt() {
		preempt = true
	}
	if preempt && !t.bound() {
		m.mu.Lock()
		if m.disp.len() > 0 {
			t.state = ThreadRunnable
			t.msSwitchLocked(m.kern.Clock().Now(), MSRunq)
			m.disp.push(t)
			pl := t.lwp
			t.lwp = nil
			m.mu.Unlock()
			t.onCPU.Store(false)
			pl.fair = true
			yieldLWP(pl)
			<-t.gate
			t.checkKilledPanic()
		} else {
			m.mu.Unlock()
		}
	}
	if l := t.LWP(); l != nil {
		m.kern.Checkpoint(l)
	}
	// Always poll: thread-directed signals (thread_kill) pend at
	// the library level, invisible to the kernel checkpoint.
	t.pollSignals()
}

// Exit implements thread_exit for the calling thread: it terminates
// the thread and deallocates library resources. It never returns (it
// unwinds to the thread's entry frame).
func (t *Thread) Exit() {
	panic(threadExitPanic{t})
}

type threadExitPanic struct{ t *Thread }

// retire is the common end-of-life path, run on the thread's own
// goroutine after its body returns (or Exit unwinds). In steady state
// it allocates nothing: the single thread_wait waiter is dequeued in
// place, and an unwaited thread's stack, TLS, and shell go straight
// back to the freelists.
func (t *Thread) retire() {
	t.runTSDDestructors()
	m := t.m
	m.mu.Lock()
	if t.state == ThreadZombie {
		m.mu.Unlock()
		return
	}
	t.state = ThreadZombie
	t.onCPU.Store(false)
	t.msFinalLocked(m.kern.Clock().Now())
	m.dropTurnstilesLocked(t)
	pl := t.lwp
	t.lwp = nil
	delete(m.threads, t.id)
	m.nlive--
	if t.flags&ThreadDaemon != 0 {
		m.ndaemon--
	}
	last := m.nlive-m.ndaemon == 0 && !m.dying.Load()
	bound := t.bound()
	bl := t.bndLWP
	var single *Thread
	var wake []*Thread
	if t.flags&ThreadWait != 0 {
		// The shell lives on as a zombie until thread_wait reaps it.
		// At most one waiter can be parked on waitWC (double waits
		// are ErrDoubleWait), so a single dequeue suffices.
		m.zombies[t.id] = t
		single = t.waitWC.DequeueOne()
		wake = m.anyWC.DequeueAll()
	} else {
		// Never waited for: recycle everything now. After this point
		// t may be handed to a concurrent Create, so only the locals
		// above are used below. The last thread's shell is kept out
		// of the freelist — its process-exit unwind still inspects t
		// in releaseOnUnwind/threadGone.
		m.releaseStackLocked(t)
		if !last {
			m.pushFreeLocked(t)
		}
	}
	m.mu.Unlock()
	if single != nil {
		m.unparkInto(single)
	}
	m.unparkBatch(wake)
	if last && !m.proc.Dying() {
		// The last non-daemon thread exited: the process exits,
		// destroying all LWPs. The kernel unwind is caught by
		// releaseOnUnwind, which hands the LWP back to its
		// dispatcher for its own unwinding.
		l := bl
		if l == nil && pl != nil {
			l = pl.l
		}
		if l != nil {
			m.kern.Exit(l, 0)
		}
		return
	}
	if bound {
		return // boundMain's defer retires the LWP
	}
	if pl != nil {
		yieldLWP(pl)
	}
}

// ExitProcess implements exit(2) from a thread: all threads and LWPs
// in the process are destroyed (paper: "if one thread calls exit(),
// all threads are destroyed"). It never returns.
func (t *Thread) ExitProcess(status int) {
	l := t.LWP()
	if l == nil {
		panic("core: ExitProcess outside a running thread")
	}
	t.m.kern.Exit(l, status)
}

// SetForkContinuation registers the function a full fork() re-creates
// this thread with in the child process. Goroutine stacks cannot be
// cloned in Go, so duplicated threads resume from an explicit
// continuation rather than mid-stack; threads without one simply do
// not reappear in the child (see DESIGN.md).
func (t *Thread) SetForkContinuation(fn Func, arg any) {
	t.m.mu.Lock()
	a := t.auxb()
	a.forkCont = fn
	a.forkArg = arg
	t.m.mu.Unlock()
}

// ForkContinuation returns the registered continuation, if any.
func (t *Thread) ForkContinuation() (Func, any) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	a := t.auxb()
	return a.forkCont, a.forkArg
}

// Exec implements the thread side of exec(2): it detaches the calling
// thread from the pool, performs the kernel exec (destroying every
// other LWP and, cooperatively, every other thread), tears down this
// runtime's user-level state, and returns the fresh LWP 0 from which
// the caller builds the new image's runtime. The calling thread must
// call Exit (or return) immediately afterwards.
func (t *Thread) Exec(name string) (*sim.LWP, error) {
	m := t.m
	k := m.kern
	// Move onto a private LWP so the pool dispatcher gets its LWP
	// back and can be torn down like the rest.
	l2, err := k.NewLWP(m.proc, sim.ClassTS, 30)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	pl := t.lwp
	t.lwp = nil
	t.bndLWP = l2
	m.mu.Unlock()
	if pl != nil {
		yieldLWP(pl)
	}
	k.Start(l2)
	nl, err := k.Exec(l2, name)
	if err != nil {
		return nil, err
	}
	m.Shutdown()
	return nl, nil
}

// threadGone is the idempotent forced-retirement used when a kernel
// unwind (process death) tears a thread down outside retire.
func (m *Runtime) threadGone(t *Thread) {
	m.mu.Lock()
	if t.state == ThreadZombie {
		m.mu.Unlock()
		return
	}
	t.state = ThreadZombie
	t.msFinalLocked(m.kern.Clock().Now())
	m.dropTurnstilesLocked(t)
	t.lwp = nil
	m.disp.remove(t)
	delete(m.threads, t.id)
	m.nlive--
	if t.flags&ThreadDaemon != 0 {
		m.ndaemon--
	}
	m.mu.Unlock()
	t.onCPU.Store(false)
	// A torn-down thread may still be linked on a sleep queue (it was
	// parked on a primitive when the process died); unlink it so the
	// global sharded table does not retain it.
	sleepqDetach(t)
}
