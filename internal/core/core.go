// Package core implements the paper's primary contribution: the
// threads library that multiplexes extremely lightweight user-level
// threads onto kernel-supported LWPs.
//
// A Runtime (the library instance for one process — "libthread")
// owns:
//
//   - the thread table and the user-level run queue of unbound
//     threads, ordered by thread priority;
//   - a pool of LWPs that execute unbound threads. Each pool LWP's
//     dispatcher loop picks the highest-priority runnable thread,
//     assumes its identity (signal mask), and hands it the CPU; the
//     thread hands control back when it blocks, yields, or exits —
//     the paper's Figure 2 cycle, entirely in user space;
//   - bound threads, each permanently attached to its own LWP, giving
//     it kernel scheduling (real-time class, CPU binding, per-LWP
//     timers) while retaining the whole thread API;
//   - thread-local storage, per-thread signal masks, and the
//     SIGWAITING-driven automatic growth of the LWP pool.
//
// # Context switching in this reproduction
//
// Real SunOS switches threads by saving and loading register state.
// Go forbids that, so every thread is lazily given a goroutine that
// runs only while it holds its LWP's grant; "saving thread state" is
// the thread parking on its gate channel and returning control to the
// LWP's dispatcher goroutine. The multiplexing structure — who is
// allowed to run, on which LWP, with which mask, with no kernel
// involvement on the switch path — is exactly the paper's. See
// DESIGN.md for the substitution table.
//
// # Locking
//
// Runtime.mu guards the library-level scheduling state except the
// ready queue, which is sharded per simulated CPU under its own locks
// (see dispatcher.go) so dispatch traffic does not serialize on
// Runtime.mu. Lock order is Runtime.mu -> shard lock; the dispatcher
// never takes Runtime.mu. Runtime.mu is never held across a kernel
// call that can block (Park, Sleep, Start); it may be held across
// non-blocking kernel calls (Unpark).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/ktime"
	"sunosmt/internal/sim"
	"sunosmt/internal/trace"
)

// Config configures a Runtime.
type Config struct {
	// MaxAutoLWPs caps SIGWAITING-driven pool growth (default 64).
	MaxAutoLWPs int
	// DefaultStackSize is used when thread_create is given no
	// stack (default 64 KiB, simulated).
	DefaultStackSize int
	// StackCacheSize caps how many library-allocated default stacks
	// are kept for reuse after their threads exit (default 32) —
	// the cache behind Figure 5's "default stack" creation time.
	StackCacheSize int
	// ThreadCacheSize caps the Runtime's Thread freelist: exited
	// unwaited (or reaped) threads park their Thread struct, gate
	// channel, and TSD block here for the next Create to recycle,
	// making steady-state create/exit allocation-free. Zero selects
	// the default (1024); negative disables recycling.
	ThreadCacheSize int
	// StackMem, if non-nil, carves thread stacks from an address
	// space (reserve on create, commit on first dispatch) instead of
	// allocating host memory per stack. mt wires the process's
	// vm.AddressSpace here so a million mostly-idle threads cost
	// address space, not committed bytes.
	StackMem StackMem
	// DisableSigwaiting turns off automatic LWP creation on
	// SIGWAITING — the ablation knob for the deadlock-avoidance
	// experiment.
	DisableSigwaiting bool
	// InitialLWP, if set, is adopted as the runtime's first pool
	// LWP instead of creating a fresh one. Exec uses it to hand
	// the single LWP the kernel rebuilds to the new image's
	// runtime ("When exec() rebuilds the process, it creates a
	// single LWP. The process startup code then builds the initial
	// thread.").
	InitialLWP *sim.LWP
	// LWPAgeTime retires a pool LWP that has sat idle this long —
	// the shrink counterpart of SIGWAITING growth, so a burst of
	// concurrency does not pin kernel resources forever. Zero
	// disables aging. Aging applies only under automatic sizing
	// (thread_setconcurrency 0) and never retires the last LWP.
	LWPAgeTime time.Duration
	// NoPriorityInheritance disables turnstile priority
	// inheritance: blocking acquirers no longer will their effective
	// priority to lock owners. The ablation knob behind the
	// PriorityInversion bench and the examples/realtime demo; sleep
	// queues stay priority-ordered either way.
	NoPriorityInheritance bool
	// MaxThreads is the per-process thread cap: Create fails with
	// ErrAgain once this many threads are live. Zero is unlimited.
	// This is the library-level admission control that lets a server
	// shed load with an error instead of exhausting the kernel.
	MaxThreads int
	// WatchdogDeadline is the residency deadline the health monitor
	// judges against: an LWP on-CPU, or a thread blocked on a lock
	// or sleep, for longer than this is flagged stuck. Zero selects
	// the default (1s). See Runtime.Health.
	WatchdogDeadline time.Duration
	// LockPolicy selects the process-default mutex lock/wake policy
	// for tsync mutexes that do not pin one per-lock. The values are
	// tsync's Policy constants (core cannot import tsync); 0 selects
	// the adaptive default. The per-process ablation knob beside
	// NoPriorityInheritance for the lock-policy shootout.
	LockPolicy int
	// LockWaitSampleCap, when positive, keeps a bounded ring of the
	// most recent per-interval lock-wait times (one sample per
	// MSLock episode, from the microstate clock) for tail-latency
	// percentiles. Zero disables sampling; cumulative MSLock
	// microstate accounting is unaffected either way.
	LockWaitSampleCap int
}

// Runtime is the threads library instance for one process.
type Runtime struct {
	kern  *sim.Kernel
	proc  *sim.Process
	cfg   Config
	rings *trace.Rings // kernel's event rings (nil: tracing off)

	mu      sync.Mutex
	threads map[ThreadID]*Thread
	nextID  ThreadID
	nlive   int // threads not yet zombies
	ndaemon int // live daemon threads

	// disp is the per-CPU sharded ready queue; its shard locks are
	// leaves under mu (see dispatcher.go). dying is atomic so the
	// dispatch fast path reads it without mu.
	disp     *dispatcher
	dying    atomic.Bool
	idle     []*poolLWP // idle pool LWPs, LIFO
	pool     []*poolLWP // all pool LWPs
	nparked  int
	retiring int // pool LWPs asked to exit
	agedOut  int // pool LWPs retired by idle aging (stats)

	concurrency int // thread_setconcurrency target; 0 = automatic

	// SIGWAITING growth backoff (see onSigwaiting): after a failed
	// LWP spawn the pool waits growBackoff (doubling per consecutive
	// failure, bounded) before trying again, instead of retrying on
	// every SIGWAITING.
	growBackoff    time.Duration
	growNextAt     time.Duration
	growRetryArmed bool
	growFailures   uint64
	growDeferred   uint64

	zombies   map[ThreadID]*Thread // THREAD_WAIT zombies awaiting thread_wait
	anyWC     WaitChan             // thread_wait(0) callers sleep here
	tsdKeys   atomic.Pointer[[]tsdEntry]
	exitWG    sync.WaitGroup // animator goroutines
	exitedCh  chan struct{}
	exitOnce  sync.Once
	tlsSize   int
	tlsFrozen bool

	stackMem   StackMem
	stackCache []stackSpan // cached default-stack carves (paper: Fig 5 uses a cached stack)
	tlsCache   [][]byte    // recycled TLS blocks, paired with stackCache
	tcache     []*Thread   // Thread-struct freelist (zero-alloc create)

	// idleAnim holds the handoff channels of animator goroutines
	// whose thread has exited: first dispatch hands them a new thread
	// instead of spawning a goroutine (and paying its closure
	// allocation). See Runtime.animate.
	idleAnim []chan *Thread

	// Thread-shell slab: the mass-create cold path carves Thread,
	// threadAux, and wait-channel buckets from batch-allocated arrays
	// instead of paying one host allocation each per thread. Guarded
	// by mu. See allocThreadLocked.
	slabT    []Thread
	slabA    []threadAux
	slabB    []sleepqBucket
	slabUsed int

	// lockWaitRing is the bounded ring of recent MSLock wait
	// intervals (LockWaitSampleCap > 0): one duration per completed
	// lock-wait episode, overwriting the oldest past the cap. Guarded
	// by mu (fed from msSwitchLocked, which already holds it).
	lockWaitRing []time.Duration
	lockWaitPos  int
	lockWaitN    uint64 // total episodes observed (can exceed cap)
}

// poolLWP is one LWP dedicated to running unbound threads.
type poolLWP struct {
	l       *sim.LWP
	back    chan struct{}   // current thread returns control here
	cur     *Thread         // guarded by Runtime.mu
	die     atomic.Bool     // retire at next dispatch point
	counted bool            // counted in Runtime.retiring; guarded by mu
	age     ktime.WaitTimer // idle age-out timer; guarded by mu

	// fair makes this LWP's next pop use global FIFO-among-equals
	// order instead of affinity-first, so a thr_yield lets every
	// earlier-queued equal-priority thread run regardless of which
	// shard it sits on. Set by the yielding thread before it hands
	// control back, read by the dispatch loop; the pl.back handoff
	// orders the accesses.
	fair bool
}

// allSigs is the fully-blocked mask installed on idle pool LWPs so
// that interrupts are never routed to an LWP with no thread identity.
const allSigs = ^sim.Sigset(0)

// NewRuntime creates the threads library for proc. The process must
// have no LWPs yet; the runtime creates the initial pool LWP that
// will execute the main thread (the paper: "One lightweight process
// is created by the kernel when a program is started, and it starts
// executing the thread compiled as the main program").
func NewRuntime(kern *sim.Kernel, proc *sim.Process, cfg Config) *Runtime {
	if cfg.MaxAutoLWPs <= 0 {
		cfg.MaxAutoLWPs = 64
	}
	if cfg.DefaultStackSize <= 0 {
		cfg.DefaultStackSize = 64 << 10
	}
	if cfg.StackCacheSize <= 0 {
		cfg.StackCacheSize = 32
	}
	if cfg.ThreadCacheSize == 0 {
		cfg.ThreadCacheSize = 1024
	}
	if cfg.StackMem == nil {
		cfg.StackMem = newFlatStackMem()
	}
	m := &Runtime{
		kern:     kern,
		proc:     proc,
		cfg:      cfg,
		stackMem: cfg.StackMem,
		rings:    kern.Rings(),
		threads:  make(map[ThreadID]*Thread),
		zombies:  make(map[ThreadID]*Thread),
		anyWC:    AllocWaitChan(),
		exitedCh: make(chan struct{}),
		disp:     newDispatcher(kern.NCPU()),
	}
	// The library consumes SIGWAITING privately (the hook is its
	// ASLWP stand-in) and grows the pool when the kernel reports
	// that every LWP is blocked indefinitely. The disposition is
	// ignore so the notification never EINTRs the blocked LWPs
	// themselves.
	if !cfg.DisableSigwaiting {
		kern.SetAction(proc, sim.SIGWAITING, sim.SigIgn, nil, 0)
		proc.SetSigwaitingHook(m.onSigwaiting)
	}
	return m
}

// Kernel returns the kernel under this runtime.
func (m *Runtime) Kernel() *sim.Kernel { return m.kern }

// ChaosSource returns the kernel's chaos source (nil when chaos is not
// configured); the library and the synchronization primitives draw
// their perturbation decisions from it.
func (m *Runtime) ChaosSource() *chaos.Source { return m.kern.Chaos() }

// Process returns the kernel process this runtime manages.
func (m *Runtime) Process() *sim.Process { return m.proc }

// Exited is closed when the process has exited and all animator
// goroutines have finished.
func (m *Runtime) Exited() <-chan struct{} { return m.exitedCh }

// Start creates the main thread running fn(arg) on the initial pool
// LWP and returns it. It must be called exactly once.
func (m *Runtime) Start(fn Func, arg any) (*Thread, error) {
	if fn == nil {
		return nil, fmt.Errorf("core: nil main function")
	}
	m.mu.Lock()
	m.tlsFrozen = true // program start freezes TLS size (paper)
	m.mu.Unlock()
	t, err := m.Create(fn, arg, CreateOpts{Flags: ThreadWait})
	if err != nil {
		return nil, err
	}
	if err := m.addPoolLWP(); err != nil {
		return nil, err
	}
	go m.watchProcess()
	return t, nil
}

// watchProcess reaps the runtime when the kernel process dies: any
// user-level-parked threads (invisible to the kernel) are released so
// their goroutines can unwind.
func (m *Runtime) watchProcess() {
	<-m.proc.Exited()
	m.sweepDying()
	m.exitWG.Wait()
	m.exitOnce.Do(func() { close(m.exitedCh) })
}

// Shutdown tears down the runtime's user-level state: all parked
// threads are released to unwind. The kernel process itself is not
// touched; exec uses this to retire the old image's threads.
func (m *Runtime) Shutdown() { m.sweepDying() }

// sweepDying releases every user-parked thread of a dying process.
// Idempotent and safe to call concurrently: each thread is granted at
// most once (killed flag), and the grant is non-blocking.
func (m *Runtime) sweepDying() {
	m.mu.Lock()
	m.dying.Store(true)
	var parked []*Thread
	for _, t := range m.threads {
		if t.state != ThreadRunning && t.state != ThreadZombie && !t.bound() && t.started && !t.killed {
			t.killed = true
			parked = append(parked, t)
		}
	}
	m.disp.clear()
	// Shutdown releases the recycling caches; a dying process makes
	// no more threads. Standby animators are told to exit so exitWG
	// can drain.
	m.stackCache = nil
	m.tlsCache = nil
	m.tcache = nil
	m.slabT, m.slabA, m.slabB, m.slabUsed = nil, nil, nil, 0
	anims := m.idleAnim
	m.idleAnim = nil
	m.mu.Unlock()
	for _, ch := range anims {
		ch <- nil // buffered: the animator is parked receiving
	}
	for _, t := range parked {
		select {
		case t.gate <- struct{}{}: // wakes in park(), observes dying, unwinds
		default:
		}
	}
}

// --- LWP pool ----------------------------------------------------------

// addPoolLWP creates one more LWP for running unbound threads (or
// adopts the configured initial LWP the first time).
func (m *Runtime) addPoolLWP() error {
	var l *sim.LWP
	m.mu.Lock()
	if m.cfg.InitialLWP != nil {
		l = m.cfg.InitialLWP
		m.cfg.InitialLWP = nil
	}
	m.mu.Unlock()
	if l == nil {
		var err error
		l, err = m.kern.NewLWP(m.proc, sim.ClassTS, 30)
		if err != nil {
			return err
		}
	}
	pl := &poolLWP{l: l, back: make(chan struct{}, 1)}
	m.mu.Lock()
	m.pool = append(m.pool, pl)
	n := len(m.pool)
	m.mu.Unlock()
	m.rings.Record(-1, trace.EvPoolGrow, int(m.proc.PID()), int(l.ID()), 0, uint64(n))
	m.exitWG.Add(1)
	go m.poolLoop(pl)
	return nil
}

// poolLoop is the dispatcher: the paper's Figure 2. The LWP chooses a
// thread, assumes its identity, runs it until it yields back, then
// chooses another.
func (m *Runtime) poolLoop(pl *poolLWP) {
	defer m.exitWG.Done()
	defer func() {
		if r := recover(); r != nil && !sim.IsUnwind(r) {
			panic(r)
		}
		m.kern.ExitLWP(pl.l)
		m.mu.Lock()
		if pl.counted {
			pl.counted = false
			m.retiring--
		}
		m.removePoolLocked(pl)
		m.mu.Unlock()
		m.sweepIfDying()
	}()
	m.kern.Start(pl.l)
	for {
		t := m.nextThread(pl)
		if t == nil {
			return // retired
		}
		m.dispatch(pl, t)
	}
}

func (m *Runtime) removePoolLocked(pl *poolLWP) {
	for i, x := range m.pool {
		if x == pl {
			m.pool = append(m.pool[:i], m.pool[i+1:]...)
			break
		}
	}
	for i, x := range m.idle {
		if x == pl {
			m.idle = append(m.idle[:i], m.idle[i+1:]...)
			break
		}
	}
}

func (m *Runtime) sweepIfDying() {
	if m.proc.Dying() {
		m.sweepDying()
	}
}

// nextThread returns the next thread for pl to run, parking the LWP
// in the kernel while there is no work. A nil return retires the LWP.
func (m *Runtime) nextThread(pl *poolLWP) *Thread {
	for {
		if pl.die.Load() || m.dying.Load() {
			pl.die.Store(true)
			return nil
		}
		// Hot path: pop straight off the dispatcher shard of the
		// CPU this LWP is on — Runtime.mu is not involved while
		// work is available.
		fair := pl.fair
		pl.fair = false
		if t := m.disp.pop(m.kern.Chaos(), pl.l.CurCPU(), fair); t != nil {
			return t
		}
		m.mu.Lock()
		if pl.die.Load() || m.dying.Load() {
			pl.die.Store(true)
			m.mu.Unlock()
			return nil
		}
		m.idle = append(m.idle, pl)
		m.nparked++
		// Re-check after registering idle: a pusher publishes its
		// thread before consulting the idle list (both under mu),
		// so either it saw us here and will unpark, or this load
		// sees its push and we retry instead of parking.
		if m.disp.len() > 0 {
			m.idle = m.idle[:len(m.idle)-1]
			m.nparked--
			m.mu.Unlock()
			continue
		}
		m.mu.Unlock()
		// Arm the idle age-out timer: an LWP that finds no work for
		// LWPAgeTime is retired (ageOut re-checks eligibility under
		// the lock, so a racing enqueue always wins). Chaos can
		// expire the grace period immediately — early expiry is the
		// safe direction, since SIGWAITING regrows the pool. The
		// timer is the LWP's own, re-armed for every idle period.
		if d := m.cfg.LWPAgeTime; d > 0 {
			if m.kern.Chaos().AgeOutEarly() {
				d = time.Nanosecond
			}
			m.mu.Lock()
			if !pl.age.Built() {
				pl.age.Build(m.kern.Clock().NewTimer(func() { m.ageOut(pl) }))
			}
			pl.age.Arm(d)
			m.mu.Unlock()
		}
		// Idle LWPs mask everything: an interrupt must be routed
		// to an LWP that is executing a thread with the signal
		// unmasked, never to an idle dispatcher.
		m.kern.SetLWPMask(pl.l, sim.SigSetMask, allSigs)
		m.kern.Park(pl.l)
		m.mu.Lock()
		pl.age.Close()
		m.nparked--
		// We may still be on the idle list if the unpark came
		// from a permit; drop ourselves.
		for i, x := range m.idle {
			if x == pl {
				m.idle = append(m.idle[:i], m.idle[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
	}
}

// ageOut retires pl if it is still idle when its age timer fires. It
// removes pl from the idle list before unparking so a concurrent
// enqueue can never hand work to a dying LWP (no lost wakeups).
func (m *Runtime) ageOut(pl *poolLWP) {
	m.mu.Lock()
	if !pl.age.Expired() {
		m.mu.Unlock()
		return // a late call of an earlier idle period
	}
	idle := false
	for i, x := range m.idle {
		if x == pl {
			m.idle = append(m.idle[:i], m.idle[i+1:]...)
			idle = true
			break
		}
	}
	if !idle || pl.die.Load() || m.dying.Load() || m.concurrency != 0 || len(m.pool)-m.retiring <= 1 {
		if idle {
			m.idle = append(m.idle, pl) // not eligible after all
		}
		m.mu.Unlock()
		return
	}
	pl.die.Store(true)
	pl.counted = true
	m.retiring++
	m.agedOut++
	remain := len(m.pool) - m.retiring
	m.mu.Unlock()
	m.rings.Record(-1, trace.EvPoolAge, int(m.proc.PID()), int(pl.l.ID()), 0, uint64(remain))
	m.kern.Unpark(pl.l)
}

// AgedOut reports how many pool LWPs idle aging has retired.
func (m *Runtime) AgedOut() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.agedOut
}

// dispatch runs t on pl until t yields control back: Figure 2 steps
// (a) choose thread, (b) assume identity and execute, (c) state saved
// by the thread itself at its park point, (d) loop.
func (m *Runtime) dispatch(pl *poolLWP, t *Thread) {
	m.mu.Lock()
	if t.killed || m.dying.Load() {
		m.mu.Unlock()
		t.grant() // let the goroutine (if any) unwind
		return
	}
	t.state = ThreadRunning
	t.msSwitchLocked(m.kern.Clock().Now(), MSUser)
	t.lwp = pl
	pl.cur = t
	first := !t.started
	t.started = true
	m.mu.Unlock()
	t.onCPU.Store(true)

	// The LWP assumes the thread's identity: its signal mask.
	m.kern.SetLWPMask(pl.l, sim.SigSetMask, t.mask())
	m.rings.Record(pl.l.CurCPU(), trace.EvThreadRun, int(m.proc.PID()), int(pl.l.ID()), int(t.id),
		uint64(t.poppedFrom.Load()+1))

	if first {
		// First dispatch: the thread is about to push its first
		// frame, so commit the top of its (reserved-only) stack and
		// give it an animator goroutine (recycled when possible).
		m.touchStack(t)
		m.startAnimator(t)
	}
	t.grant()
	<-pl.back // thread parked, exited, or unwound
	m.mu.Lock()
	pl.cur = nil
	m.mu.Unlock()
}

// yieldLWP returns control of the calling thread's LWP to its
// dispatcher loop. Called on the thread goroutine with the thread
// already transitioned off the LWP.
func yieldLWP(pl *poolLWP) {
	pl.back <- struct{}{}
}

// --- concurrency control ------------------------------------------------

// SetConcurrency implements thread_setconcurrency(n): it sets the
// number of LWPs available to run unbound threads. n == 0 restores
// automatic (SIGWAITING-driven) sizing.
func (m *Runtime) SetConcurrency(n int) error {
	if n < 0 {
		return fmt.Errorf("core: negative concurrency %d", n)
	}
	m.mu.Lock()
	m.concurrency = n
	have := len(m.pool) - m.retiring
	var grow int
	if n > 0 {
		grow = n - have
		if grow < 0 {
			// Retire surplus idle LWPs: mark and unpark them.
			shrink := -grow
			for _, pl := range m.idle {
				if shrink == 0 {
					break
				}
				if !pl.die.Load() {
					pl.die.Store(true)
					pl.counted = true
					m.retiring++
					shrink--
					m.kern.Unpark(pl.l)
				}
			}
			// Any remainder retires lazily: mark busy LWPs.
			for _, pl := range m.pool {
				if shrink == 0 {
					break
				}
				if !pl.die.Load() {
					pl.die.Store(true)
					pl.counted = true
					m.retiring++
					shrink--
				}
			}
		}
	}
	m.mu.Unlock()
	for i := 0; i < grow; i++ {
		if err := m.addPoolLWP(); err != nil {
			return err
		}
	}
	return nil
}

// Concurrency reports the current number of pool LWPs.
func (m *Runtime) Concurrency() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pool) - m.retiring
}

// SIGWAITING growth backoff bounds: the first failed spawn waits
// minGrowBackoff before retrying; consecutive failures double the
// wait up to maxGrowBackoff.
const (
	minGrowBackoff = time.Millisecond
	maxGrowBackoff = 128 * time.Millisecond
)

// onSigwaiting grows the pool when the kernel reports that all LWPs
// are blocked in indefinite waits and runnable threads exist — the
// deadlock-avoidance mechanism of the paper ("The threads package can
// use the receipt of SIGWAITING to cause extra LWPs to be created as
// required to avoid deadlock").
//
// Growth is failure-aware: when the kernel refuses an LWP (EAGAIN at
// the rlimit, transient chaos fault) the pool backs off with bounded
// exponential delay rather than re-spawning on every SIGWAITING, and
// arms a retry timer so growth resumes even if no further SIGWAITING
// arrives (the kernel's edge trigger will not repost while the
// blocked set is unchanged).
func (m *Runtime) onSigwaiting() {
	m.mu.Lock()
	need := m.disp.len() > 0 && !m.dying.Load() &&
		len(m.pool)-m.retiring < m.cfg.MaxAutoLWPs &&
		m.concurrency == 0
	now := m.kern.Clock().Now()
	if need && m.growBackoff > 0 && now < m.growNextAt {
		m.growDeferred++
		m.ensureGrowRetryLocked(m.growNextAt - now)
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	if !need {
		return
	}
	if err := m.addPoolLWP(); err != nil {
		m.growthFailed(now)
		return
	}
	m.mu.Lock()
	m.growBackoff = 0
	m.mu.Unlock()
}

// growthFailed records a failed SIGWAITING spawn: double the backoff
// (bounded) and make sure a retry fires after it elapses.
func (m *Runtime) growthFailed(now time.Duration) {
	m.mu.Lock()
	switch {
	case m.growBackoff == 0:
		m.growBackoff = minGrowBackoff
	case m.growBackoff < maxGrowBackoff:
		m.growBackoff *= 2
	}
	d := m.growBackoff
	m.growNextAt = now + d
	m.growFailures++
	m.ensureGrowRetryLocked(d)
	m.mu.Unlock()
}

// ensureGrowRetryLocked arms at most one pending retry timer that
// re-evaluates pool growth once the backoff window closes.
func (m *Runtime) ensureGrowRetryLocked(d time.Duration) {
	if m.growRetryArmed || m.dying.Load() {
		return
	}
	m.growRetryArmed = true
	ktime.AfterFunc(m.kern.Clock(), d, func() {
		m.mu.Lock()
		m.growRetryArmed = false
		m.mu.Unlock()
		m.onSigwaiting()
	})
}

// GrowthStats reports the SIGWAITING degradation counters: spawn
// failures, growth attempts absorbed by the backoff window, and the
// current backoff (0 when the last spawn succeeded).
func (m *Runtime) GrowthStats() (failures, deferred uint64, backoff time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.growFailures, m.growDeferred, m.growBackoff
}

// PoolSize reports the number of pool LWPs (for tests and mtstat).
func (m *Runtime) PoolSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pool)
}

// RunnableThreads reports the length of the user-level run queue
// (lock-free: the dispatcher keeps a global count).
func (m *Runtime) RunnableThreads() int {
	return m.disp.len()
}

// LockPolicy reports the process-default lock policy configured for
// this runtime (tsync's Policy constants; 0 = adaptive default).
func (m *Runtime) LockPolicy() int { return m.cfg.LockPolicy }

// recordLockWaitLocked appends one completed MSLock episode to the
// sample ring. Runtime.mu is held (called from msSwitchLocked).
func (m *Runtime) recordLockWaitLocked(d time.Duration) {
	n := m.cfg.LockWaitSampleCap
	if n <= 0 {
		return
	}
	if len(m.lockWaitRing) < n {
		m.lockWaitRing = append(m.lockWaitRing, d)
	} else {
		m.lockWaitRing[m.lockWaitPos] = d
		m.lockWaitPos = (m.lockWaitPos + 1) % n
	}
	m.lockWaitN++
}

// LockWaitSamples returns a copy of the retained per-episode lock-wait
// intervals (most recent LockWaitSampleCap episodes, unordered beyond
// ring rotation) and the total number of episodes observed. The
// percentile source for the lock-policy shootout (mtbench fig 12).
func (m *Runtime) LockWaitSamples() ([]time.Duration, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]time.Duration, len(m.lockWaitRing))
	copy(out, m.lockWaitRing)
	return out, m.lockWaitN
}
