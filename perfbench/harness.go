package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/mt"
)

// Window indexes. A traced run measures window 0 untraced and then
// window 1 traced, on the same booted system, so the ratio of their
// throughputs is the tracing overhead.
const (
	winWarm    = -1 // warm-up: operations run but are not recorded
	winStopped = 2  // the load is draining
	numWins    = 2
)

// slice bounds every blocking wait the harness issues: waits use the
// timed form of each call and re-check the harness's own state
// between slices, so no simulated thread of the harness can sleep
// forever.
const slice = 50 * time.Millisecond

// errAborted reports that the harness gave up on the run (a stall)
// while a simulated thread was still waiting.
var errAborted = errors.New("run aborted")

// env is what a workload's setup receives: the inputs and the shared
// control state of one workload instance.
type env struct {
	seed  uint64
	ncpu  int
	clock *clock
	tr    *tracer // nil when the run is untraced
	gate  *gate
}

// instance is one booted, warmed-up workload.
type instance interface {
	// finish stops the load, waits for every operation in flight and
	// runs the end-of-run correctness checks. It must return before
	// the harness clock reaches deadline; the harness treats an
	// instance that does not as stalled.
	finish(deadline time.Duration) error
	// counters snapshots the layers' own statistics: cumulative
	// counts and gauges keyed by per-layer metric stem, plus the
	// retained lock-wait samples.
	counters() snapshot
	// sample reads the gauges the harness tracks the maximum of
	// while the traced window is open.
	sample() gauges
}

type snapshot struct {
	c         map[string]float64
	lockWaits []time.Duration
}

type gauges struct {
	lwps, threads int
	committed     int64
}

// procGauges reads the gauges of a set of processes.
func procGauges(ps ...*mt.Proc) gauges {
	var g gauges
	for _, p := range ps {
		g.lwps += p.Process().NumLWPs()
		g.threads += p.RT.NumThreads()
		g.committed += p.AS.Committed()
	}
	return g
}

// gate is the window control of one instance: clients report every
// operation to it, and it files the operation under the window that
// is open when the operation ends.
type gate struct {
	clock    *clock
	deadline int64 // per-operation deadline, ns
	win      atomic.Int32
	sub      atomic.Int32 // sub-window of win that is open
	abort    atomic.Bool
	// issued and ended count operations over the instance's life;
	// issued-ended is what is in flight, and ended is the progress
	// the stall watchdog looks at.
	issued atomic.Int64
	ended  atomic.Int64

	checks *checks

	mu      sync.Mutex
	clients []*client
}

func newGate(c *clock, deadline time.Duration, ch *checks) *gate {
	g := &gate{clock: c, deadline: int64(deadline), checks: ch}
	g.win.Store(winWarm)
	return g
}

// checks collects the failed correctness checks of a run's instances.
type checks struct {
	mu    sync.Mutex
	n     int
	wrong []string // the first few, for the report
}

func (c *checks) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *checks) list() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, append([]string(nil), c.wrong...)
}

// measuring reports whether the load should keep issuing operations.
func (g *gate) measuring() bool {
	return g.win.Load() != winStopped && !g.abort.Load()
}

// fail records a failed correctness check. Any failed check fails the
// run.
func (g *gate) fail(format string, args ...any) {
	c := g.checks
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.wrong) < 8 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	}
}

// client is one closed-loop load generator's record of its
// operations, per window.
type client struct {
	g   *gate
	mu  sync.Mutex // the harness may read the record while a stalled client still runs
	win [numWins]winStats
}

type winStats struct {
	lat    [subWindows]*hist // latencies of the operations that succeeded, by sub-window
	failed int64             // operations that failed or missed their deadline
	missed int64             // of which missed the deadline
}

func (g *gate) client() *client {
	c := &client{g: g}
	g.mu.Lock()
	g.clients = append(g.clients, c)
	g.mu.Unlock()
	return c
}

// issue marks one operation as issued and returns its start time on
// the harness clock.
func (c *client) issue() int64 {
	c.g.issued.Add(1)
	return c.g.clock.now()
}

// done files the operation issued at start. ok is false when the
// operation failed or was refused; an operation that ends past its
// deadline counts as failed too.
func (c *client) done(start int64, ok bool) {
	g := c.g
	end := g.clock.now()
	g.ended.Add(1)
	w := g.win.Load()
	if w < 0 || w >= numWins {
		return
	}
	late := end-start > g.deadline
	sub := g.sub.Load()
	c.mu.Lock()
	st := &c.win[w]
	switch {
	case ok && !late:
		if st.lat[sub] == nil {
			st.lat[sub] = new(hist)
		}
		st.lat[sub].add(end - start)
	case late:
		st.failed++
		st.missed++
	default:
		st.failed++
	}
	c.mu.Unlock()
}

// window adds the clients' records for window w to wr, whose
// sub-windows from index first on are this instance's.
func (g *gate) window(w int, wr *winResult, first int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.clients {
		c.mu.Lock()
		st := &c.win[w]
		for k := first; k < len(wr.subs); k++ {
			if h := st.lat[k-first]; h != nil {
				wr.subs[k].lat.merge(h)
			}
		}
		wr.failed += st.failed
		wr.missed += st.missed
		c.mu.Unlock()
	}
}

// waitWarm blocks until the instance has completed n operations,
// which is its warm-up, or returns an error at the deadline.
func (g *gate) waitWarm(n int64, deadline time.Duration) error {
	for g.ended.Load() < n {
		if g.clock.now() > int64(deadline) {
			return fmt.Errorf("warm-up stalled after %d of %d operations", g.ended.Load(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// ---- timed-wait helpers ----------------------------------------------
//
// Each loops over one timed wait of a public layer call until it
// succeeds, recording one span per call, and gives up only when the
// harness aborts the run.

func enter(t *mt.Thread, g *gate, mu *mt.Mutex, b *spanBuf, name spanName, op uint64) error {
	for {
		s := b.begin(name, op)
		err := mu.TimedEnter(t, slice)
		b.end(s)
		if err == nil {
			return nil
		}
		if !errors.Is(err, mt.ErrTimedOut) {
			return err
		}
		if g.abort.Load() {
			return errAborted
		}
	}
}

func semaP(t *mt.Thread, g *gate, sp *mt.Sema, b *spanBuf, name spanName, op uint64) error {
	for {
		s := b.begin(name, op)
		err := sp.TimedP(t, slice)
		b.end(s)
		if err == nil {
			return nil
		}
		if !errors.Is(err, mt.ErrTimedOut) {
			return err
		}
		if g.abort.Load() {
			return errAborted
		}
	}
}

func rwLock(t *mt.Thread, g *gate, rw *mt.RWLock, write bool, b *spanBuf, op uint64) error {
	name, lock := spTsyncRWRead, rw.TimedRdLock
	if write {
		name, lock = spTsyncRWWrite, rw.TimedWrLock
	}
	for {
		s := b.begin(name, op)
		err := lock(t, slice)
		b.end(s)
		if err == nil {
			return nil
		}
		if !errors.Is(err, mt.ErrTimedOut) {
			return err
		}
		if g.abort.Load() {
			return errAborted
		}
	}
}

func semaV(t *mt.Thread, sp *mt.Sema, b *spanBuf, op uint64) {
	s := b.begin(spTsyncSemaV, op)
	sp.V(t)
	b.end(s)
}

// pollIn waits until the one descriptor in fds is readable, in timed
// polls of one slice each. The wait ends only when data is there or
// the harness aborts, so a wakeup that Poll loses costs at most one
// slice of latency, which the operation's deadline then judges.
func pollIn(p *mt.Proc, t *mt.Thread, g *gate, fds []mt.PollFD, b *spanBuf, op uint64) error {
	for {
		s := b.begin(spVfsPoll, op)
		n, err := p.Poll(t, fds, slice)
		b.end(s)
		if err != nil && !interrupted(err) {
			return err
		}
		if n > 0 {
			return nil
		}
		if g.abort.Load() {
			return errAborted
		}
	}
}

// readFull reads exactly len(buf) bytes from the pipe in fds, polling
// before every read so the read itself never blocks.
func readFull(p *mt.Proc, t *mt.Thread, g *gate, fds []mt.PollFD, buf []byte, b *spanBuf, op uint64) error {
	for got := 0; got < len(buf); {
		if err := pollIn(p, t, g, fds, b, op); err != nil {
			return err
		}
		s := b.begin(spVfsRead, op)
		n, err := p.Read(t, fds[0].FD, buf[got:])
		b.end(s)
		if err != nil && !interrupted(err) {
			return err
		}
		got += n
	}
	return nil
}

func write(p *mt.Proc, t *mt.Thread, fd int, buf []byte, b *spanBuf, op uint64) error {
	for len(buf) > 0 {
		s := b.begin(spVfsWrite, op)
		n, err := p.Write(t, fd, buf)
		b.end(s)
		if err != nil && !interrupted(err) {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// interrupted reports an EINTR from an interruptible kernel sleep,
// which the chaos source injects; the call is restarted, as a UNIX
// program would. mt does not re-export the kernel's EINTR sentinel,
// so the error is recognised by its text.
func interrupted(err error) bool {
	return strings.Contains(err.Error(), "interrupted system call")
}

// create creates a waitable unbound thread, or a bound one, recording
// the call under the layer that does the work: the library for an
// unbound thread, the kernel's LWP creation for a bound one.
func create(t *mt.Thread, fn mt.Func, arg any, bound bool, b *spanBuf, op uint64) (*mt.Thread, error) {
	opts := mt.CreateOpts{Flags: mt.ThreadWait}
	name := spCoreCreate
	if bound {
		opts.Flags |= mt.ThreadBindLWP
		name = spSimCreateBound
	}
	s := b.begin(name, op)
	c, err := t.Runtime().Create(fn, arg, opts)
	b.end(s)
	return c, err
}

func reap(t *mt.Thread, id mt.ThreadID, b *spanBuf, op uint64) error {
	s := b.begin(spCoreReap, op)
	_, err := t.Wait(id)
	b.end(s)
	return err
}

// spawn starts a process whose main thread receives its own *mt.Proc.
func spawn(sys *mt.System, name string, main func(p *mt.Proc, t *mt.Thread), cfg mt.ProcConfig) (*mt.Proc, error) {
	ch := make(chan *mt.Proc, 1)
	p, err := sys.Spawn(name, func(t *mt.Thread, _ any) { main(<-ch, t) }, nil, cfg)
	if err != nil {
		return nil, err
	}
	ch <- p
	return p, nil
}

// fork1 is spawn for a fork1 child.
func fork1(p *mt.Proc, t *mt.Thread, main func(p *mt.Proc, t *mt.Thread)) (*mt.Proc, error) {
	ch := make(chan *mt.Proc, 1)
	c, err := p.Fork1(t, func(ct *mt.Thread, _ any) { main(<-ch, ct) }, nil)
	if err != nil {
		return nil, err
	}
	ch <- c
	return c, nil
}

// waitExit waits for a process to exit, up to the harness deadline.
func waitExit(c *clock, p *mt.Proc, deadline time.Duration) error {
	left := time.Duration(int64(deadline) - c.now())
	if left <= 0 {
		left = time.Millisecond
	}
	select {
	case <-p.RT.Exited():
		return nil
	case <-time.After(left):
		return fmt.Errorf("process %d did not exit by its deadline", p.PID())
	}
}

// microstates accumulates thread microstate times, for the
// core.ms_*_share metrics.
type microstates struct{ runq, lock, sleep, total atomic.Int64 }

func (m *microstates) add(ms mt.Microstates) {
	m.runq.Add(int64(ms.Runq))
	m.lock.Add(int64(ms.Lock))
	m.sleep.Add(int64(ms.Sleep))
	m.total.Add(int64(ms.Total))
}

func (m *microstates) into(out map[string]float64) {
	out["core.ms_runq_ns"] += float64(m.runq.Load())
	out["core.ms_lock_ns"] += float64(m.lock.Load())
	out["core.ms_sleep_ns"] += float64(m.sleep.Load())
	out["core.ms_total_ns"] += float64(m.total.Load())
}

// runtimeCounters adds one process's library and kernel statistics.
func runtimeCounters(p *mt.Proc, out *snapshot) {
	c := out.c
	for _, s := range p.RT.DispatchStats() {
		c["core.shard_pops"] += float64(s.Pops)
		c["core.shard_stolen"] += float64(s.Stolen)
	}
	fails, _, _ := p.RT.GrowthStats()
	c["core.growth_failures"] += float64(fails)
	c["core.pool_lwps"] += float64(p.RT.PoolSize())
	samples, waits := p.RT.LockWaitSamples()
	out.lockWaits = append(out.lockWaits, samples...)
	c["tsync.lock_waits"] += float64(waits)
	ru := p.Process().Getrusage()
	c["sim.sys_ns"] += float64(ru.SysTime)
	c["sim.user_ns"] += float64(ru.UserTime)
	c["vm.minor_faults"] += float64(ru.MinorFaults)
	c["vm.peak_committed_bytes"] += float64(p.AS.PeakCommitted())
}

// systemCounters adds the kernel dispatcher's statistics.
func systemCounters(sys *mt.System, out map[string]float64) {
	for _, s := range sys.SchedStats() {
		out["sim.dispatches"] += float64(s.Dispatches)
		out["sim.steals"] += float64(s.Steals)
		out["sim.migrations"] += float64(s.Migrations)
	}
}
