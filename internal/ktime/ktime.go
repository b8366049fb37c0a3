// Package ktime is the time substrate for the simulated SunOS kernel.
//
// The kernel and the threads library never call the time package
// directly; they go through a Clock so that tests can drive time
// deterministically with a Manual clock while benchmarks and examples
// run against the Real wall clock.
//
// All times are expressed as a time.Duration offset from "boot", which
// mirrors the way the paper's SPARCstation measurements use the
// built-in microsecond-resolution real-time timer.
package ktime

import (
	"container/heap"
	"math"
	"sync"
	"time"
)

// Clock provides monotonic time since boot and re-armable one-shot
// timers.
type Clock interface {
	// Now reports the time elapsed since the clock was created.
	Now() time.Duration
	// NewTimer returns an unarmed Timer that calls fn each time an
	// arming (Reset) expires. fn runs on an unspecified goroutine and
	// must not block. A timer is built once and re-armed for every
	// wait, so a blocking path that times out pays no allocation per
	// wait.
	NewTimer(fn func()) Timer
}

// Timer is a re-armable pending call created by Clock.NewTimer.
//
// Every arming that is not cancelled by Stop or replaced by Reset
// before it expires produces exactly one call of the timer's
// function. A call whose arming expired is not recalled: it may still
// be running, or about to run, after a later Reset or Stop returns.
// A timer re-armed for successive waits must therefore tell such late
// calls apart from the current wait's own (see WaitTimer).
type Timer interface {
	// Reset arms the timer to fire once d has elapsed, replacing a
	// pending arming. It reports whether an arming was pending. A
	// zero or negative d fires as soon as the clock allows.
	Reset(d time.Duration) bool
	// Stop cancels the pending arming, if any. It reports whether
	// the call was prevented from running.
	Stop() bool
}

// AfterFunc arms a fresh timer on c that calls fn once d has elapsed.
// It is NewTimer plus Reset, the one arming path every clock shares.
func AfterFunc(c Clock, d time.Duration, fn func()) Timer {
	t := c.NewTimer(fn)
	t.Reset(d)
	return t
}

// WaitTimer is one timeout timer re-armed by the successive waits of a
// single sleeper (a thread, an LWP), so a timed wait allocates nothing
// once the timer is built.
//
// Generation rule. A timer call carries no token saying which arming
// it belongs to, and one may run after its own wait returned (the
// arming expired just as a real wake arrived). WaitTimer counts
// armings (gen) and settled armings (the call ran, or Stop cancelled
// the arming). Each call settles one arming and belongs to the open
// wait only if it settles the last one while that wait is still open;
// any other call is a late call of an earlier wait, always a
// generation behind, and must not touch the current one. Calls may
// even run out of order: whichever call is credited to the current
// arming runs no earlier than that arming's own expiry.
//
// WaitTimer has no lock of its own: every method is called under the
// sleeper's lock, which the timer's function takes before Expired.
type WaitTimer struct {
	timer   Timer
	gen     uint64
	settled uint64
	open    bool
}

// Built reports whether the timer has been built.
func (w *WaitTimer) Built() bool { return w.timer != nil }

// Build installs the timer, made with Clock.NewTimer, at the
// sleeper's first timed wait.
func (w *WaitTimer) Build(t Timer) { w.timer = t }

// Arm opens a wait that times out after d. A still-pending arming
// that Reset replaces will never call back, so it is settled here.
func (w *WaitTimer) Arm(d time.Duration) {
	w.gen++
	w.open = true
	if w.timer.Reset(d) {
		w.settled++
	}
}

// Close ends the open wait, if any. An arming that Stop cancels will
// never call back, so it is settled here.
func (w *WaitTimer) Close() {
	if !w.open {
		return
	}
	w.open = false
	if w.timer.Stop() {
		w.settled++
	}
}

// Expired settles one arming on behalf of a timer call and reports
// whether the call is the open wait's own timeout.
func (w *WaitTimer) Expired() bool {
	w.settled++
	return w.open && w.settled == w.gen
}

// Real is a Clock backed by the machine's monotonic clock.
type Real struct {
	boot time.Time
}

// NewReal returns a Clock that follows wall time, with Now()==0 at the
// moment of the call.
func NewReal() *Real {
	return &Real{boot: time.Now()}
}

// Now implements Clock.
func (r *Real) Now() time.Duration { return time.Since(r.boot) }

// NewTimer implements Clock with a host timer created stopped.
func (r *Real) NewTimer(fn func()) Timer {
	t := time.AfterFunc(time.Duration(math.MaxInt64), fn)
	t.Stop()
	return realTimer{t}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }
func (rt realTimer) Stop() bool                 { return rt.t.Stop() }

// Manual is a deterministic Clock driven by explicit Advance calls.
// It never moves on its own, which makes time-dependent kernel
// behaviour (time slices, interval timers, SIGWAITING waits)
// reproducible in tests.
type Manual struct {
	mu     sync.Mutex
	now    time.Duration
	seq    uint64
	timers timerHeap
}

// NewManual returns a Manual clock at time zero.
func NewManual() *Manual { return &Manual{} }

// Now implements Clock.
func (m *Manual) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d, firing every timer whose
// deadline is reached in order of deadline (FIFO among equal
// deadlines). Timer callbacks run on the caller's goroutine with the
// clock unlocked.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("ktime: negative Advance")
	}
	m.mu.Lock()
	target := m.now + d
	for len(m.timers) > 0 && m.timers[0].when <= target {
		t := heap.Pop(&m.timers).(*heapTimer)
		m.now = t.when
		m.mu.Unlock()
		t.fn()
		m.mu.Lock()
	}
	m.now = target
	m.mu.Unlock()
}

// NewTimer implements Clock. An arming with zero or negative d fires
// on the next Advance call (including Advance(0)).
func (m *Manual) NewTimer(fn func()) Timer {
	return &heapTimer{owner: m, fn: fn, index: -1}
}

// PendingTimers reports how many timers are armed and not yet fired.
func (m *Manual) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.timers)
}

// heapTimer is one re-armable timer of a clock that keeps its pending
// armings in a deadline heap (Manual, FastForward). index is its heap
// slot while an arming is pending and -1 otherwise; stopped and fired
// timers leave the heap at once, so a re-armed timer is never queued
// twice.
type heapTimer struct {
	owner timerOwner
	when  time.Duration
	seq   uint64
	fn    func()
	index int
}

// timerOwner is the clock side of a heapTimer.
type timerOwner interface {
	reset(t *heapTimer, d time.Duration) bool
	stop(t *heapTimer) bool
}

func (t *heapTimer) Reset(d time.Duration) bool { return t.owner.reset(t, d) }
func (t *heapTimer) Stop() bool                 { return t.owner.stop(t) }

func (m *Manual) reset(t *heapTimer, d time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return m.timers.arm(t, m.now+d, m.seq)
}

func (m *Manual) stop(t *heapTimer) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.timers.cancel(t)
}

// timerHeap orders pending timers by deadline, FIFO among equal
// deadlines (arming sequence).
type timerHeap []*heapTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*heapTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// arm sets t's deadline, queueing it or moving it within the heap;
// it reports whether t was already pending.
func (h *timerHeap) arm(t *heapTimer, when time.Duration, seq uint64) bool {
	t.when, t.seq = when, seq
	if t.index >= 0 {
		heap.Fix(h, t.index)
		return true
	}
	heap.Push(h, t)
	return false
}

// cancel removes t if it is pending and reports whether it was.
func (h *timerHeap) cancel(t *heapTimer) bool {
	if t.index < 0 {
		return false
	}
	heap.Remove(h, t.index)
	return true
}

// Sleep blocks the calling goroutine until d has elapsed on c.
func Sleep(c Clock, d time.Duration) {
	ch := make(chan struct{})
	AfterFunc(c, d, func() { close(ch) })
	<-ch
}

// Jittered wraps a Clock so that every arming's duration is passed
// through a perturbation function first. Now is unperturbed: only the
// firing time of timers moves, which is how the chaos layer
// randomizes timeout and time-slice arrival without breaking monotonic
// time. Each Reset consults the perturbation exactly once, so a
// re-armed timer draws one decision per arming, like a fresh one. A
// nil jitter function makes the wrapper transparent.
type Jittered struct {
	base   Clock
	jitter func(time.Duration) time.Duration
}

// NewJittered wraps base with the given duration perturbation.
func NewJittered(base Clock, jitter func(time.Duration) time.Duration) *Jittered {
	return &Jittered{base: base, jitter: jitter}
}

// Base returns the wrapped clock.
func (j *Jittered) Base() Clock { return j.base }

// Now implements Clock.
func (j *Jittered) Now() time.Duration { return j.base.Now() }

// NewTimer implements Clock: the timer arms the base clock's timer
// with perturbed durations.
func (j *Jittered) NewTimer(fn func()) Timer {
	return &jitteredTimer{base: j.base.NewTimer(fn), jitter: j.jitter}
}

type jitteredTimer struct {
	base   Timer
	jitter func(time.Duration) time.Duration
}

func (jt *jitteredTimer) Reset(d time.Duration) bool {
	if jt.jitter != nil {
		d = jt.jitter(d)
	}
	return jt.base.Reset(d)
}

func (jt *jitteredTimer) Stop() bool { return jt.base.Stop() }
