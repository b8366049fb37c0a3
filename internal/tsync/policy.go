// Lock policies: pluggable lock/wake strategies behind Mutex's word
// lock.
//
// "Basic Lock Algorithms in Lightweight Thread Environments" finds
// that under user-level threading the lock/wake policy — who spins,
// who parks, and who the release wakes — dominates tail latency, not
// the critical section itself. This file factors that policy out of
// Mutex: the word lock, the owner word, the turnstile, and the robust
// shared-memory variant stay shared, while acquisition and release
// dispatch through a lockPolicy.
//
// Two families:
//
//   - Barging (adaptive, parkinglot): release clears the owner word
//     and wakes the best waiter, but an un-queued acquirer that
//     arrives before the woken waiter runs can take the lock first
//     (Mesa semantics, like Solaris adaptive mutexes). Throughput-
//     friendly — the lock is never held by a thread that is not
//     running — but unfair under sustained contention.
//   - Hand-off (ticket, queue): waiters queue in strict arrival order
//     on a FIFO sleep channel and release transfers ownership
//     directly to the head waiter while the lock stays held — there
//     is no unowned window, so no barging and no starvation. Tail
//     latency is bounded by queue position at the cost of lock
//     hand-off convoys when the wake is slow.
//
// Hand-off interacts with priority inheritance: a FIFO queue's head
// is not its best waiter, so the turnstile scans hand-off queues in
// full (core.heldMaxLocked) and ownership transfer re-computes both
// threads' effective priorities in one critical section
// (core.Turnstile.HandOff) — the inheritance invariant, eff(owner) >=
// max(eff(blocked waiters)), holds across the transfer itself.
package tsync

import (
	"sync/atomic"
	"time"

	"sunosmt/internal/core"
)

// Policy selects a mutex lock/wake policy, per-lock via
// Mutex.InitPolicy or per-process via the runtime's LockPolicy config
// (mt.Options/ProcConfig). Orthogonal to Variant: error checking and
// the pure-spin variant behave the same under every policy.
type Policy int

// Mutex lock policies.
const (
	// PolicyDefault defers to the process default (core.Config
	// .LockPolicy), which itself defaults to PolicyAdaptive.
	PolicyDefault Policy = iota
	// PolicyAdaptive is the paper's adaptive mutex: spin while the
	// owner is observed on-CPU, park otherwise; barging release.
	PolicyAdaptive
	// PolicyTicket queues waiters in strict arrival order and hands
	// the lock to the oldest waiter on release (a ticket lock's
	// now-serving discipline on the sleep queue). No spin phase.
	PolicyTicket
	// PolicyQueue is the MCS/CLH-style queue lock: arrival-order
	// hand-off like ticket, but each waiter chains an explicit queue
	// node and briefly spins on its own node's grant flag (local
	// spinning) before parking.
	PolicyQueue
	// PolicyParkingLot is a parking-lot-style adaptive lock: a short
	// fixed spin (owner state ignored), priority-ordered parking, and
	// barging release — except every fairHandOffEvery-th release
	// hands off directly to the best waiter, parking_lot's eventual-
	// fairness rule.
	PolicyParkingLot
)

// String implements fmt.Stringer; the names appear in /proc lstatus
// and the fig-12 shootout tables.
func (p Policy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyTicket:
		return "ticket"
	case PolicyQueue:
		return "queue"
	case PolicyParkingLot:
		return "parkinglot"
	}
	return "policy?"
}

// Policies lists the concrete policies (for conformance and chaos
// sweeps and the shootout matrix).
func Policies() []Policy {
	return []Policy{PolicyAdaptive, PolicyTicket, PolicyQueue, PolicyParkingLot}
}

// lockPolicy is the strategy behind Mutex's word lock: how a thread
// acquires a contended (unshared) mutex and how a release picks and
// wakes the successor. Implementations share the Mutex's word lock,
// owner word, waiter queue, and turnstile; they differ in queue order
// (priority vs arrival), spin discipline, and barging vs hand-off
// release. The process-shared (robust) path never dispatches here —
// its waiters sleep in the kernel on the mapped words.
type lockPolicy interface {
	name() string
	// enter acquires mp for t, parking as needed; d > 0 bounds the
	// wait (ErrTimedOut). Called with no locks held.
	enter(mp *Mutex, t *core.Thread, d time.Duration) error
	// exit releases mp held by t, waking (or handing off to) a
	// waiter. Called with no locks held.
	exit(mp *Mutex, t *core.Thread)
}

// implOf maps a resolved Policy to its singleton implementation.
func implOf(p Policy) lockPolicy {
	switch p {
	case PolicyTicket:
		return ticketPolicy{}
	case PolicyQueue:
		return queuePolicy{}
	case PolicyParkingLot:
		return parkingLotPolicy{}
	}
	return adaptivePolicy{}
}

// impl resolves (and pins) mp's policy implementation: the per-lock
// policy if one was set with InitPolicy, else the process default from
// t's runtime, else adaptive. Pinned on first use so a mutex never
// changes discipline mid-life (its waiter queue order is baked into
// the sleep channel); the pure-spin variant always resolves to the
// adaptive implementation, whose spin branch never parks.
func (mp *Mutex) impl(t *core.Thread) lockPolicy {
	mp.mu.Lock()
	if mp.pinned == nil {
		p := mp.policy
		if p == PolicyDefault {
			p = Policy(t.Runtime().LockPolicy())
		}
		if mp.variant == VariantSpin {
			p = PolicyAdaptive
		}
		mp.pinned = implOf(p)
	}
	ip := mp.pinned
	mp.mu.Unlock()
	return ip
}

// policyName reports the pinned policy's name, or the configured
// policy's name before first use — the /proc lstatus POLICY column.
func (mp *Mutex) policyName() string {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	if mp.pinned != nil {
		return mp.pinned.name()
	}
	return mp.policy.String()
}

// --- adaptive (the paper's default) -------------------------------------

// adaptiveSpin is the owner-tracking spin budget of the adaptive
// policy. The budget is per OBSERVED OWNER, not per acquisition
// attempt: a waiter that has spun on several successive short-hold
// owners is exactly the waiter whose next owner is also likely to
// release quickly, so an owner change resets the budget instead of
// counting against it. (Before this, the counter persisted across
// owner changes and such a waiter parked prematurely.)
type adaptiveSpin struct {
	last  *core.Thread
	spins int
}

// shouldSpin charges one probe against the budget for the observed
// owner, resetting the budget when ownership has changed since the
// last probe. Reports whether the waiter should keep spinning.
func (s *adaptiveSpin) shouldSpin(owner *core.Thread) bool {
	if owner != s.last {
		s.last = owner
		s.spins = 0
	}
	if s.spins >= adaptiveSpinCap {
		return false
	}
	s.spins++
	return true
}

type adaptivePolicy struct{}

func (adaptivePolicy) name() string { return "adaptive" }

func (adaptivePolicy) enter(mp *Mutex, t *core.Thread, d time.Duration) error {
	spin := mp.variant == VariantSpin
	adaptive := !spin
	var as adaptiveSpin
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	for {
		mp.mu.Lock()
		if !mp.held {
			mp.held = true
			mp.owner = t
			mp.ts.Acquired(t)
			mp.mu.Unlock()
			return nil
		}
		owner := mp.owner
		mp.mu.Unlock()
		if mp.variant == VariantErrorCheck && owner != nil {
			// EDEADLK at lock time: self-ownership, or the
			// wait-for graph shows the owner (transitively)
			// waiting on us. Checked before parking.
			if owner == t || t.Runtime().WouldDeadlock(t, owner) {
				return ErrDeadlock
			}
		}
		if d > 0 && clk.Now() >= deadline {
			return ErrTimedOut
		}
		if spin {
			t.Yield() // let the holder run; never park
			continue
		}
		if adaptive && owner != nil && owner.OnCPU() && as.shouldSpin(owner) {
			// Adaptive phase, as in the real Solaris adaptive mutex:
			// spin only while the owner is observed executing on a
			// processor — its release is then likely imminent and
			// cheaper to catch than two context switches. The moment
			// the owner is seen off-CPU (preempted, blocked), fall
			// through and park.
			t.Yield()
			continue
		}
		// Queue and park. The enqueue happens under the word
		// lock; the wake permit protocol in core makes the
		// release-side unpark race-free.
		mp.mu.Lock()
		if !mp.held {
			mp.mu.Unlock()
			continue // released between probes: re-try
		}
		mp.ts.SetQueue(mp.waiters.chanOf())
		mp.waiters.push(t)
		bi := mp.edgeLocked()
		mp.mu.Unlock()
		if chaosOf(t).SpuriousWakeup() {
			// Chaos: the park returns with no real wake.
			// Deregister (a real wake would have popped us)
			// and re-contend.
			mp.mu.Lock()
			mp.waiters.remove(t)
			mp.mu.Unlock()
			t.Checkpoint()
			continue
		}
		t.NoteBlocked(bi)
		// Will our effective priority down the ownership chain so
		// the holder (and whatever it is blocked on) outranks us
		// while we park — the turnstile priority inheritance.
		t.WillPriority()
		if d > 0 {
			if t.ParkTimed(deadline, (*mutexQueue)(mp)) {
				t.NoteUnblocked()
				return ErrTimedOut
			}
		} else {
			t.Park()
		}
		t.NoteUnblocked()
		as = adaptiveSpin{} // a fresh contention round gets a fresh spin budget
		// Loop: mutex may have been stolen by a barger; Mesa
		// semantics, as with real adaptive locks.
	}
}

func (adaptivePolicy) exit(mp *Mutex, t *core.Thread) {
	mp.mu.Lock()
	if mp.variant == VariantErrorCheck {
		if !mp.held || mp.owner != t {
			mp.mu.Unlock()
			panic("tsync: mutex_exit of a lock not held by the thread")
		}
	}
	mp.owner = nil
	mp.held = false
	// Shed any boost willed through this lock; the handoff below
	// wakes the highest-priority waiter (the queue is priority-
	// ordered).
	mp.ts.Released(t)
	wake := mp.waiters.pop()
	mp.mu.Unlock()
	if wake != nil {
		wake.Unpark()
	}
}

// --- FIFO hand-off (ticket, queue) --------------------------------------

// mcsNode is one waiter's link in the queue policy's explicit chain —
// the MCS/CLH shape: the releaser touches only the head node, and the
// waiter spins on its OWN node's grant flag, not on the lock word.
// The chain mirrors the FIFO sleep channel (which the turnstile and
// the sleepq bookkeeping need); every enqueue, grant, and cancel
// updates both under the word lock, and exitHandOff panics if they
// ever disagree — the queue-node integrity the chaos sweep exercises.
//
// Nodes are recycled through the mutex's free list: the waiter that
// owns a node returns it once the node is off the chain, so a
// contended queue-policy acquisition allocates nothing in steady
// state.
type mcsNode struct {
	t          *core.Thread
	next, prev *mcsNode
	queued     bool // on the chain; word lock
	granted    atomic.Bool
}

// mcsLocalSpinCap bounds the queue policy's local-spin phase: probes
// of the waiter's own grant flag (each yielding the LWP) before it
// parks. Short — its job is to catch an imminent hand-off without a
// park/unpark round trip, not to busy-wait through a hold.
const mcsLocalSpinCap = 32

// pushNodeLocked appends a node for t to the MCS chain, reusing a
// free one if there is one; word lock held.
func (mp *Mutex) pushNodeLocked(t *core.Thread) *mcsNode {
	nd := mp.qfree
	if nd != nil {
		mp.qfree = nd.next
		nd.next = nil
		nd.granted.Store(false)
	} else {
		nd = &mcsNode{}
	}
	nd.t, nd.queued = t, true
	nd.prev = mp.qtail
	if mp.qtail != nil {
		mp.qtail.next = nd
	} else {
		mp.qhead = nd
	}
	mp.qtail = nd
	return nd
}

// unlinkNodeLocked removes nd from the MCS chain; word lock held.
func (mp *Mutex) unlinkNodeLocked(nd *mcsNode) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		mp.qhead = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		mp.qtail = nd.prev
	}
	nd.next, nd.prev = nil, nil
	nd.queued = false
}

// releaseNodeLocked puts the caller's node back on the free list once
// it is off the chain; a nil or still-queued node is left alone. Word
// lock held.
func (mp *Mutex) releaseNodeLocked(nd *mcsNode) {
	if nd == nil || nd.queued {
		return
	}
	nd.t = nil
	nd.next = mp.qfree
	mp.qfree = nd
}

// popNodeLocked removes and returns the chain head; word lock held.
func (mp *Mutex) popNodeLocked() *mcsNode {
	nd := mp.qhead
	if nd != nil {
		mp.unlinkNodeLocked(nd)
	}
	return nd
}

// dequeueSelfLocked removes t from the waiter queue and, under the
// queue policy, its node from the MCS chain, reporting whether t was
// still queued. False means a releaser already popped t (and, under a
// hand-off policy, granted it the lock — the caller's re-check loop
// will observe mp.owner == t). Both structures are popped together by
// the granter, so the single removed flag keeps them consistent. The
// chain walk runs only on cancellation (timeout, chaos spurious
// wake), never on the grant path. Word lock held.
func (mp *Mutex) dequeueSelfLocked(t *core.Thread) bool {
	if !mp.waiters.remove(t) {
		return false
	}
	for nd := mp.qhead; nd != nil; nd = nd.next {
		if nd.t == t {
			mp.unlinkNodeLocked(nd)
			break
		}
	}
	return true
}

// enterHandOff is the acquisition loop shared by the ticket and queue
// policies: waiters queue in strict arrival order, release transfers
// ownership directly (the lock stays held across the transfer), and a
// woken waiter re-checks ownership rather than re-competing — there
// is no barging window. nodes selects the queue policy's explicit
// node chain with its local-spin phase.
func enterHandOff(mp *Mutex, t *core.Thread, d time.Duration, nodes bool) error {
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	enqueued := false // a grant (owner == t) is only possible once queued
	var nd *mcsNode   // our node on the chain (queue policy)
	for {
		mp.mu.Lock()
		if enqueued && mp.owner == t {
			// Hand-off grant: the releaser dequeued us and made us
			// owner while we were parked; held stayed true the whole
			// time, so nobody barged in between.
			mp.releaseNodeLocked(nd)
			mp.mu.Unlock()
			return nil
		}
		if !mp.held {
			mp.held = true
			mp.owner = t
			mp.ts.Acquired(t)
			mp.releaseNodeLocked(nd)
			mp.mu.Unlock()
			return nil
		}
		owner := mp.owner
		mp.mu.Unlock()
		if mp.variant == VariantErrorCheck && owner != nil {
			if owner == t || t.Runtime().WouldDeadlock(t, owner) {
				return ErrDeadlock
			}
		}
		if d > 0 && clk.Now() >= deadline {
			return ErrTimedOut
		}
		// Queue at the arrival-order tail and park.
		mp.mu.Lock()
		if enqueued && mp.owner == t {
			mp.releaseNodeLocked(nd)
			mp.mu.Unlock()
			return nil
		}
		if !mp.held {
			mp.mu.Unlock()
			continue
		}
		q := mp.waiters.chanOfFIFO()
		mp.ts.SetQueue(q)
		q.Enqueue(t)
		if nodes {
			mp.releaseNodeLocked(nd)
			nd = mp.pushNodeLocked(t)
		}
		enqueued = true
		bi := mp.edgeLocked()
		mp.mu.Unlock()
		if chaosOf(t).SpuriousWakeup() {
			// Chaos: the park returns with no real wake. Deregister
			// from BOTH queue structures (unless a grant already
			// popped us — the re-check above then sees ownership)
			// and re-contend from the tail.
			mp.mu.Lock()
			mp.dequeueSelfLocked(t)
			mp.mu.Unlock()
			t.Checkpoint()
			continue
		}
		if nodes {
			// Local spinning, the MCS distinctive: probe our own
			// node's grant flag — never the shared lock word — so an
			// imminent hand-off is caught without a park/unpark round
			// trip. The park below then consumes the grant's wake
			// permit immediately.
			for i := 0; i < mcsLocalSpinCap && !nd.granted.Load(); i++ {
				t.Yield()
			}
		}
		t.NoteBlocked(bi)
		t.WillPriority()
		if d > 0 {
			if t.ParkTimed(deadline, (*mutexQueue)(mp)) {
				t.NoteUnblocked()
				mp.mu.Lock()
				mp.releaseNodeLocked(nd)
				mp.mu.Unlock()
				return ErrTimedOut
			}
		} else {
			t.Park()
		}
		t.NoteUnblocked()
	}
}

// exitHandOff releases a hand-off mutex: ownership transfers directly
// to the oldest waiter with the lock held throughout (no unowned
// window), and the turnstile moves with it (core.Turnstile.HandOff
// re-computes both effective priorities atomically). With no waiters
// the lock releases normally.
func exitHandOff(mp *Mutex, t *core.Thread, nodes bool) {
	mp.mu.Lock()
	if mp.variant == VariantErrorCheck {
		if !mp.held || mp.owner != t {
			mp.mu.Unlock()
			panic("tsync: mutex_exit of a lock not held by the thread")
		}
	}
	wake := mp.waiters.pop()
	if wake == nil {
		mp.owner = nil
		mp.held = false
		mp.ts.Released(t)
		mp.mu.Unlock()
		return
	}
	if nodes {
		nd := mp.popNodeLocked()
		if nd == nil || nd.t != wake {
			// The node chain and the sleep channel must agree on the
			// oldest waiter; divergence means a cancel path unlinked
			// one but not the other.
			panic("tsync: queue-lock node chain diverged from waiter queue")
		}
		nd.granted.Store(true)
	}
	mp.owner = wake // held stays true: direct hand-off, no barging
	mp.ts.HandOff(t, wake)
	mp.mu.Unlock()
	wake.Unpark()
}

type ticketPolicy struct{}

func (ticketPolicy) name() string { return "ticket" }
func (ticketPolicy) enter(mp *Mutex, t *core.Thread, d time.Duration) error {
	return enterHandOff(mp, t, d, false)
}
func (ticketPolicy) exit(mp *Mutex, t *core.Thread) { exitHandOff(mp, t, false) }

type queuePolicy struct{}

func (queuePolicy) name() string { return "queue" }
func (queuePolicy) enter(mp *Mutex, t *core.Thread, d time.Duration) error {
	return enterHandOff(mp, t, d, true)
}
func (queuePolicy) exit(mp *Mutex, t *core.Thread) { exitHandOff(mp, t, true) }

// --- parking-lot adaptive -----------------------------------------------

// parkingLotSpinCap is the parking-lot policy's fixed spin budget:
// unlike adaptive, the probes do not require the owner on-CPU — the
// bet is on the hold time alone, webkit-parking-lot style.
const parkingLotSpinCap = 40

// fairHandOffEvery makes every Nth contended release a direct
// hand-off to the best waiter instead of a barging release —
// parking_lot's eventual-fairness rule, bounding how long a parked
// waiter can be barged past without reintroducing hand-off convoys on
// every release.
const fairHandOffEvery = 64

type parkingLotPolicy struct{}

func (parkingLotPolicy) name() string { return "parkinglot" }

func (parkingLotPolicy) enter(mp *Mutex, t *core.Thread, d time.Duration) error {
	spins := 0
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	enqueued := false
	for {
		mp.mu.Lock()
		if enqueued && mp.owner == t {
			mp.mu.Unlock()
			return nil // fairness hand-off granted us the lock
		}
		if !mp.held {
			mp.held = true
			mp.owner = t
			mp.ts.Acquired(t)
			mp.mu.Unlock()
			return nil
		}
		owner := mp.owner
		mp.mu.Unlock()
		if mp.variant == VariantErrorCheck && owner != nil {
			if owner == t || t.Runtime().WouldDeadlock(t, owner) {
				return ErrDeadlock
			}
		}
		if d > 0 && clk.Now() >= deadline {
			return ErrTimedOut
		}
		if spins < parkingLotSpinCap {
			// Fixed-budget spin regardless of the owner's state: a
			// short-hold bet that pays on multiprogrammed hosts where
			// OnCPU is stale, at the cost of wasted probes when the
			// owner is truly descheduled.
			spins++
			t.Yield()
			continue
		}
		mp.mu.Lock()
		if enqueued && mp.owner == t {
			mp.mu.Unlock()
			return nil
		}
		if !mp.held {
			mp.mu.Unlock()
			continue
		}
		mp.ts.SetQueue(mp.waiters.chanOf())
		mp.waiters.push(t)
		enqueued = true
		bi := mp.edgeLocked()
		mp.mu.Unlock()
		if chaosOf(t).SpuriousWakeup() {
			mp.mu.Lock()
			mp.waiters.remove(t)
			mp.mu.Unlock()
			t.Checkpoint()
			continue
		}
		t.NoteBlocked(bi)
		t.WillPriority()
		if d > 0 {
			if t.ParkTimed(deadline, (*mutexQueue)(mp)) {
				t.NoteUnblocked()
				return ErrTimedOut
			}
		} else {
			t.Park()
		}
		t.NoteUnblocked()
		spins = 0
	}
}

func (parkingLotPolicy) exit(mp *Mutex, t *core.Thread) {
	mp.mu.Lock()
	if mp.variant == VariantErrorCheck {
		if !mp.held || mp.owner != t {
			mp.mu.Unlock()
			panic("tsync: mutex_exit of a lock not held by the thread")
		}
	}
	mp.plSeq++
	if mp.plSeq%fairHandOffEvery == 0 {
		if wake := mp.waiters.pop(); wake != nil {
			// Eventual fairness: this release hands off directly to
			// the best (priority-then-FIFO) waiter — no barging
			// window this round, bounding parked waiters' starvation.
			mp.owner = wake
			mp.ts.HandOff(t, wake)
			mp.mu.Unlock()
			wake.Unpark()
			return
		}
	}
	mp.owner = nil
	mp.held = false
	mp.ts.Released(t)
	wake := mp.waiters.pop()
	mp.mu.Unlock()
	if wake != nil {
		wake.Unpark()
	}
}
