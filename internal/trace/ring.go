// Package trace is the one typed event stream of the simulated kernel
// and the threads library: fixed-size per-CPU binary event rings with
// seqlock-style slots. Scheduler transitions and cold-path lifecycle
// events (process and LWP lifecycle, signal delivery, pool growth,
// pset binds, owner death) all record here, so perfetto export and
// schedule replay see every event. Recording costs a timestamp, an
// atomic claim, a struct store and a version store — never a lock or
// an allocation. Schedule journals (journal.go) serialize a ring
// snapshot together with the chaos decisions that steered it.
package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// EventKind identifies one class of event.
type EventKind uint8

// Event kinds recorded by the kernel and the threads library.
const (
	EvNone EventKind = iota
	// EvDispatch: the kernel dispatched an LWP onto a CPU. Arg is the
	// LWP's global priority.
	EvDispatch
	// EvPreempt: an on-CPU LWP was preempted (priority preemption,
	// time-slice expiry, or chaos-forced).
	EvPreempt
	// EvWakeup: a sleeping or parked LWP was woken. Arg is the
	// WakeResult.
	EvWakeup
	// EvMigrate: the LWP was dispatched on a different CPU than its
	// previous one. Arg is the previous CPU id.
	EvMigrate
	// EvSigwaiting: SIGWAITING was posted to the process. Arg is the
	// number of LWPs found blocked.
	EvSigwaiting
	// EvLockBlock: a thread published a wait-for edge on a contended
	// synchronization object and is about to park.
	EvLockBlock
	// EvThreadRun: the library dispatched a thread onto a pool LWP.
	EvThreadRun
	// EvThreadPark: a thread parked, handing its LWP back to the
	// dispatcher. Arg is the library thread state it parked in.
	EvThreadPark
	// EvSteal: an idle (or lower-priority) CPU pulled the LWP off
	// another CPU's run queue. CPU is the thief; Arg is the victim
	// CPU id. A matching EvDispatch on the thief follows.
	EvSteal
	// EvBalance: the periodic balancer moved a queued LWP to a
	// shallower queue. CPU is the destination; Arg is the source CPU
	// id.
	EvBalance
	// EvFastForward: the fast-forward clock leapt over idle virtual
	// time to the next timer deadline. Arg is the nanoseconds
	// skipped; recorded on the unattributed ring.
	EvFastForward

	// Lifecycle kinds. Each is recorded on the unattributed ring
	// (CPU -1) with TID zero unless noted.

	// EvProcCreate: a process was created. PID is the new process;
	// Arg is the parent's pid (0 for none).
	EvProcCreate
	// EvFork: a process forked (fork or fork1). PID and LWP are the
	// parent and its forking LWP; Arg is the child's pid. The
	// child's EvProcCreate and EvLWPCreate records precede it, one
	// EvLWPCreate per duplicated LWP.
	EvFork
	// EvExec: a process began exec. LWP is the surviving LWP; Arg
	// is the number of other LWPs being torn down.
	EvExec
	// EvProcExit: the process's last LWP exited and it became a
	// zombie. Arg is the exit status in the low 32 bits and the
	// killing signal (0 for a voluntary exit) in the high 32.
	EvProcExit
	// EvLWPCreate: the kernel created an LWP. Arg is its scheduling
	// class (the sim.Class ordinal).
	EvLWPCreate
	// EvLWPExit: an LWP exited. Arg is the number of LWPs the
	// process still has.
	EvLWPExit
	// EvSignal: a signal was delivered to an LWP, which takes it
	// into a handler. Arg is the signal number.
	EvSignal
	// EvPoolGrow: the threads library added an LWP to its pool
	// (startup, SetConcurrency, or SIGWAITING growth). Arg is the
	// pool size after the growth.
	EvPoolGrow
	// EvPoolAge: an idle pool LWP aged out. Arg is the number of
	// pool LWPs that remain.
	EvPoolAge
	// EvPset: an LWP was bound to a processor set. Arg is the set
	// id (0, the default set, removes the binding).
	EvPset
	// EvOwnerDead: a process died holding a process-shared
	// synchronization variable, which is now marked OWNERDEAD. PID
	// and TID are the dead owner; Arg is the variable's kind (the
	// usync.Kind ordinal).
	EvOwnerDead
	numEventKinds
)

var kindNames = [numEventKinds]string{
	EvDispatch:    "dispatch",
	EvPreempt:     "preempt",
	EvWakeup:      "wakeup",
	EvMigrate:     "migrate",
	EvSigwaiting:  "sigwaiting",
	EvLockBlock:   "lockblock",
	EvThreadRun:   "threadrun",
	EvThreadPark:  "threadpark",
	EvSteal:       "steal",
	EvBalance:     "balance",
	EvFastForward: "fastforward",
	EvProcCreate:  "proccreate",
	EvFork:        "fork",
	EvExec:        "exec",
	EvProcExit:    "procexit",
	EvLWPCreate:   "lwpcreate",
	EvLWPExit:     "lwpexit",
	EvSignal:      "signal",
	EvPoolGrow:    "poolgrow",
	EvPoolAge:     "poolage",
	EvPset:        "pset",
	EvOwnerDead:   "ownerdead",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k > EvNone && k < numEventKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Record is one binary trace event. CPU is the processor the event
// was attributed to (-1 when the recording site has no CPU in hand —
// wakeups, lock blocks, lifecycle events). TID is zero for
// kernel-level events.
type Record struct {
	Seq  uint64        // global order across all rings
	When time.Duration // virtual-clock time
	Kind EventKind
	CPU  int32
	PID  int32
	LWP  int32
	TID  int32
	Arg  uint64 // kind-specific payload
}

// String renders the record as a single line.
func (r Record) String() string {
	return fmt.Sprintf("%8d %12v cpu%-3d %-10s pid %-3d lwp %-3d tid %-3d arg %d",
		r.Seq, r.When, r.CPU, r.Kind, r.PID, r.LWP, r.TID, r.Arg)
}

// slot is one ring entry. ver is 2*lap+1 while the writer of that lap
// is mid-store and 2*lap+2 once its record is complete (0: never
// written). A writer takes the slot only from a complete older lap, so
// writers of different laps never interleave their stores. readers
// counts snapshots copying rec: a writer that finds one after its
// claim gives the slot back unwritten, so rec is never written and
// read at once: the version and reader-count atomics order every
// write of rec against every read of it.
type slot struct {
	ver     atomic.Uint64
	readers atomic.Int32
	rec     Record
}

// ring is one per-CPU buffer. pos is the claim cursor: writers
// fetch-add it and overwrite slot pos&mask in lap pos>>shift, so
// the ring keeps the most recent len(slots) events and pos-len(slots)
// counts the overwritten ones. The trailing pad keeps neighbouring
// rings' cursors off one cache line.
type ring struct {
	pos   atomic.Uint64
	_     [7]uint64
	slots []slot
	mask  uint64
	shift uint // log2(len(slots)): pos>>shift is the lap
}

func (rb *ring) record(rec Record) {
	i := rb.pos.Add(1) - 1
	s := &rb.slots[i&rb.mask]
	writing := 2*(i>>rb.shift) + 1
	// Drop the record rather than block when an older lap's writer is
	// mid-store, a newer lap holds (or just took) the slot, or a
	// snapshot is copying it. Snapshots count the slot as torn.
	v := s.ver.Load()
	if v&1 != 0 || v > writing || !s.ver.CompareAndSwap(v, writing) {
		return
	}
	if s.readers.Load() != 0 {
		s.ver.Store(v)
		return
	}
	s.rec = rec
	s.ver.Store(writing + 1)
}

// Rings is a set of per-CPU event rings plus one extra ring for
// events recorded with no CPU attribution. A nil *Rings discards all
// events, so call sites need no enabled checks. Writers never block
// and never allocate; readers skip slots mid-write by their versions,
// so a snapshot can be taken while the system runs.
type Rings struct {
	seq   atomic.Uint64
	torn  atomic.Uint64
	now   func() time.Duration
	rings []ring // index cpu id; last entry is the unattributed ring
	ncpu  int
}

// NewRings returns rings for ncpu CPUs, each keeping the most recent
// perCPU events (rounded up to a power of two, minimum 64). now
// supplies timestamps; nil records zero times.
func NewRings(ncpu, perCPU int, now func() time.Duration) *Rings {
	if ncpu <= 0 {
		ncpu = 1
	}
	size := uint64(64)
	for size < uint64(perCPU) {
		size <<= 1
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	r := &Rings{now: now, ncpu: ncpu, rings: make([]ring, ncpu+1)}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, size)
		r.rings[i].mask = size - 1
		r.rings[i].shift = uint(bits.TrailingZeros64(size))
	}
	return r
}

func (r *Rings) ring(cpu int) *ring {
	if cpu >= 0 && cpu < r.ncpu {
		return &r.rings[cpu]
	}
	return &r.rings[r.ncpu]
}

// Record appends an event to the ring of the given CPU (cpu < 0: the
// unattributed ring). Record on a nil *Rings is a no-op.
func (r *Rings) Record(cpu int, kind EventKind, pid, lwp, tid int, arg uint64) {
	if r == nil {
		return
	}
	r.ring(cpu).record(Record{
		Seq:  r.seq.Add(1),
		When: r.now(),
		Kind: kind,
		CPU:  int32(cpu),
		PID:  int32(pid),
		LWP:  int32(lwp),
		TID:  int32(tid),
		Arg:  arg,
	})
}

// NCPU returns the number of per-CPU rings (excluding the
// unattributed ring).
func (r *Rings) NCPU() int {
	if r == nil {
		return 0
	}
	return r.ncpu
}

// Dropped reports how many recorded events have been overwritten
// before being read (ring wrap), summed over all rings.
func (r *Rings) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var dropped uint64
	for i := range r.rings {
		rb := &r.rings[i]
		if pos, size := rb.pos.Load(), uint64(len(rb.slots)); pos > size {
			dropped += pos - size
		}
	}
	return dropped
}

// Torn reports how many slots snapshots have skipped because a writer
// was overwriting them mid-read.
func (r *Rings) Torn() uint64 {
	if r == nil {
		return 0
	}
	return r.torn.Load()
}

// Snapshot copies the retained events out of every ring, merged into
// one slice ordered by Seq, and reports the overwrite drop count.
// Slots being overwritten during the copy are skipped (counted by
// Torn); the system may keep running while a snapshot is taken.
func (r *Rings) Snapshot() ([]Record, uint64) {
	if r == nil {
		return nil, 0
	}
	var out []Record
	for i := range r.rings {
		rb := &r.rings[i]
		pos, size := rb.pos.Load(), uint64(len(rb.slots))
		for j := uint64(0); j < min(pos, size); j++ {
			s := &rb.slots[j]
			// Registered as a reader, the slot cannot change under
			// the copy. An older lap than its last claim is a
			// claimed slot not yet (or never) written.
			s.readers.Add(1)
			if v := s.ver.Load(); v&1 != 0 || v < 2*((pos-1-j)>>rb.shift)+2 {
				s.readers.Add(-1)
				r.torn.Add(1)
				continue
			}
			out = append(out, s.rec)
			s.readers.Add(-1)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, r.Dropped()
}

// Kinds returns the snapshot filtered to the given kinds, in Seq
// order.
func (r *Rings) Kinds(kinds ...EventKind) []Record {
	recs, _ := r.Snapshot()
	var want [numEventKinds]bool
	for _, k := range kinds {
		want[k] = true
	}
	out := recs[:0]
	for _, rec := range recs {
		if want[rec.Kind] {
			out = append(out, rec)
		}
	}
	return out
}
