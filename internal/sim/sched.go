package sim

import (
	"fmt"
	"time"
)

// Class is a kernel scheduling class. LWPs (and therefore bound
// threads) can change their scheduling class and class priority via
// Priocntl, as in the paper.
type Class int

// Scheduling classes.
const (
	// ClassTS is the timeshare class: priorities decay with CPU
	// usage and recover while sleeping.
	ClassTS Class = iota
	// ClassSYS is the system class, used by kernel-internal LWPs.
	ClassSYS
	// ClassRT is the real-time class: fixed priorities that always
	// beat TS and SYS. A bound thread in this class has true
	// system-wide scheduling priority (the paper's answer to the
	// Chorus real-time objection).
	ClassRT
	// ClassGang is the paper's new scheduling class for "gang"
	// scheduling of fine-grain parallel computations: the
	// dispatcher co-schedules runnable members of the same gang
	// onto free CPUs together whenever possible.
	ClassGang
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassTS:
		return "TS"
	case ClassSYS:
		return "SYS"
	case ClassRT:
		return "RT"
	case ClassGang:
		return "GANG"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Priority bands. Global priorities are comparable across classes;
// higher wins.
const (
	tsMinGlobal  = 0
	tsMaxGlobal  = 59
	sysMinGlobal = 60
	sysMaxGlobal = 99
	rtMinGlobal  = 100
	rtMaxGlobal  = 159

	// MaxUserPrio is the largest class-relative priority a user can
	// request with Priocntl for the TS and RT classes.
	MaxUserPrio = 59
)

// tsUsagePenalty converts accumulated CPU time into a priority
// penalty: every tsPenaltyQuantum of CPU costs one priority level, up
// to tsMaxPenalty levels. This is a simplified version of the SVR4 TS
// dispatch table, chosen so the behaviour ("CPU hogs sink, sleepers
// rise") is easy to verify in tests.
const (
	tsPenaltyQuantum = 5 * time.Millisecond
	tsMaxPenalty     = 30
	tsDecayInterval  = time.Second
)

// tsGlobalPrio computes the global priority of a timeshare LWP from
// its user-set base priority (0..59) and its accumulated, decayed CPU
// usage. Exposed as a pure function so the arithmetic is testable.
func tsGlobalPrio(base int, usage time.Duration) int {
	penalty := int(usage / tsPenaltyQuantum)
	if penalty > tsMaxPenalty {
		penalty = tsMaxPenalty
	}
	g := base - penalty
	if g < tsMinGlobal {
		g = tsMinGlobal
	}
	if g > tsMaxGlobal {
		g = tsMaxGlobal
	}
	return g
}

// globalPrio computes an LWP's current global dispatch priority.
// Caller holds k.mu.
func (l *LWP) globalPrio() int {
	switch l.class {
	case ClassRT:
		p := rtMinGlobal + l.userPrio
		if p > rtMaxGlobal {
			p = rtMaxGlobal
		}
		return p
	case ClassSYS:
		p := sysMinGlobal + l.userPrio
		if p > sysMaxGlobal {
			p = sysMaxGlobal
		}
		return p
	default: // TS and GANG share the TS priority range.
		return tsGlobalPrio(l.userPrio, l.cpuUsage)
	}
}

// chargeAndDecay charges d of CPU time to a TS/GANG LWP's usage and
// applies the periodic decay. Caller holds k.mu.
func (l *LWP) chargeAndDecay(d time.Duration, now time.Duration) {
	l.cpuUsage += d
	if now-l.lastDecay >= tsDecayInterval {
		// Halve usage for each full decay interval elapsed.
		for now-l.lastDecay >= tsDecayInterval {
			l.cpuUsage /= 2
			l.lastDecay += tsDecayInterval
		}
	}
}

// Priocntl changes the scheduling class and class-relative priority of
// an LWP, like priocntl(2). prio must be in [0, MaxUserPrio].
func (k *Kernel) Priocntl(l *LWP, class Class, prio int) error {
	if prio < 0 || prio > MaxUserPrio {
		return fmt.Errorf("sim: priocntl: priority %d out of range", prio)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.state == LWPZombie {
		return fmt.Errorf("sim: priocntl: lwp %d is a zombie", l.id)
	}
	k.reclassLocked(l, class, prio, 0)
	k.preemptCheckLocked()
	return nil
}

// reclassLocked installs new class parameters with the
// remove-modify-push discipline: a queued LWP is unlinked first and
// re-pushed after, so its queue level and the kernel's gang counter
// track the change.
func (k *Kernel) reclassLocked(l *LWP, class Class, prio, gang int) {
	queued := l.rqOn
	var c *CPU
	if queued {
		c = l.rqCPU
		k.runqRemoveLocked(l)
	}
	l.class = class
	l.userPrio = prio
	if class == ClassGang {
		l.gang = gang
	} else {
		l.gang = 0
	}
	if queued {
		k.runqPushLocked(c, l)
	}
}

// JoinGang places the LWP in the gang scheduling class as a member of
// gang group g (g > 0). Members of the same gang are co-scheduled onto
// free CPUs whenever possible.
func (k *Kernel) JoinGang(l *LWP, g int, prio int) error {
	if g <= 0 {
		return fmt.Errorf("sim: gang id must be positive")
	}
	if prio < 0 || prio > MaxUserPrio {
		return fmt.Errorf("sim: priocntl: priority %d out of range", prio)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.state == LWPZombie {
		return fmt.Errorf("sim: priocntl: lwp %d is a zombie", l.id)
	}
	k.reclassLocked(l, ClassGang, prio, g)
	k.preemptCheckLocked()
	return nil
}

// BindCPU restricts the LWP to run only on CPU cpuID (the paper's
// "the process has asked the system to bind one of its LWPs to a
// CPU"). A negative cpuID removes the binding.
func (k *Kernel) BindCPU(l *LWP, cpuID int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	var bound *CPU
	if cpuID >= 0 {
		if cpuID >= len(k.cpus) {
			return fmt.Errorf("sim: no CPU %d (have %d)", cpuID, len(k.cpus))
		}
		bound = k.cpus[cpuID]
		if l.psBound && bound.ps != l.ps {
			return fmt.Errorf("sim: CPU %d is outside lwp %d's pset %d", cpuID, l.id, l.ps.id)
		}
	}
	// Remove-modify-push: the binding decides which queue the LWP
	// may sit on and whether it counts as stealable there.
	queued := l.rqOn
	if queued {
		k.runqRemoveLocked(l)
	}
	l.boundCPU = bound
	if bound != nil && !l.psBound {
		// An unbound-pset LWP follows its CPU's set.
		l.ps = bound.ps
	}
	if queued {
		k.runqPushLocked(k.placeLocked(l), l)
	}
	if bound != nil && l.cpu != nil && l.cpu != bound {
		l.preempt = true
	}
	k.scheduleLocked()
	return nil
}
