package sim

import "fmt"

// Signal is a SVR4-style signal number. The numbering follows SunOS 5
// closely; SIGWAITING is the new signal introduced by the paper, sent
// to a process when all of its LWPs are blocked in indefinite waits.
type Signal int

// Signal numbers.
const (
	SIGNONE Signal = iota
	SIGHUP
	SIGINT
	SIGQUIT
	SIGILL
	SIGTRAP
	SIGABRT
	SIGEMT
	SIGFPE
	SIGKILL
	SIGBUS
	SIGSEGV
	SIGSYS
	SIGPIPE
	SIGALRM
	SIGTERM
	SIGUSR1
	SIGUSR2
	SIGCHLD
	SIGPWR
	SIGWINCH
	SIGURG
	SIGIO
	SIGSTOP
	SIGTSTP
	SIGCONT
	SIGTTIN
	SIGTTOU
	SIGVTALRM
	SIGPROF
	SIGXCPU
	SIGXFSZ
	SIGWAITING

	// NSIG is one greater than the largest signal number.
	NSIG
)

var sigNames = [NSIG]string{
	SIGHUP: "SIGHUP", SIGINT: "SIGINT", SIGQUIT: "SIGQUIT", SIGILL: "SIGILL",
	SIGTRAP: "SIGTRAP", SIGABRT: "SIGABRT", SIGEMT: "SIGEMT", SIGFPE: "SIGFPE",
	SIGKILL: "SIGKILL", SIGBUS: "SIGBUS", SIGSEGV: "SIGSEGV", SIGSYS: "SIGSYS",
	SIGPIPE: "SIGPIPE", SIGALRM: "SIGALRM", SIGTERM: "SIGTERM", SIGUSR1: "SIGUSR1",
	SIGUSR2: "SIGUSR2", SIGCHLD: "SIGCHLD", SIGPWR: "SIGPWR", SIGWINCH: "SIGWINCH",
	SIGURG: "SIGURG", SIGIO: "SIGIO", SIGSTOP: "SIGSTOP", SIGTSTP: "SIGTSTP",
	SIGCONT: "SIGCONT", SIGTTIN: "SIGTTIN", SIGTTOU: "SIGTTOU", SIGVTALRM: "SIGVTALRM",
	SIGPROF: "SIGPROF", SIGXCPU: "SIGXCPU", SIGXFSZ: "SIGXFSZ", SIGWAITING: "SIGWAITING",
}

// String implements fmt.Stringer.
func (s Signal) String() string {
	if s > 0 && s < NSIG && sigNames[s] != "" {
		return sigNames[s]
	}
	return fmt.Sprintf("SIG(%d)", int(s))
}

// Valid reports whether s names a real signal.
func (s Signal) Valid() bool { return s > 0 && s < NSIG }

// IsTrap reports whether the signal is in the paper's "trap" category:
// caused synchronously by the operation of a thread and handled only
// by the thread that caused it. Everything else is an "interrupt".
func (s Signal) IsTrap() bool {
	switch s {
	case SIGILL, SIGTRAP, SIGEMT, SIGFPE, SIGBUS, SIGSEGV, SIGSYS:
		return true
	}
	return false
}

// Sigset is a set of signals, one bit per signal number.
type Sigset uint64

// MakeSigset builds a set from the given signals.
func MakeSigset(sigs ...Signal) Sigset {
	var s Sigset
	for _, sig := range sigs {
		s = s.Add(sig)
	}
	return s
}

// Add returns the set with sig added.
func (ss Sigset) Add(sig Signal) Sigset { return ss | 1<<uint(sig) }

// Del returns the set with sig removed.
func (ss Sigset) Del(sig Signal) Sigset { return ss &^ (1 << uint(sig)) }

// Has reports whether sig is in the set.
func (ss Sigset) Has(sig Signal) bool { return ss&(1<<uint(sig)) != 0 }

// Union returns the union of the two sets.
func (ss Sigset) Union(o Sigset) Sigset { return ss | o }

// Minus returns ss with every member of o removed.
func (ss Sigset) Minus(o Sigset) Sigset { return ss &^ o }

// Lowest returns the lowest-numbered signal in the set, or SIGNONE.
func (ss Sigset) Lowest() Signal {
	if ss == 0 {
		return SIGNONE
	}
	for sig := Signal(1); sig < NSIG; sig++ {
		if ss.Has(sig) {
			return sig
		}
	}
	return SIGNONE
}

// Signals returns the members of the set in ascending order.
func (ss Sigset) Signals() []Signal {
	var out []Signal
	for sig := Signal(1); sig < NSIG; sig++ {
		if ss.Has(sig) {
			out = append(out, sig)
		}
	}
	return out
}

// SigHow selects how thread/LWP signal masks are combined, mirroring
// sigprocmask(2).
type SigHow int

// Mask-manipulation modes.
const (
	SigBlock SigHow = iota
	SigUnblock
	SigSetMask
)

// ApplyMask combines old and set according to how.
func ApplyMask(old Sigset, how SigHow, set Sigset) Sigset {
	switch how {
	case SigBlock:
		return old.Union(set)
	case SigUnblock:
		return old.Minus(set)
	case SigSetMask:
		return set
	}
	return old
}

// unmaskable are signals whose delivery cannot be blocked or ignored.
const unmaskable = Sigset(1<<uint(SIGKILL) | 1<<uint(SIGSTOP))

// DefaultAction describes what a signal does to a process when its
// disposition is SIG_DFL.
type DefaultAction int

// Default dispositions.
const (
	ActExit DefaultAction = iota
	ActCore
	ActIgnore
	ActStop
	ActContinue
)

// DefaultActionOf returns the SIG_DFL behaviour of sig.
func DefaultActionOf(sig Signal) DefaultAction {
	switch sig {
	case SIGQUIT, SIGILL, SIGTRAP, SIGABRT, SIGEMT, SIGFPE, SIGBUS, SIGSEGV,
		SIGSYS, SIGXCPU, SIGXFSZ:
		return ActCore
	case SIGCHLD, SIGPWR, SIGWINCH, SIGURG, SIGWAITING:
		return ActIgnore
	case SIGSTOP, SIGTSTP, SIGTTIN, SIGTTOU:
		return ActStop
	case SIGCONT:
		return ActContinue
	}
	return ActExit
}

// Disposition is a per-process, per-signal handler setting. As in the
// paper, all threads in an address space share the set of signal
// handlers set up by signal() and its variants.
type Disposition int

// Handler dispositions.
const (
	SigDfl Disposition = iota
	SigIgn
	SigCatch
)

// sigaction is a process's per-signal handler slot.
type sigaction struct {
	disp Disposition
	// handler runs in the context of whichever thread the library
	// routes the signal to; the kernel only records it.
	handler func(Signal)
	// cookie is opaque library data carried with the action; the
	// threads library stores its thread-context handler here.
	cookie any
	// mask is added to the handling context's mask for the duration
	// of the handler, as with sigaction(2).
	mask Sigset
}
