package sim

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestTSGlobalPrioBounds(t *testing.T) {
	f := func(base int16, usageMs uint16) bool {
		b := int(base) % 60
		if b < 0 {
			b = -b
		}
		g := tsGlobalPrio(b, time.Duration(usageMs)*time.Millisecond)
		return g >= tsMinGlobal && g <= tsMaxGlobal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTSGlobalPrioMonotonicInUsage(t *testing.T) {
	// More CPU usage never raises a timeshare priority.
	f := func(aMs, bMs uint16) bool {
		lo, hi := time.Duration(aMs)*time.Millisecond, time.Duration(bMs)*time.Millisecond
		if lo > hi {
			lo, hi = hi, lo
		}
		return tsGlobalPrio(45, lo) >= tsGlobalPrio(45, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTSGlobalPrioPenaltyCapped(t *testing.T) {
	if got := tsGlobalPrio(59, time.Hour); got != 59-tsMaxPenalty {
		t.Fatalf("hour of usage -> prio %d, want %d", got, 59-tsMaxPenalty)
	}
}

// Property: Sigset operations behave like a set of small integers.
func TestSigsetProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		var ss Sigset
		model := map[Signal]bool{}
		for _, r := range raw {
			sig := Signal(int(r)%int(NSIG-1) + 1)
			if r%2 == 0 {
				ss = ss.Add(sig)
				model[sig] = true
			} else {
				ss = ss.Del(sig)
				delete(model, sig)
			}
		}
		for sig := Signal(1); sig < NSIG; sig++ {
			if ss.Has(sig) != model[sig] {
				return false
			}
		}
		// Lowest agrees with the model.
		want := SIGNONE
		for sig := Signal(1); sig < NSIG; sig++ {
			if model[sig] {
				want = sig
				break
			}
		}
		if ss.Lowest() != want {
			return false
		}
		return len(ss.Signals()) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMaskSemantics(t *testing.T) {
	old := MakeSigset(SIGUSR1, SIGUSR2)
	add := MakeSigset(SIGHUP)
	if got := ApplyMask(old, SigBlock, add); !got.Has(SIGHUP) || !got.Has(SIGUSR1) {
		t.Fatalf("SigBlock = %v", got.Signals())
	}
	if got := ApplyMask(old, SigUnblock, MakeSigset(SIGUSR1)); got.Has(SIGUSR1) || !got.Has(SIGUSR2) {
		t.Fatalf("SigUnblock = %v", got.Signals())
	}
	if got := ApplyMask(old, SigSetMask, add); got != add {
		t.Fatalf("SigSetMask = %v", got.Signals())
	}
}

func TestTrapClassification(t *testing.T) {
	for _, sig := range []Signal{SIGILL, SIGTRAP, SIGEMT, SIGFPE, SIGBUS, SIGSEGV, SIGSYS} {
		if !sig.IsTrap() {
			t.Errorf("%v not classified as trap", sig)
		}
	}
	for _, sig := range []Signal{SIGINT, SIGIO, SIGALRM, SIGCHLD, SIGWAITING} {
		if sig.IsTrap() {
			t.Errorf("%v wrongly classified as trap", sig)
		}
	}
}

func TestDefaultActions(t *testing.T) {
	cases := map[Signal]DefaultAction{
		SIGTERM:    ActExit,
		SIGSEGV:    ActCore,
		SIGCHLD:    ActIgnore,
		SIGWAITING: ActIgnore,
		SIGTSTP:    ActStop,
		SIGCONT:    ActContinue,
	}
	for sig, want := range cases {
		if got := DefaultActionOf(sig); got != want {
			t.Errorf("DefaultActionOf(%v) = %v, want %v", sig, got, want)
		}
	}
}

// TestGangCoScheduling verifies that runnable members of a gang that
// is already on CPU are preferred over a higher-TS-priority outsider.
func TestGangCoScheduling(t *testing.T) {
	k := NewKernel(Config{NCPU: 2, KernelSwitchCost: -1, LWPCreateCost: -1})
	p := k.NewProcess("p", nil)

	// Gate LWP occupies CPU until released, so contenders queue.
	release := make(chan struct{})
	gate, dGate := animate(k, p, func(l *LWP) {
		k.JoinGang(l, 7, 30)
		<-release
		// Keep running so the gang stays "on CPU" while the
		// dispatcher fills the second CPU.
		for i := 0; i < 50; i++ {
			k.Checkpoint(l)
			time.Sleep(100 * time.Microsecond)
		}
	})
	for gate.State() != LWPOnCPU {
		time.Sleep(100 * time.Microsecond)
	}

	order := make(chan string, 2)
	start := func(tag string, class Class, prio, gang int) (*LWP, <-chan struct{}) {
		l, err := k.NewLWP(p, class, prio)
		if err != nil {
			t.Fatal(err)
		}
		if gang > 0 {
			l.gang = gang
			l.class = ClassGang
		}
		d := make(chan struct{})
		go func() {
			defer close(d)
			defer func() { recover(); k.ExitLWP(l) }()
			k.Start(l)
			order <- tag
		}()
		return l, d
	}
	// Occupy the second CPU until both contenders are queued.
	blockerRelease := make(chan struct{})
	blocker, dBlocker := animate(k, p, func(l *LWP) {
		<-blockerRelease
	})
	for blocker.State() != LWPOnCPU {
		time.Sleep(100 * time.Microsecond)
	}
	tsLWP, dTS := start("ts", ClassTS, 59, 0) // best TS priority
	gLWP, dG := start("gang", ClassTS, 1, 7)  // low priority, same gang as gate
	for tsLWP.State() != LWPRunnable || gLWP.State() != LWPRunnable {
		time.Sleep(100 * time.Microsecond)
	}
	// Free CPU 1 while the gate (gang 7) still runs on CPU 0: the
	// dispatcher should co-schedule the gang member despite the
	// outsider's higher timeshare priority.
	close(blockerRelease)
	first := <-order
	close(release)
	<-dBlocker
	<-dTS
	<-dG
	<-dGate
	if first != "gang" {
		t.Fatalf("first dispatched %q, want gang member (co-scheduling)", first)
	}
}

// TestTimeSliceRotatesEqualPriority checks that with a time slice
// configured, two compute-bound LWPs of equal priority alternate at
// checkpoints. The bodies call runtime.Gosched so the test also works
// on GOMAXPROCS=1 hosts, where a spin loop would starve the sibling
// goroutine at the Go level before the simulated kernel ever saw it.
func TestTimeSliceRotatesEqualPriority(t *testing.T) {
	k := NewKernel(Config{NCPU: 1, TimeSlice: time.Millisecond, KernelSwitchCost: -1, LWPCreateCost: -1})
	p := k.NewProcess("p", nil)
	var first, second []time.Time
	mk := func(out *[]time.Time) func(*LWP) {
		return func(l *LWP) {
			deadline := time.Now().Add(20 * time.Millisecond)
			for time.Now().Before(deadline) {
				*out = append(*out, time.Now())
				k.Checkpoint(l)
				runtime.Gosched()
			}
		}
	}
	_, done := animate(k, p, mk(&first), mk(&second))
	<-done
	if len(first) == 0 || len(second) == 0 {
		t.Fatal("one LWP starved completely despite time slicing")
	}
	// The two executions overlapped in time (interleaving), rather
	// than running strictly one after the other.
	if first[len(first)-1].Before(second[0]) || second[len(second)-1].Before(first[0]) {
		t.Fatal("LWPs ran strictly serially; time slice did not rotate the CPU")
	}
}
