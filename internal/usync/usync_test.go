package usync

import (
	"sync"
	"testing"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/vm"
)

func animate(k *sim.Kernel, p *sim.Process, body func(l *sim.LWP)) <-chan struct{} {
	l, err := k.NewLWP(p, sim.ClassTS, 30)
	if err != nil {
		panic(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil && !sim.IsUnwind(r) {
				panic(r)
			}
			k.ExitLWP(l)
		}()
		k.Start(l)
		body(l)
	}()
	return done
}

func TestSameIdentitySharesState(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1})
	reg := NewRegistry(k)
	obj := vm.NewAnon(vm.PageSize)
	v1 := reg.Var(obj, 64)
	v2 := reg.Var(obj, 64)
	if v1.WaitQ() != v2.WaitQ() {
		t.Fatal("same identity produced different wait queues")
	}
	v3 := reg.Var(obj, 128)
	if v3.WaitQ() == v1.WaitQ() {
		t.Fatal("different offsets share a wait queue")
	}
	if reg.NumVars() != 2 {
		t.Fatalf("NumVars = %d, want 2", reg.NumVars())
	}
}

func TestWordsRoundTrip(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1})
	reg := NewRegistry(k)
	obj := vm.NewAnon(vm.PageSize)
	v := reg.Var(obj, 8)
	v.Atomically(func(w Words) {
		w.Store(0, 0xdeadbeef)
		w.Store(3, 42)
	})
	var a, b uint64
	v.Atomically(func(w Words) {
		a = w.Load(0)
		b = w.Load(3)
	})
	if a != 0xdeadbeef || b != 42 {
		t.Fatalf("loads = %#x, %d", a, b)
	}
	// The state really lives in the object's bytes: a handle with
	// the same identity sees it.
	v2 := reg.Var(obj, 8)
	v2.Atomically(func(w Words) {
		if w.Load(0) != 0xdeadbeef {
			t.Error("second handle does not see stored word")
		}
	})
}

func TestSleepWhileAndWake(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 2})
	reg := NewRegistry(k)
	obj := vm.NewAnon(vm.PageSize)
	p := k.NewProcess("p", nil)
	v := reg.Var(obj, 0)

	res := make(chan sim.WakeResult, 1)
	d1 := animate(k, p, func(l *sim.LWP) {
		r, slept := v.SleepWhile(l, func(w Words) bool {
			return w.Load(0) == 0 // wait until the flag is set
		}, SleepOpts{})
		if !slept {
			t.Error("did not sleep although flag clear")
		}
		res <- r
	})
	for v.Waiters() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	d2 := animate(k, p, func(l *sim.LWP) {
		v.Atomically(func(w Words) { w.Store(0, 1) })
		v.Wake(1)
	})
	<-d1
	<-d2
	if r := <-res; r != sim.WakeNormal {
		t.Fatalf("wake result = %v", r)
	}
}

func TestSleepWhileRefusesWhenCondFalse(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1})
	reg := NewRegistry(k)
	obj := vm.NewAnon(vm.PageSize)
	p := k.NewProcess("p", nil)
	v := reg.Var(obj, 0)
	v.Atomically(func(w Words) { w.Store(0, 1) })
	d := animate(k, p, func(l *sim.LWP) {
		_, slept := v.SleepWhile(l, func(w Words) bool { return w.Load(0) == 0 }, SleepOpts{})
		if slept {
			t.Error("slept although condition resolved")
		}
	})
	<-d
}

// TestNoLostWakeup hammers the futex protocol: a waker that flips the
// flag and wakes between the waiter's check and its sleep must never
// strand the waiter.
func TestNoLostWakeup(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 2, KernelSwitchCost: -1})
	reg := NewRegistry(k)
	obj := vm.NewAnon(vm.PageSize)
	p := k.NewProcess("p", nil)
	v := reg.Var(obj, 0)

	const rounds = 300
	var wg sync.WaitGroup
	wg.Add(2)
	waiterDone := animate(k, p, func(l *sim.LWP) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Wait for flag == 1, then reset it and notify.
			for {
				var got bool
				v.Atomically(func(w Words) {
					if w.Load(0) == 1 {
						w.Store(0, 0)
						got = true
					}
				})
				if got {
					v.Wake(-1)
					break
				}
				v.SleepWhile(l, func(w Words) bool { return w.Load(0) == 0 }, SleepOpts{})
			}
		}
	})
	wakerDone := animate(k, p, func(l *sim.LWP) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Wait for flag == 0, set it to 1, wake.
			for {
				var clear bool
				v.Atomically(func(w Words) { clear = w.Load(0) == 0 })
				if clear {
					break
				}
				v.SleepWhile(l, func(w Words) bool { return w.Load(0) == 1 }, SleepOpts{})
			}
			v.Atomically(func(w Words) { w.Store(0, 1) })
			v.Wake(-1)
		}
	})
	ok := make(chan struct{})
	go func() {
		wg.Wait()
		close(ok)
	}()
	select {
	case <-ok:
	case <-time.After(20 * time.Second):
		t.Fatal("lost wakeup: protocol stranded a participant")
	}
	<-waiterDone
	<-wakerDone
}

func TestSleepWhileTimeout(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1})
	reg := NewRegistry(k)
	obj := vm.NewAnon(vm.PageSize)
	p := k.NewProcess("p", nil)
	v := reg.Var(obj, 0)
	d := animate(k, p, func(l *sim.LWP) {
		r, slept := v.SleepWhileTimeout(l, func(w Words) bool { return true }, 2*time.Millisecond)
		if !slept || r != sim.WakeTimeout {
			t.Errorf("slept=%v res=%v, want timeout", slept, r)
		}
	})
	<-d
}

// TestWordsZeroAlloc pins shared-word access at zero allocations: the
// transfer buffer lives with the word lock instead of escaping to the
// heap through the backing object's interface on every Load/Store.
func TestWordsZeroAlloc(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1})
	reg := NewRegistry(k)
	v := reg.Var(vm.NewAnon(vm.PageSize), 16)
	bump := func(w Words) { w.Store(1, w.Load(1)+1) }
	if avg := testing.AllocsPerRun(200, func() { v.Atomically(bump) }); avg > 0 {
		t.Errorf("Words Load/Store allocates %.2f objects/op, want 0", avg)
	}
	var got uint64
	v.Atomically(func(w Words) { got = w.Load(1) })
	if got != 201 {
		t.Fatalf("word = %d after 201 increments", got)
	}
}
