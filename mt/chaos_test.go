package mt

// Chaos sweeps: every test here runs the same invariant workload
// under many seeded perturbation schedules (forced preemptions,
// dispatch reordering, spurious wakeups, injected EINTR, early
// SIGWAITING, timer jitter). A failing seed reproduces exactly:
//
//	go test ./mt -run TestChaos -chaos.seed=N
//
// The seeds are deterministic, so CI failures replay locally.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sunosmt/internal/chaos"
	"sunosmt/internal/sim"
)

var chaosSeedFlag = flag.Uint64("chaos.seed", 0,
	"run chaos sweeps with this single seed (replay a failure)")

var chaosFFFlag = flag.Bool("chaos.fastforward", false,
	"run chaos sweeps on the virtual fast-forward clock (idle sleep "+
		"time is skipped, so timeout-heavy sweeps finish in compute time)")

// chaosSeeds returns the seed set for a sweep: the replay seed if
// -chaos.seed was given, a short set under -short (the -race CI
// tier), the full sweep otherwise.
func chaosSeeds() []uint64 {
	if *chaosSeedFlag != 0 {
		return []uint64{*chaosSeedFlag}
	}
	n := 100
	if testing.Short() {
		n = 20
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// sweep runs fn once per seed as parallel subtests, logging a replay
// command for any failing seed.
func sweep(t *testing.T, fn func(t *testing.T, seed uint64)) {
	for _, seed := range chaosSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("replay: go test ./mt -run '%s' -chaos.seed=%d", t.Name(), seed)
				}
			})
			fn(t, seed)
		})
	}
}

// chaosOpts builds Options for a sweep iteration: chaos at the
// default rates, simulated path-length spins disabled for speed.
func chaosOpts(ncpu int, seed uint64) Options {
	return Options{
		NCPU:             ncpu,
		Chaos:            NewChaos(seed),
		LWPCreateCost:    -1,
		KernelSwitchCost: -1,
	}
}

// chaosSystem boots a sweep iteration's system, applying the two
// sweep-wide switches: -chaos.fastforward moves the run onto the
// virtual fast-forward clock, and CHAOS_JOURNAL_DIR (set by CI)
// turns on schedule recording and dumps the journal of any failing
// test there, so the exact failing schedule can be replayed with
// NewReplayChaos rather than re-searched from the seed.
func chaosSystem(t *testing.T, o Options) *System {
	o.FastForward = *chaosFFFlag
	dir := os.Getenv("CHAOS_JOURNAL_DIR")
	if dir != "" {
		o.Chaos.StartRecording()
		if o.EventRing == 0 {
			o.EventRing = 8192
		}
	}
	sys := NewSystem(o)
	if dir != "" {
		t.Cleanup(func() {
			if !t.Failed() {
				return
			}
			path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".journal")
			if err := sys.Schedule().WriteFile(path); err != nil {
				t.Logf("schedule journal dump failed: %v", err)
			} else {
				t.Logf("schedule journal: %s", path)
			}
		})
	}
	return sys
}

// TestChaosMutexExclusion: N threads increment a plain counter under
// a mutex; a holders gauge catches any simultaneous critical-section
// occupancy the perturbed schedules might expose.
func TestChaosMutexExclusion(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		const nThreads, iters = 4, 40
		sys := chaosSystem(t, chaosOpts(2, seed))
		var mu Mutex
		var holders, violations atomic.Int32
		counter := 0
		p := spawn(t, sys, "chaos-mutex", ProcConfig{}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			ids := make([]ThreadID, 0, nThreads)
			for i := 0; i < nThreads; i++ {
				c, err := rt.Create(func(ct *Thread, _ any) {
					for j := 0; j < iters; j++ {
						mu.Enter(ct)
						if holders.Add(1) != 1 {
							violations.Add(1)
						}
						counter++
						ct.Checkpoint()
						holders.Add(-1)
						mu.Exit(ct)
					}
				}, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				tt.Wait(id)
			}
		})
		waitProc(t, p)
		if v := violations.Load(); v != 0 {
			t.Fatalf("mutual exclusion violated %d times", v)
		}
		if counter != nThreads*iters {
			t.Fatalf("counter = %d, want %d (lost updates)", counter, nThreads*iters)
		}
	})
}

// TestChaosRWLockExclusion: readers and writers keep active-holder
// gauges; writers must be alone, readers must never overlap a writer.
// Writers periodically downgrade, readers periodically try-upgrade,
// so both conversion paths run under perturbed schedules.
func TestChaosRWLockExclusion(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		const iters = 25
		sys := chaosSystem(t, chaosOpts(2, seed))
		var rw RWLock
		var ractive, wactive, violations atomic.Int32
		check := func(ok bool) {
			if !ok {
				violations.Add(1)
			}
		}
		writer := func(ct *Thread, _ any) {
			for j := 0; j < iters; j++ {
				rw.Enter(ct, RWWriter)
				check(wactive.Add(1) == 1 && ractive.Load() == 0)
				ct.Checkpoint()
				if j%3 == 0 {
					// Convert to a readers lock while still
					// exclusive, then release as a reader.
					ractive.Add(1)
					wactive.Add(-1)
					rw.Downgrade(ct)
					check(wactive.Load() == 0)
					ct.Checkpoint()
					ractive.Add(-1)
					rw.Exit(ct)
					continue
				}
				wactive.Add(-1)
				rw.Exit(ct)
			}
		}
		reader := func(ct *Thread, _ any) {
			for j := 0; j < iters; j++ {
				rw.Enter(ct, RWReader)
				ractive.Add(1)
				check(wactive.Load() == 0)
				ct.Checkpoint()
				if j%5 == 0 && rw.TryUpgrade(ct) {
					ractive.Add(-1)
					check(wactive.Add(1) == 1 && ractive.Load() == 0)
					ct.Checkpoint()
					wactive.Add(-1)
					rw.Exit(ct)
					continue
				}
				ractive.Add(-1)
				rw.Exit(ct)
			}
		}
		p := spawn(t, sys, "chaos-rw", ProcConfig{}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			var ids []ThreadID
			for _, body := range []Func{writer, writer, reader, reader} {
				c, err := rt.Create(body, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				tt.Wait(id)
			}
		})
		waitProc(t, p)
		if v := violations.Load(); v != 0 {
			t.Fatalf("rwlock exclusion violated %d times", v)
		}
	})
}

// TestChaosSemaCounting: 6 threads share 3 permits; an occupancy
// gauge catches any over-admission under spurious wakeups and wake
// reordering.
func TestChaosSemaCounting(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		const permits, nThreads, iters = 3, 6, 20
		sys := chaosSystem(t, chaosOpts(2, seed))
		var sema Sema
		sema.Init(permits)
		var inside, violations atomic.Int32
		p := spawn(t, sys, "chaos-sema", ProcConfig{}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			var ids []ThreadID
			for i := 0; i < nThreads; i++ {
				c, err := rt.Create(func(ct *Thread, _ any) {
					for j := 0; j < iters; j++ {
						sema.P(ct)
						if inside.Add(1) > permits {
							violations.Add(1)
						}
						ct.Checkpoint()
						inside.Add(-1)
						sema.V(ct)
					}
				}, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				tt.Wait(id)
			}
		})
		waitProc(t, p)
		if v := violations.Load(); v != 0 {
			t.Fatalf("semaphore admitted more than %d holders %d times", permits, v)
		}
		if c := sema.Count(); c != permits {
			t.Fatalf("final count = %d, want %d", c, permits)
		}
	})
}

// TestChaosCrossProcessMutex: a parent and its forked child contend
// on a process-shared mutex placed in a mapped file, guarding a
// plain shared counter. WaitChild retries on the EINTRs chaos
// injects into interruptible kernel sleeps.
func TestChaosCrossProcessMutex(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		const iters = 30
		sys := chaosSystem(t, chaosOpts(2, seed))
		var holders, violations atomic.Int32
		counter := 0
		loop := func(ct *Thread, m *Mutex) {
			for j := 0; j < iters; j++ {
				m.Enter(ct)
				if holders.Add(1) != 1 {
					violations.Add(1)
				}
				counter++
				ct.Checkpoint()
				holders.Add(-1)
				m.Exit(ct)
			}
		}
		p := spawn(t, sys, "chaos-xproc", ProcConfig{}, func(p *Proc, tt *Thread) {
			fd, err := p.Open(tt, "/tmp/chaos-shared", OCreate|ORdWr)
			if err != nil {
				t.Error(err)
				return
			}
			va, err := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
			if err != nil {
				t.Error(err)
				return
			}
			mu, err := p.SharedMutexAt(tt, va)
			if err != nil {
				t.Error(err)
				return
			}
			childCh := make(chan *Proc, 1)
			child, err := p.Fork1(tt, func(ct *Thread, _ any) {
				cp := <-childCh
				cmu, err := cp.SharedMutexAt(ct, va)
				if err != nil {
					t.Error(err)
					return
				}
				loop(ct, cmu)
			}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			childCh <- child
			loop(tt, mu)
			for {
				if _, err := p.WaitChild(tt, -1); !errors.Is(err, sim.ErrIntr) {
					break
				}
			}
		})
		waitProc(t, p)
		if v := violations.Load(); v != 0 {
			t.Fatalf("cross-process exclusion violated %d times", v)
		}
		if counter != 2*iters {
			t.Fatalf("counter = %d, want %d (lost updates)", counter, 2*iters)
		}
	})
}

// TestChaosForkHeldSharedLock: the paper's fork pitfall under
// perturbation — a child forked while the parent holds a shared lock
// must see it held and block until the parent's release.
func TestChaosForkHeldSharedLock(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		sys := chaosSystem(t, chaosOpts(2, seed))
		var childBlocked, childGot atomic.Bool
		p := spawn(t, sys, "chaos-forklock", ProcConfig{}, func(p *Proc, tt *Thread) {
			fd, _ := p.Open(tt, "/tmp/chaos-locked", OCreate|ORdWr)
			va, _ := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
			mu, err := p.SharedMutexAt(tt, va)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Enter(tt)
			childCh := make(chan *Proc, 1)
			child, err := p.Fork1(tt, func(ct *Thread, _ any) {
				cp := <-childCh
				cmu, err := cp.SharedMutexAt(ct, va)
				if err != nil {
					t.Error(err)
					return
				}
				if cmu.TryEnter(ct) {
					t.Error("child acquired a lock the parent holds across fork")
					return
				}
				childBlocked.Store(true)
				cmu.Enter(ct)
				childGot.Store(true)
				cmu.Exit(ct)
			}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			childCh <- child
			for !childBlocked.Load() {
				tt.Yield()
			}
			mu.Exit(tt)
			for {
				if _, err := p.WaitChild(tt, -1); !errors.Is(err, sim.ErrIntr) {
					break
				}
			}
		})
		waitProc(t, p)
		if !childGot.Load() {
			t.Fatal("child never acquired the lock after parent's release")
		}
	})
}

// TestChaosSignalMasks: a thread that blocks SIGUSR1 must not see it
// delivered — even under forced preemptions and wake reordering —
// while an unmasked sibling does; unblocking releases the pending
// signal.
func TestChaosSignalMasks(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		sys := chaosSystem(t, chaosOpts(2, seed))
		var maskedT, openT atomic.Pointer[Thread]
		var gotMasked, gotOpen atomic.Int32
		var earlyMasked atomic.Bool
		var mready, oready, unblock, release atomic.Bool
		p := spawn(t, sys, "chaos-sig", ProcConfig{}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			rt.Signal(SIGUSR1, SigCatch, func(ht *Thread, _ Signal) {
				switch ht {
				case maskedT.Load():
					if !unblock.Load() {
						earlyMasked.Store(true)
					}
					gotMasked.Add(1)
				case openT.Load():
					gotOpen.Add(1)
				}
			})
			m, err := rt.Create(func(ct *Thread, _ any) {
				ct.SigSetMask(SigBlock, sim.MakeSigset(SIGUSR1))
				mready.Store(true)
				for !unblock.Load() {
					ct.Yield()
				}
				ct.SigSetMask(SigUnblock, sim.MakeSigset(SIGUSR1))
				for !release.Load() {
					ct.Yield()
				}
			}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			maskedT.Store(m)
			o, err := rt.Create(func(ct *Thread, _ any) {
				oready.Store(true)
				for !release.Load() {
					ct.Yield()
				}
			}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			openT.Store(o)
			for !mready.Load() || !oready.Load() {
				tt.Yield()
			}
			tt.Kill(m, SIGUSR1)
			tt.Kill(o, SIGUSR1)
			for gotOpen.Load() == 0 {
				tt.Yield()
			}
			unblock.Store(true)
			for gotMasked.Load() == 0 {
				tt.Yield()
			}
			release.Store(true)
			tt.Wait(m.ID())
			tt.Wait(o.ID())
		})
		waitProc(t, p)
		if earlyMasked.Load() {
			t.Fatal("SIGUSR1 delivered to a thread that had it blocked")
		}
		if gotOpen.Load() == 0 || gotMasked.Load() == 0 {
			t.Fatalf("deliveries: masked=%d open=%d, want both > 0",
				gotMasked.Load(), gotOpen.Load())
		}
	})
}

// TestChaosJournalDeterminism: the acceptance pin — the same seed on
// the same workload records the identical schedule (every consulted
// decision, inputs included), so any failing seed replays exactly.
// NCPU=1 with SIGWAITING growth off keeps the whole run on one LWP,
// where every chaos decision point is reached in a reproducible
// order. (The real clock makes dispatch priorities, and so the ring
// events, drift between runs; TestScheduleReplay pins those on a
// frozen clock.)
func TestChaosJournalDeterminism(t *testing.T) {
	run := func() []ScheduleDecision {
		src := NewChaos(42)
		src.StartRecording()
		sys := NewSystem(Options{
			NCPU:             1,
			Chaos:            src,
			LWPCreateCost:    -1,
			KernelSwitchCost: -1,
		})
		var mu Mutex
		counter := 0
		p := spawn(t, sys, "chaos-det", ProcConfig{DisableSigwaiting: true}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			body := func(ct *Thread, _ any) {
				for j := 0; j < 100; j++ {
					mu.Enter(ct)
					counter++
					mu.Exit(ct)
					ct.Yield()
				}
			}
			c, err := rt.Create(body, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			body(tt, nil)
			tt.Wait(c.ID())
		})
		waitProc(t, p)
		if counter != 200 {
			t.Fatalf("counter = %d, want 200", counter)
		}
		return src.Schedule().Decisions
	}
	a := run()
	b := run()
	perturbed := 0
	for _, d := range a {
		if chaos.Perturbed(d) {
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Fatal("seed 42 perturbed nothing; nothing was explored")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverges at decision %d:\n  run1: %+v\n  run2: %+v", i, a[i], b[i])
		}
	}
}

// brokenMutex is a deliberately racy lock: the test-and-set is split
// by a preemption point, exactly the bug class the chaos sweep
// exists to catch.
type brokenMutex struct{ locked bool }

func (b *brokenMutex) enter(t *Thread) {
	for {
		if !b.locked {
			t.Checkpoint() // racy window: check and set are separated
			b.locked = true
			return
		}
		t.Yield()
	}
}

func (b *brokenMutex) exit() { b.locked = false }

// TestChaosCatchesBrokenMutex: the negative control — the sweep must
// detect the broken lock within a handful of seeds, or the whole
// exercise proves nothing.
func TestChaosCatchesBrokenMutex(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		sys := chaosSystem(t, chaosOpts(1, seed))
		var bm brokenMutex
		var holders, violations atomic.Int32
		p := spawn(t, sys, "chaos-broken", ProcConfig{DisableSigwaiting: true}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			body := func(ct *Thread, _ any) {
				for j := 0; j < 150; j++ {
					bm.enter(ct)
					if holders.Add(1) != 1 {
						violations.Add(1)
					}
					ct.Checkpoint()
					if holders.Load() != 1 {
						violations.Add(1)
					}
					holders.Add(-1)
					bm.exit()
				}
			}
			c, err := rt.Create(body, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			body(tt, nil)
			tt.Wait(c.ID())
		})
		waitProc(t, p)
		if violations.Load() > 0 {
			t.Logf("broken mutex caught at seed %d", seed)
			return
		}
	}
	t.Fatal("chaos sweep failed to catch a deliberately broken mutex in 20 seeds")
}
