package tsync

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/core"
)

// These tests pin the allocation-free blocking path: once warm, a
// contended acquisition that parks — timed or not — allocates
// nothing. Each primitive builds its wait-for edge once, and a timed
// wait re-arms the thread's one timer instead of building a timer,
// channel and closure per wait. Every round trip below parks both
// threads on one LWP, so each cycle crosses the blocking path twice.

const allocRuns = 200

// pinZeroAllocs warms cycle, then requires AllocsPerRun to read 0.
func pinZeroAllocs(t *testing.T, what string, cycle func()) {
	t.Helper()
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(allocRuns, cycle); avg > 0 {
		t.Errorf("%s allocates %.2f objects/op, want 0", what, avg)
	}
}

// peerLoop creates a thread that runs step each time it is unparked,
// until stop; step returns after handing control back to main.
func peerLoop(t *testing.T, self *core.Thread, stop *atomic.Bool, step func(c *core.Thread)) *core.Thread {
	t.Helper()
	peer, err := self.Runtime().Create(func(c *core.Thread, _ any) {
		for {
			c.Park()
			if stop.Load() {
				return
			}
			step(c)
		}
	}, nil, core.CreateOpts{Flags: core.ThreadWait})
	if err != nil {
		t.Fatal(err)
	}
	return peer
}

func stopPeer(self, peer *core.Thread, stop *atomic.Bool) {
	stop.Store(true)
	peer.Unpark()
	self.Wait(peer.ID())
}

// TestMutexContendedZeroAlloc: under every lock policy, the peer
// blocks on a held mutex — alternately in Enter and TimedEnter — and
// is woken (or handed the lock) by Exit.
func TestMutexContendedZeroAlloc(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol.String(), func(t *testing.T) {
			w := newWorld(1)
			var mu Mutex
			mu.InitPolicy(pol)
			m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
				var stop atomic.Bool
				n := 0
				peer := peerLoop(t, self, &stop, func(c *core.Thread) {
					if n++; n%2 == 0 {
						mu.Enter(c)
					} else if err := mu.TimedEnter(c, time.Hour); err != nil {
						t.Error(err)
					}
					mu.Exit(c)
					self.Unpark()
				})
				pinZeroAllocs(t, "contended mutex round trip", func() {
					mu.Enter(self)
					peer.Unpark()
					for mu.waiters.len() == 0 {
						self.Yield() // the peer spins, then parks on the held mutex
					}
					mu.Exit(self)
					self.Park() // until the peer has taken and released it
				})
				stopPeer(self, peer, &stop)
			})
			waitRT(t, m)
		})
	}
}

// TestSemaPingPongZeroAlloc: two threads hand a unit back and forth
// through two semaphores, alternating P and TimedP on both sides.
func TestSemaPingPongZeroAlloc(t *testing.T) {
	w := newWorld(1)
	var ping, pong Sema
	var stop atomic.Bool
	p := func(c *core.Thread, sp *Sema, timed bool) {
		if !timed {
			sp.P(c)
		} else if err := sp.TimedP(c, time.Hour); err != nil {
			t.Error(err)
		}
	}
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		peer, err := self.Runtime().Create(func(c *core.Thread, _ any) {
			for i := 0; ; i++ {
				p(c, &ping, i%2 == 0)
				if stop.Load() {
					return
				}
				pong.V(c)
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		pinZeroAllocs(t, "sema ping-pong", func() {
			ping.V(self)
			n++
			p(self, &pong, n%2 == 0)
		})
		stop.Store(true)
		ping.V(self)
		self.Wait(peer.ID())
	})
	waitRT(t, m)
}

// TestCondSignalRoundTripZeroAlloc: a monitor hand-off in both
// directions, alternating Wait and TimedWait.
func TestCondSignalRoundTripZeroAlloc(t *testing.T) {
	w := newWorld(1)
	var mu Mutex
	var cv Cond
	turn, stop := 0, false
	wait := func(c *core.Thread, timed bool) {
		if !timed {
			cv.Wait(c, &mu)
		} else if !cv.TimedWait(c, &mu, time.Hour) {
			t.Error("TimedWait timed out")
		}
	}
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		peer, err := self.Runtime().Create(func(c *core.Thread, _ any) {
			mu.Enter(c)
			for i := 0; ; i++ {
				for turn != 1 && !stop {
					wait(c, i%2 == 0)
				}
				if stop {
					break
				}
				turn = 0
				cv.Signal(c)
			}
			mu.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		pinZeroAllocs(t, "cond signal round trip", func() {
			mu.Enter(self)
			turn = 1
			cv.Signal(self)
			n++
			for turn != 0 {
				wait(self, n%2 == 0)
			}
			mu.Exit(self)
		})
		mu.Enter(self)
		stop = true
		cv.Signal(self)
		mu.Exit(self)
		self.Wait(peer.ID())
	})
	waitRT(t, m)
}

// TestRWLockContendedZeroAlloc: the peer blocks behind a held writer
// lock as a reader and as a writer, timed and untimed.
func TestRWLockContendedZeroAlloc(t *testing.T) {
	w := newWorld(1)
	var rw RWLock
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		var stop atomic.Bool
		n := 0
		peer := peerLoop(t, self, &stop, func(c *core.Thread) {
			var err error
			switch n++; n % 4 {
			case 0:
				rw.Enter(c, RWReader)
			case 1:
				err = rw.TimedRdLock(c, time.Hour)
			case 2:
				rw.Enter(c, RWWriter)
			case 3:
				err = rw.TimedWrLock(c, time.Hour)
			}
			if err != nil {
				t.Error(err)
			}
			rw.Exit(c)
			self.Unpark()
		})
		pinZeroAllocs(t, "contended rwlock round trip", func() {
			rw.Enter(self, RWWriter)
			peer.Unpark()
			self.Yield() // the peer runs and parks behind the writer
			if rw.rq.len()+rw.wq.len() != 1 {
				t.Error("peer did not park on the rwlock")
			}
			rw.Exit(self)
			self.Park()
		})
		stopPeer(self, peer, &stop)
	})
	waitRT(t, m)
}
