package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/mt"
)

// The chaos-sweep workload: the seed sweeps the repository's tests
// run. Each operation boots one machine at NCPU 1 with a seeded chaos
// source recording its decisions, fast-forward time and the event
// rings, runs a small mixed program, snapshots the schedule journal,
// encodes it and reads it back. One sweeper per CPU runs seeds side by
// side, as parallel tests do. With a single sweeper, the ~3% of seeds
// that overlap a garbage collection made up the p99, and how long those
// took varied so much from run to run that the p99 could not be gated.
const (
	sweepSeeds   = 4096 // generated chaos seeds, cycled
	sweepWorkers = 2
	sweepIters   = 20 // critical sections per worker
	sweepSleepN  = 5  // a worker sleeps every sweepSleepN-th iteration
	sweepRing    = 256
	sweepWarm    = 300
)

var errSeedStalled = errors.New("seed stalled")

type sweep struct {
	e     *env
	seeds []uint64
	done  chan struct{}

	mu  sync.Mutex // guards cur, the machine the sweep is running
	cur *mt.Proc
	c   struct {
		decisions, events, torn, bytes, jumps, skipped atomic.Int64
	}
	ms microstates
}

func setupChaosSweep(e *env) (instance, error) {
	s := &sweep{e: e, seeds: make([]uint64, sweepSeeds), done: make(chan struct{})}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	for i := range s.seeds {
		s.seeds[i] = rng.Uint64()
	}
	var wg sync.WaitGroup
	for c := 0; c < e.ncpu; c++ {
		wg.Add(1)
		go func(c int) { defer wg.Done(); s.client(c) }(c)
	}
	go func() { wg.Wait(); close(s.done) }()
	if err := e.gate.waitWarm(sweepWarm, runDeadline); err != nil {
		e.gate.abort.Store(true)
		<-s.done
		return nil, err
	}
	return s, nil
}

// client is sweeper c: it runs every ncpu-th seed, one after another,
// until the harness stops the load.
func (s *sweep) client(c int) {
	g := s.e.gate
	cl := g.client()
	b := s.e.tr.buf()
	for i := c; g.measuring(); i += s.e.ncpu {
		seed := s.seeds[i%len(s.seeds)]
		start := cl.issue()
		sp := b.begin(spOp, uint64(i))
		err := s.one(seed, b, uint64(i))
		b.end(sp)
		if err != nil && !errors.Is(err, errSeedStalled) {
			g.fail("chaos-sweep: seed %d: %v", seed, err)
		}
		cl.done(start, err == nil)
	}
}

// one runs a single seed and checks its program and its journal.
func (s *sweep) one(seed uint64, b *spanBuf, op uint64) error {
	src := mt.NewChaos(seed)
	src.StartRecording()
	sys := mt.NewSystem(mt.Options{NCPU: 1, Chaos: src, FastForward: true, EventRing: sweepRing})
	var progErr error
	p, err := spawn(sys, "sweep", func(p *mt.Proc, t *mt.Thread) { progErr = s.program(p, t) }, mt.ProcConfig{})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.cur = p
	s.mu.Unlock()
	if err := waitExit(s.e.clock, p, time.Duration(s.e.clock.now())+time.Duration(s.e.gate.deadline)); err != nil {
		// A seed that hangs is a failed operation; its machine
		// is left behind and the sweep goes on.
		return fmt.Errorf("%w: %v", errSeedStalled, err)
	}
	if progErr != nil {
		return progErr
	}

	sp := b.begin(spTraceSnapshot, op)
	j := sys.Schedule()
	b.end(sp)
	var buf bytes.Buffer
	sp = b.begin(spTraceJournalEncode, op)
	err = j.Write(&buf)
	b.end(sp)
	if err != nil {
		return err
	}
	n := buf.Len()
	back, err := mt.ReadJournal(&buf)
	if err != nil {
		return err
	}
	if len(back.Decisions) != len(j.Decisions) {
		return fmt.Errorf("journal read back %d decisions, recorded %d", len(back.Decisions), len(j.Decisions))
	}
	jumps, skipped := sys.FastForward().Stats()
	s.c.decisions.Add(int64(len(j.Decisions)))
	s.c.events.Add(int64(len(j.Events)))
	s.c.torn.Add(int64(sys.Events().Torn()))
	s.c.bytes.Add(int64(n))
	s.c.jumps.Add(int64(jumps))
	s.c.skipped.Add(int64(skipped))
	return nil
}

// program is the mixed program each seed runs: workers increment a
// counter in a mutex-protected critical section that yields, sleep on
// timers now and then, and report through a condition variable; the
// first worker also sends a byte down a pipe to the main thread.
func (s *sweep) program(p *mt.Proc, t *mt.Thread) error {
	g := s.e.gate
	var (
		mu       mt.Mutex
		cv       mt.Cond
		inside   bool
		counter  int
		finished int
		violated atomic.Bool
	)
	rfd, wfd, err := p.Pipe(t)
	if err != nil {
		return err
	}
	work := func(w *mt.Thread, arg any) {
		id := arg.(int)
		for i := 0; i < sweepIters; i++ {
			if enter(w, g, &mu, nil, spTsyncMutexEnter, 0) != nil {
				return
			}
			if inside {
				violated.Store(true)
			}
			inside = true
			counter++
			w.Yield()
			inside = false
			mu.Exit(w)
			if i%sweepSleepN == 0 {
				_ = p.Sleep(w, time.Millisecond) // an injected EINTR only shortens the sleep
			}
		}
		if id == 0 {
			if write(p, w, wfd, []byte{1}, nil, 0) != nil {
				violated.Store(true)
			}
		}
		if enter(w, g, &mu, nil, spTsyncMutexEnter, 0) != nil {
			return
		}
		finished++
		cv.Signal(w)
		mu.Exit(w)
		if s.e.tr != nil {
			s.ms.add(w.Microstates())
		}
	}
	var ids []mt.ThreadID
	for i := 0; i < sweepWorkers; i++ {
		th, err := create(t, work, i, false, nil, 0)
		if err != nil {
			return err
		}
		ids = append(ids, th.ID())
	}
	var one [1]byte
	if err := readFull(p, t, g, []mt.PollFD{{FD: rfd, Events: mt.PollIn}}, one[:], nil, 0); err != nil {
		return err
	}
	if err := enter(t, g, &mu, nil, spTsyncMutexEnter, 0); err != nil {
		return err
	}
	for finished < sweepWorkers {
		if err := condWait(t, g, &cv, &mu, nil, 0); err != nil {
			return err
		}
	}
	mu.Exit(t)
	for _, id := range ids {
		if _, err := t.Wait(id); err != nil {
			return err
		}
	}
	if violated.Load() || counter != sweepWorkers*sweepIters {
		return fmt.Errorf("mutual exclusion broken: counter %d of %d, overlap %v", counter, sweepWorkers*sweepIters, violated.Load())
	}
	return nil
}

func (s *sweep) finish(deadline time.Duration) error {
	s.e.gate.win.Store(winStopped)
	select {
	case <-s.done:
		return nil
	case <-time.After(time.Duration(int64(deadline) - s.e.clock.now())):
		return fmt.Errorf("chaos-sweep: the current seed did not finish by its deadline")
	}
}

func (s *sweep) counters() snapshot {
	sn := snapshot{c: map[string]float64{
		"chaos.decisions":     float64(s.c.decisions.Load()),
		"trace.ring_events":   float64(s.c.events.Load()),
		"trace.ring_torn":     float64(s.c.torn.Load()),
		"trace.journal_bytes": float64(s.c.bytes.Load()),
		"ktime.ff_jumps":      float64(s.c.jumps.Load()),
		"ktime.ff_skipped_ns": float64(s.c.skipped.Load()),
	}}
	s.ms.into(sn.c)
	return sn
}

func (s *sweep) sample() gauges {
	s.mu.Lock()
	p := s.cur
	s.mu.Unlock()
	if p == nil {
		return gauges{}
	}
	return procGauges(p)
}
