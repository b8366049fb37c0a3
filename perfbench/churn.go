package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"sunosmt/mt"
)

// The churn workload: thread creation, the paper's first claim
// (Figure 5). A creator thread runs fork-join batches: create a batch,
// then reap it. One thread in churnBoundEvery is bound to its own LWP;
// every thread sets and reads a thread-specific data value.
const (
	churnBoundEvery = 64
	// churnCreators is one: with a creator per CPU the creators keep
	// both CPUs busy, and a bound thread's new LWP waits for one, so
	// the p99 lifecycle flips between about 0.3 ms and 1 ms for
	// seconds at a time. One creator leaves a CPU for the LWPs and
	// creates as many threads per second.
	churnCreators = 1
	churnMinBatch = 8
	churnMaxBatch = 24
	churnWarm     = 100000
	churnPrime    = 256 // wider than the library's stack cache (32 by default)
)

// lifecycle is one created thread's record, written by the thread and
// checked by its creator after the reap.
type lifecycle struct {
	ran   atomic.Int32
	tsdOK atomic.Bool
	start int64
	id    mt.ThreadID
}

type churn struct {
	e       *env
	p       *mt.Proc
	key     mt.TSDKey
	batches []int // generated batch sizes, cycled
	ms      microstates
	mainErr chan error
	// committedDrift is AS.Committed() after the run minus before it,
	// reported for information.
	committedDrift int64
}

func setupChurn(e *env) (instance, error) {
	ch := &churn{e: e, batches: make([]int, 4096), mainErr: make(chan error, 1)}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	for i := range ch.batches {
		ch.batches[i] = churnMinBatch + rng.Intn(churnMaxBatch-churnMinBatch+1)
	}
	sys := mt.NewSystem(mt.Options{NCPU: e.ncpu})
	started := make(chan error, 1)
	p, err := spawn(sys, "churn", func(p *mt.Proc, t *mt.Thread) {
		ch.mainErr <- ch.main(p, t, started)
	}, mt.ProcConfig{MaxAutoLWPs: e.ncpu, LockWaitSampleCap: 4096})
	if err != nil {
		return nil, err
	}
	ch.p = p
	if err := <-started; err != nil {
		return nil, err
	}
	if err := e.gate.waitWarm(churnWarm, runDeadline); err != nil {
		return nil, err
	}
	return ch, nil
}

// main starts the creators and, once they have been reaped,
// checks that every stack the run committed was given back.
func (ch *churn) main(p *mt.Proc, t *mt.Thread, started chan<- error) error {
	if err := t.Runtime().SetConcurrency(ch.e.ncpu); err != nil {
		started <- err
		return err
	}
	ch.key = t.Runtime().CreateTSDKey(nil)
	// The library keeps the stacks of reaped threads in a bounded
	// cache. A priming batch wider than that cache fills it, so the
	// reservation read here is the steady state and any growth at the
	// end is stacks the run failed to give back.
	if err := ch.prime(t, churnPrime); err != nil {
		started <- err
		return err
	}
	reserved, committed := p.AS.Reserved(), p.AS.Committed()
	var ids []mt.ThreadID
	for c := 0; c < churnCreators; c++ {
		c := c
		th, err := create(t, func(ct *mt.Thread, _ any) { ch.creator(ct, c) }, nil, false, nil, 0)
		if err != nil {
			started <- err
			return err
		}
		ids = append(ids, th.ID())
	}
	started <- nil
	for _, id := range ids {
		if _, err := t.Wait(id); err != nil {
			return err
		}
	}
	if after := p.AS.Reserved(); after != reserved {
		ch.e.gate.fail("churn: %d bytes of stack reserved before the run, %d after every thread was reaped", reserved, after)
	}
	// Committed bytes are not checked for equality: a cached stack
	// stays committed, and how much a stack commits on first touch
	// depends on its carve's alignment, so which carves the cache
	// holds at the end moves the total by whole pages either way.
	ch.committedDrift = p.AS.Committed() - committed
	return nil
}

func (ch *churn) prime(t *mt.Thread, n int) error {
	var ids []mt.ThreadID
	for i := 0; i < n; i++ {
		th, err := create(t, func(*mt.Thread, any) {}, nil, false, nil, 0)
		if err != nil {
			return err
		}
		ids = append(ids, th.ID())
	}
	for _, id := range ids {
		if _, err := t.Wait(id); err != nil {
			return err
		}
	}
	return nil
}

// creator runs fork-join batches until the harness stops the load.
// Operation n of creator c is global lifecycle n*churnCreators+c; the
// bound ones are every churnBoundEvery-th.
func (ch *churn) creator(t *mt.Thread, c int) {
	g := ch.e.gate
	cl := g.client()
	b := ch.e.tr.buf()
	recs := make([]lifecycle, churnMaxBatch)
	n := uint64(0)
	for bi := c; g.measuring(); bi++ {
		batch := recs[:ch.batches[bi%len(ch.batches)]]
		for i := range batch {
			r := &batch[i]
			seq := n*churnCreators + uint64(c)
			n++
			r.ran.Store(0)
			r.tsdOK.Store(false)
			r.start = cl.issue()
			th, err := create(t, ch.body, r, seq%churnBoundEvery == 0, b, seq)
			if err != nil {
				// Refused (ErrAgain) or failed: the lifecycle
				// never started.
				r.id = 0
				cl.done(r.start, false)
				continue
			}
			r.id = th.ID()
		}
		for i := range batch {
			r := &batch[i]
			if r.id == 0 {
				continue
			}
			if err := reap(t, r.id, b, 0); err != nil {
				cl.done(r.start, false)
				continue
			}
			ok := r.ran.Load() == 1 && r.tsdOK.Load()
			if !ok {
				g.fail("churn: thread %d ran %d times, TSD value kept %v", r.id, r.ran.Load(), r.tsdOK.Load())
			}
			cl.done(r.start, ok)
		}
	}
}

// body is a created thread: it sets and reads back a thread-specific
// value, then records that it ran.
func (ch *churn) body(t *mt.Thread, arg any) {
	r := arg.(*lifecycle)
	if err := t.SetSpecific(ch.key, r); err == nil {
		r.tsdOK.Store(t.GetSpecific(ch.key) == r)
	}
	r.ran.Add(1)
	if ch.e.tr != nil {
		ch.ms.add(t.Microstates())
	}
}

func (ch *churn) finish(deadline time.Duration) error {
	ch.e.gate.win.Store(winStopped)
	if err := waitExit(ch.e.clock, ch.p, deadline); err != nil {
		return err
	}
	err := <-ch.mainErr
	fmt.Printf("churn: committed bytes after the run minus before: %d\n", ch.committedDrift)
	return err
}

func (ch *churn) counters() snapshot {
	s := snapshot{c: map[string]float64{}}
	runtimeCounters(ch.p, &s)
	systemCounters(ch.p.Sys, s.c)
	ch.ms.into(s.c)
	return s
}

func (ch *churn) sample() gauges { return procGauges(ch.p) }
