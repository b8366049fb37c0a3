package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"sunosmt/mt"
)

// The pipeline workload: many unbound threads on an LWP pool of NCPU,
// synchronizing without the kernel. Each client pushes items through
// three stages of worker threads that hand off through bounded
// Mutex+Cond queues; every stage touches a shared table under an
// RWLock, stage 0 runs its step under Setjmp/Longjmp, stage 1 takes
// one contended Mutex whose critical section yields, and stage 2
// returns the item to its client through the client's Sema.
const (
	pipeStages   = 3
	pipeQueueCap = 8
	pipeWindow   = 16   // items each client keeps in flight
	pipeKeys     = 1024 // table size
	pipeInputs   = 4096 // generated inputs per client, cycled
	pipeWarm     = 20000
)

// pipeInput is one generated item: which table entry it touches and
// how. Writes are 10% of the inputs.
type pipeInput struct {
	key   int32
	write bool
	delta int64
}

// item is one operation in flight. Each client owns pipeWindow items
// and reuses one only after it came back.
type item struct {
	client   int
	seq      uint64 // per-client sequence number, the operation id
	in       pipeInput
	start    int64
	inFlight atomic.Bool
}

// queue is a bounded FIFO built from the library's Mutex and Cond.
type queue struct {
	mu       mt.Mutex
	notEmpty mt.Cond
	notFull  mt.Cond
	buf      [pipeQueueCap]*item
	head, n  int
}

func (q *queue) put(t *mt.Thread, g *gate, it *item, b *spanBuf, op uint64) error {
	if err := enter(t, g, &q.mu, b, spTsyncMutexEnter, op); err != nil {
		return err
	}
	for q.n == pipeQueueCap {
		if err := condWait(t, g, &q.notFull, &q.mu, b, op); err != nil {
			return err
		}
	}
	q.buf[(q.head+q.n)%pipeQueueCap] = it
	q.n++
	q.notEmpty.Signal(t)
	q.mu.Exit(t)
	return nil
}

func (q *queue) get(t *mt.Thread, g *gate, b *spanBuf) (*item, error) {
	if err := enter(t, g, &q.mu, b, spTsyncMutexEnter, 0); err != nil {
		return nil, err
	}
	for q.n == 0 {
		if err := condWait(t, g, &q.notEmpty, &q.mu, b, 0); err != nil {
			return nil, err
		}
	}
	it := q.buf[q.head]
	q.head = (q.head + 1) % pipeQueueCap
	q.n--
	q.notFull.Signal(t)
	q.mu.Exit(t)
	return it, nil
}

// condWait waits on cv for one slice. A timeout is not an error: the
// caller re-checks its condition, as after any wakeup.
func condWait(t *mt.Thread, g *gate, cv *mt.Cond, mu *mt.Mutex, b *spanBuf, op uint64) error {
	s := b.begin(spTsyncCondWait, op)
	cv.TimedWait(t, mu, slice)
	b.end(s)
	if g.abort.Load() {
		mu.Exit(t)
		return errAborted
	}
	return nil
}

// mailbox is where stage 2 leaves a client's finished items.
type mailbox struct {
	mu    mt.Mutex
	ready mt.Sema
	buf   [pipeWindow]*item
	head  int
	n     int
}

type pipeline struct {
	e       *env
	p       *mt.Proc
	queues  [pipeStages]queue
	boxes   []mailbox
	workers int // per stage

	tableMu  mt.RWLock
	table    [pipeKeys]int64
	hot      mt.Mutex // the contended lock
	hotCount int64    // items that passed the contended lock, under hot

	writes  atomic.Int64 // sum of the deltas the workers applied
	issued  []uint64     // per client, items issued
	settled []uint64     // per client, items returned
	threads []*mt.Thread // clients and workers, for their microstates
	mainErr chan error
}

func setupPipeline(e *env) (instance, error) {
	pl := &pipeline{
		e:       e,
		boxes:   make([]mailbox, e.ncpu),
		workers: e.ncpu,
		issued:  make([]uint64, e.ncpu),
		settled: make([]uint64, e.ncpu),
		mainErr: make(chan error, 1),
	}
	inputs := make([][]pipeInput, e.ncpu)
	for c := range inputs {
		rng := rand.New(rand.NewSource(int64(e.seed)*1000003 + int64(c)))
		inputs[c] = make([]pipeInput, pipeInputs)
		for i := range inputs[c] {
			inputs[c][i] = pipeInput{
				key:   int32(rng.Intn(pipeKeys)),
				write: rng.Intn(10) == 0,
				delta: int64(rng.Intn(1000)) + 1,
			}
		}
	}
	sys := mt.NewSystem(mt.Options{NCPU: e.ncpu})
	started := make(chan error, 1)
	p, err := spawn(sys, "pipeline", func(p *mt.Proc, t *mt.Thread) {
		pl.mainErr <- pl.main(p, t, inputs, started)
	}, mt.ProcConfig{MaxAutoLWPs: e.ncpu, LockWaitSampleCap: 4096})
	if err != nil {
		return nil, err
	}
	pl.p = p
	if err := <-started; err != nil {
		return nil, err
	}
	if err := e.gate.waitWarm(pipeWarm, runDeadline); err != nil {
		return nil, err
	}
	return pl, nil
}

// main is the process's main thread: it starts the workers and the
// clients, waits for the clients to drain, then shuts the stages down
// and checks the table.
func (pl *pipeline) main(p *mt.Proc, t *mt.Thread, inputs [][]pipeInput, started chan<- error) error {
	g := pl.e.gate
	if err := t.Runtime().SetConcurrency(pl.e.ncpu); err != nil {
		started <- err
		return err
	}
	var ids []mt.ThreadID
	for s := 0; s < pipeStages; s++ {
		for w := 0; w < pl.workers; w++ {
			th, err := create(t, pl.worker, s, false, nil, 0)
			if err != nil {
				started <- err
				return err
			}
			ids = append(ids, th.ID())
			pl.threads = append(pl.threads, th)
		}
	}
	var clients []mt.ThreadID
	for c := range pl.boxes {
		c := c
		th, err := create(t, func(ct *mt.Thread, _ any) { pl.client(ct, c, inputs[c]) }, nil, false, nil, 0)
		if err != nil {
			started <- err
			return err
		}
		clients = append(clients, th.ID())
		pl.threads = append(pl.threads, th)
	}
	started <- nil
	for _, id := range clients {
		if _, err := t.Wait(id); err != nil {
			return err
		}
	}
	// One empty item per worker shuts stage 0 down; each worker
	// passes its empty item on, so it reaches every later stage.
	for w := 0; w < pl.workers; w++ {
		if err := pl.queues[0].put(t, g, nil, nil, 0); err != nil {
			return err
		}
	}
	for _, id := range ids {
		if _, err := t.Wait(id); err != nil {
			return err
		}
	}
	var sum int64
	for _, v := range pl.table {
		sum += v
	}
	if want := pl.writes.Load(); sum != want {
		g.fail("pipeline: table sums to %d, writes applied %d", sum, want)
	}
	var total uint64
	for c := range pl.issued {
		if pl.issued[c] != pl.settled[c] {
			g.fail("pipeline: client %d issued %d items, got %d back", c, pl.issued[c], pl.settled[c])
		}
		total += pl.issued[c]
	}
	if uint64(pl.hotCount) != total {
		g.fail("pipeline: %d items passed the contended lock, %d issued", pl.hotCount, total)
	}
	return nil
}

func (pl *pipeline) worker(t *mt.Thread, arg any) {
	stage := arg.(int)
	g := pl.e.gate
	b := pl.e.tr.buf()
	for {
		it, err := pl.queues[stage].get(t, g, b)
		if err != nil {
			return
		}
		if it == nil {
			if stage+1 < pipeStages {
				if pl.queues[stage+1].put(t, g, nil, b, 0) != nil {
					return
				}
			}
			return
		}
		op := uint64(it.client)<<48 | it.seq
		if stage == 0 {
			// The stage's step runs under a jump buffer, as a C
			// server would for error recovery; the longjmp back
			// to it is the paper's setjmp/longjmp baseline.
			s := b.begin(spCoreSetjmp, op)
			t.Setjmp(func(jb *mt.Jmpbuf) { _ = t.Longjmp(jb, 1) }) // cannot fail: own thread, armed buffer
			b.end(s)
		}
		if err := pl.touch(t, it, stage, b, op); err != nil {
			return
		}
		if stage == 1 {
			if err := enter(t, g, &pl.hot, b, spTsyncMutexEnter, op); err != nil {
				return
			}
			pl.hotCount++
			s := b.begin(spCoreYield, op)
			t.Yield()
			b.end(s)
			pl.hot.Exit(t)
		}
		if stage+1 < pipeStages {
			if pl.queues[stage+1].put(t, g, it, b, op) != nil {
				return
			}
			continue
		}
		box := &pl.boxes[it.client]
		if err := enter(t, g, &box.mu, b, spTsyncMutexEnter, op); err != nil {
			return
		}
		box.buf[(box.head+box.n)%pipeWindow] = it
		box.n++
		box.mu.Exit(t)
		semaV(t, &box.ready, b, op)
	}
}

// touch is a stage's access to the shared table: a read under the
// reader lock, or a write of the item's delta under the writer lock.
func (pl *pipeline) touch(t *mt.Thread, it *item, stage int, b *spanBuf, op uint64) error {
	key := (int(it.in.key) + stage) % pipeKeys
	if err := rwLock(t, pl.e.gate, &pl.tableMu, it.in.write, b, op); err != nil {
		return err
	}
	if it.in.write {
		pl.table[key] += it.in.delta
		pl.writes.Add(it.in.delta)
	}
	pl.tableMu.Exit(t)
	return nil
}

// client keeps pipeWindow items in flight: it issues them all, then
// issues a new one each time one comes back, until the harness stops
// the load; then it waits for the rest.
func (pl *pipeline) client(t *mt.Thread, c int, inputs []pipeInput) {
	g := pl.e.gate
	cl := g.client()
	b := pl.e.tr.buf()
	box := &pl.boxes[c]
	items := make([]item, pipeWindow)
	issue := func(it *item) error {
		it.client, it.seq = c, pl.issued[c]
		it.in = inputs[it.seq%pipeInputs]
		pl.issued[c]++
		it.inFlight.Store(true)
		it.start = cl.issue()
		return pl.queues[0].put(t, g, it, b, uint64(c)<<48|it.seq)
	}
	for i := range items {
		if issue(&items[i]) != nil {
			return
		}
	}
	for pl.settled[c] < pl.issued[c] {
		if semaP(t, g, &box.ready, b, spTsyncSemaP, 0) != nil {
			return
		}
		if enter(t, g, &box.mu, b, spTsyncMutexEnter, 0) != nil {
			return
		}
		it := box.buf[box.head]
		box.head = (box.head + 1) % pipeWindow
		box.n--
		box.mu.Exit(t)
		pl.settled[c]++
		if it.client != c || !it.inFlight.CompareAndSwap(true, false) {
			g.fail("pipeline: client %d got item %d of client %d, in flight %v", c, it.seq, it.client, it.inFlight.Load())
			cl.done(it.start, false)
			continue
		}
		cl.done(it.start, true)
		if g.measuring() {
			if issue(it) != nil {
				return
			}
		}
	}
}

func (pl *pipeline) finish(deadline time.Duration) error {
	pl.e.gate.win.Store(winStopped)
	if err := waitExit(pl.e.clock, pl.p, deadline); err != nil {
		return err
	}
	return <-pl.mainErr
}

func (pl *pipeline) counters() snapshot {
	s := snapshot{c: map[string]float64{}}
	runtimeCounters(pl.p, &s)
	systemCounters(pl.p.Sys, s.c)
	var ms microstates
	for _, th := range pl.threads {
		ms.add(th.Microstates())
	}
	ms.into(s.c)
	return s
}

func (pl *pipeline) sample() gauges { return procGauges(pl.p) }
