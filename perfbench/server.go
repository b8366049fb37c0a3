package main

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"time"

	"sunosmt/mt"
)

// The server workload, shaped like examples/netserver and the paper's
// Figure 1 database: client threads in a fork1 child send requests
// over per-connection pipes; the server's listener polls the pipes and
// creates one unbound worker per request; the worker looks the key up
// in a directory process through a record in a MAP_SHARED file,
// guarded by a process-shared Mutex and handed over with two shared
// Semas, and replies on the connection's pipe.
const (
	srvKeys = 4096 // directory size
	srvMsg  = 16   // request: id, key; reply: id, answer (little-endian uint64s)
	srvWarm = 5000
	// srvPoll is the listener's poll timeout. It equals the re-check
	// period vfs uses for an untimed multi-pipe poll, so the listener
	// sees the same poll bound an untimed poll would.
	srvPoll = time.Millisecond

	// The directory record: a shared mutex and two shared semaphores,
	// then the key, the answer, the lookup counter and a stop flag.
	recMutex = 0
	recReq   = 64
	recRep   = 128
	recKey   = 192
	recAns   = 200
	recCount = 208
	recStop  = 216
)

type conn struct {
	idx                    int
	reqR, reqW, repR, repW int
	// The connection's request in service: a closed loop has at most
	// one. The listener fills it and hands it to the worker.
	id, key uint64
	worker  mt.ThreadID
	busy    bool        // listener side: a worker owns the request
	done    atomic.Bool // set by the worker when it has replied
}

type server struct {
	e       *env
	srv     *mt.Proc
	dir     *mt.Proc
	cli     *mt.Proc
	answers []uint64 // the directory's table
	inputs  [][]uint64
	conns   []conn
	base    int64 // the record's address (the same in every process: fork1 copies the mapping)

	mu      *mt.Mutex // shared, in the server process
	req     *mt.Sema
	rep     *mt.Sema
	lookups atomic.Int64 // lookups the workers completed
	polls   atomic.Int64
	ready   atomic.Int64
	clients atomic.Int32 // client threads still running
	ms      microstates
	mainErr chan error
}

func setupServer(e *env) (instance, error) {
	s := &server{
		e:       e,
		answers: make([]uint64, srvKeys),
		inputs:  make([][]uint64, e.ncpu),
		conns:   make([]conn, max(2, e.ncpu)),
		mainErr: make(chan error, 1),
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	for i := range s.answers {
		s.answers[i] = rng.Uint64()
	}
	for c := range s.inputs {
		s.inputs[c] = make([]uint64, 4096)
		for i := range s.inputs[c] {
			s.inputs[c][i] = uint64(rng.Intn(srvKeys))
		}
	}
	sys := mt.NewSystem(mt.Options{NCPU: e.ncpu})
	started := make(chan error, 1)
	if _, err := spawn(sys, "server", func(p *mt.Proc, t *mt.Thread) {
		s.mainErr <- s.main(p, t, started)
	}, mt.ProcConfig{LockWaitSampleCap: 4096}); err != nil {
		return nil, err
	}
	if err := <-started; err != nil {
		return nil, err
	}
	if err := e.gate.waitWarm(srvWarm, runDeadline); err != nil {
		return nil, err
	}
	return s, nil
}

// main sets up the record, the pipes and the two children, then runs
// the listener until the clients are gone and every worker is reaped.
func (s *server) main(p *mt.Proc, t *mt.Thread, started chan<- error) error {
	err := s.boot(p, t)
	started <- err
	if err != nil {
		return err
	}
	return s.listen(p, t)
}

func (s *server) boot(p *mt.Proc, t *mt.Thread) error {
	s.srv = p // before any worker can run
	fd, err := p.Open(t, "/directory.db", mt.OCreate|mt.ORdWr)
	if err != nil {
		return err
	}
	if s.base, err = p.Mmap(t, 0, mt.PageSize, mt.ProtRead|mt.ProtWrite, mt.MapShared, fd, 0); err != nil {
		return err
	}
	if s.mu, err = p.SharedMutexAt(t, s.base+recMutex); err != nil {
		return err
	}
	if s.req, err = p.SharedSemaAt(t, s.base+recReq, 0); err != nil {
		return err
	}
	if s.rep, err = p.SharedSemaAt(t, s.base+recRep, 0); err != nil {
		return err
	}
	for i := range s.conns {
		c := &s.conns[i]
		c.idx = i
		if c.reqR, c.reqW, err = p.Pipe(t); err != nil {
			return err
		}
		if c.repR, c.repW, err = p.Pipe(t); err != nil {
			return err
		}
	}
	if s.dir, err = fork1(p, t, s.directory); err != nil {
		return err
	}
	s.clients.Store(int32(len(s.conns)))
	s.cli, err = fork1(p, t, s.clientMain)
	return err
}

// directory serves lookups from the shared record until the server
// raises the stop flag.
func (s *server) directory(p *mt.Proc, t *mt.Thread) {
	g := s.e.gate
	req, err := p.SharedSemaAt(t, s.base+recReq, 0)
	if err != nil {
		g.fail("directory: %v", err)
		return
	}
	rep, err := p.SharedSemaAt(t, s.base+recRep, 0)
	if err != nil {
		g.fail("directory: %v", err)
		return
	}
	var w [8]byte
	for {
		if semaP(t, g, req, nil, spUsyncSemaP, 0) != nil {
			return
		}
		if load(p, t, s.base+recStop, &w, nil, 0) != 0 {
			return
		}
		key := load(p, t, s.base+recKey, &w, nil, 0)
		if key >= srvKeys {
			g.fail("directory: key %d out of range", key)
			key = 0
		}
		store(p, t, s.base+recAns, s.answers[key], &w, nil, 0)
		store(p, t, s.base+recCount, load(p, t, s.base+recCount, &w, nil, 0)+1, &w, nil, 0)
		rep.V(t)
	}
}

// load and store are MemRead and MemWrite of one uint64 of the record.
func load(p *mt.Proc, t *mt.Thread, va int64, w *[8]byte, b *spanBuf, op uint64) uint64 {
	s := b.begin(spVmMemRead, op)
	err := p.MemRead(t, va, w[:])
	b.end(s)
	if err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(w[:])
}

func store(p *mt.Proc, t *mt.Thread, va int64, v uint64, w *[8]byte, b *spanBuf, op uint64) {
	binary.LittleEndian.PutUint64(w[:], v)
	s := b.begin(spVmMemWrite, op)
	_ = p.MemWrite(t, va, w[:]) // the record is mapped for the process's life; a fault raises SIGSEGV
	b.end(s)
}

// clientMain is the client process: one closed-loop client thread per
// connection.
func (s *server) clientMain(p *mt.Proc, t *mt.Thread) {
	var ids []mt.ThreadID
	for i := range s.conns {
		i := i
		th, err := create(t, func(ct *mt.Thread, _ any) { s.client(p, ct, i) }, nil, false, nil, 0)
		if err != nil {
			s.e.gate.fail("client process: %v", err)
			s.clients.Add(-1)
			continue
		}
		ids = append(ids, th.ID())
	}
	for _, id := range ids {
		if _, err := t.Wait(id); err != nil {
			s.e.gate.fail("client process: %v", err)
		}
	}
}

func (s *server) client(p *mt.Proc, t *mt.Thread, i int) {
	defer s.clients.Add(-1)
	g := s.e.gate
	cl := g.client()
	b := s.e.tr.buf()
	c := &s.conns[i]
	inputs := s.inputs[i%len(s.inputs)]
	fds := []mt.PollFD{{FD: c.repR, Events: mt.PollIn}}
	var msg [srvMsg]byte
	for id := uint64(1); g.measuring(); id++ {
		key := inputs[id%uint64(len(inputs))]
		op := uint64(i)<<48 | id
		binary.LittleEndian.PutUint64(msg[0:], id)
		binary.LittleEndian.PutUint64(msg[8:], key)
		start := cl.issue()
		sp := b.begin(spOp, op)
		err := write(p, t, c.reqW, msg[:], b, op)
		if err == nil {
			err = readFull(p, t, g, fds, msg[:], b, op)
		}
		b.end(sp)
		if err != nil {
			cl.done(start, false)
			return
		}
		gotID, ans := binary.LittleEndian.Uint64(msg[0:]), binary.LittleEndian.Uint64(msg[8:])
		ok := gotID == id && ans == s.answers[key]
		if !ok {
			g.fail("server: connection %d request %d key %d got reply %d answer %#x, want %#x", i, id, key, gotID, ans, s.answers[key])
		}
		cl.done(start, ok)
	}
}

// listen is the listener: it polls every connection's request pipe,
// creates a worker per request, and reaps workers that have replied.
func (s *server) listen(p *mt.Proc, t *mt.Thread) error {
	g := s.e.gate
	b := s.e.tr.buf()
	fds := make([]mt.PollFD, len(s.conns))
	var msg [srvMsg]byte
	for rot := 0; ; rot++ {
		busy := false
		for i := range s.conns {
			c := &s.conns[i]
			if c.busy && c.done.Load() {
				if err := reap(t, c.worker, b, c.id); err != nil {
					return err
				}
				c.busy = false
			}
			busy = busy || c.busy
		}
		if !busy && s.clients.Load() == 0 || g.abort.Load() {
			break
		}
		// The poll starts at a different connection each time, so
		// that no connection is always first in the list.
		for j := range fds {
			fds[j] = mt.PollFD{FD: s.conns[(rot+j)%len(fds)].reqR, Events: mt.PollIn}
		}
		sp := b.begin(spVfsPoll, 0)
		n, err := p.Poll(t, fds, srvPoll)
		b.end(sp)
		if err != nil {
			return err
		}
		s.polls.Add(1)
		s.ready.Add(int64(n))
		for j := range fds {
			i := (rot + j) % len(fds)
			c := &s.conns[i]
			if fds[j].Revents&mt.PollIn == 0 || c.busy {
				continue
			}
			if err := readFull(p, t, g, fds[j:j+1], msg[:], b, 0); err != nil {
				return err
			}
			c.id, c.key = binary.LittleEndian.Uint64(msg[0:]), binary.LittleEndian.Uint64(msg[8:])
			c.done.Store(false)
			op := uint64(i)<<48 | c.id
			w, err := create(t, s.worker, c, false, b, op)
			if err != nil {
				return err
			}
			c.worker, c.busy = w.ID(), true
		}
	}
	// Every worker is done: stop the directory and check the lookup
	// counter it kept in the shared file.
	var w [8]byte
	store(p, t, s.base+recStop, 1, &w, nil, 0)
	s.req.V(t)
	if got, want := load(p, t, s.base+recCount, &w, nil, 0), uint64(s.lookups.Load()); got != want {
		g.fail("server: shared lookup counter %d, workers completed %d lookups", got, want)
	}
	return nil
}

// worker serves one request: the directory lookup through the shared
// record, then the reply.
func (s *server) worker(t *mt.Thread, arg any) {
	c := arg.(*conn)
	g := s.e.gate
	p := s.srv
	b := s.e.tr.buf()
	defer s.e.tr.release(b)
	op := uint64(c.idx)<<48 | c.id
	var w [8]byte
	var msg [srvMsg]byte
	binary.LittleEndian.PutUint64(msg[0:], c.id)
	if enter(t, g, s.mu, b, spUsyncMutexEnter, op) != nil {
		return
	}
	store(p, t, s.base+recKey, c.key, &w, b, op)
	s.req.V(t)
	if semaP(t, g, s.rep, b, spUsyncSemaP, op) != nil {
		return
	}
	binary.LittleEndian.PutUint64(msg[8:], load(p, t, s.base+recAns, &w, b, op))
	s.mu.Exit(t)
	s.lookups.Add(1)
	if err := write(p, t, c.repW, msg[:], b, op); err != nil {
		g.fail("server: reply on connection: %v", err)
	}
	if s.e.tr != nil {
		s.ms.add(t.Microstates())
	}
	c.done.Store(true)
}

func (s *server) finish(deadline time.Duration) error {
	s.e.gate.win.Store(winStopped)
	for _, p := range []*mt.Proc{s.cli, s.srv, s.dir} {
		if err := waitExit(s.e.clock, p, deadline); err != nil {
			return err
		}
	}
	return <-s.mainErr
}

func (s *server) counters() snapshot {
	sn := snapshot{c: map[string]float64{}}
	for _, p := range []*mt.Proc{s.srv, s.dir, s.cli} {
		runtimeCounters(p, &sn)
	}
	systemCounters(s.srv.Sys, sn.c)
	s.ms.into(sn.c)
	sn.c["vfs.polls"] = float64(s.polls.Load())
	sn.c["vfs.ready"] = float64(s.ready.Load())
	return sn
}

func (s *server) sample() gauges { return procGauges(s.srv, s.dir, s.cli) }
