package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies the public layer function a span wraps. The
// names are the per-layer metric stems: a span named core.create_us
// yields the metrics core.create_us.p50 and core.create_us.p99.
type spanName uint8

const (
	spOp spanName = iota // one whole operation, as its client sees it
	spCoreCreate
	spCoreReap
	spCoreYield
	spCoreSetjmp
	spSimCreateBound
	spTsyncMutexEnter
	spTsyncCondWait
	spTsyncSemaP
	spTsyncSemaV
	spTsyncRWRead
	spTsyncRWWrite
	spVfsPoll
	spVfsRead
	spVfsWrite
	spUsyncMutexEnter
	spUsyncSemaP
	spVmMemRead
	spVmMemWrite
	spTraceSnapshot
	spTraceJournalEncode
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:                 "bench.op_us",
	spCoreCreate:         "core.create_us",
	spCoreReap:           "core.reap_us",
	spCoreYield:          "core.yield_us",
	spCoreSetjmp:         "core.setjmp_us",
	spSimCreateBound:     "sim.create_bound_us",
	spTsyncMutexEnter:    "tsync.mutex_enter_us",
	spTsyncCondWait:      "tsync.cond_wait_us",
	spTsyncSemaP:         "tsync.sema_p_us",
	spTsyncSemaV:         "tsync.sema_v_us",
	spTsyncRWRead:        "tsync.rw_read_us",
	spTsyncRWWrite:       "tsync.rw_write_us",
	spVfsPoll:            "vfs.poll_us",
	spVfsRead:            "vfs.read_us",
	spVfsWrite:           "vfs.write_us",
	spUsyncMutexEnter:    "usync.shared_mutex_enter_us",
	spUsyncSemaP:         "usync.shared_sema_p_us",
	spVmMemRead:          "vm.memread_us",
	spVmMemWrite:         "vm.memwrite_us",
	spTraceSnapshot:      "trace.snapshot_us",
	spTraceJournalEncode: "trace.journal_encode_us",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call. parent indexes the enclosing span in the
// same spanBuf (-1 for a root); spans of one operation share op.
type span struct {
	start, end int64 // ns on the harness clock
	op         uint64
	parent     int32
	name       spanName
}

// tracer owns every spanBuf of a run. Spans are kept in memory, up to
// a fixed budget so a long traced run cannot exhaust host memory; the
// traced window ends early when the budget is spent (see full).
type tracer struct {
	clock  *clock
	on     atomic.Bool
	budget int64
	used   atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
	free []*spanBuf
}

func newTracer(c *clock, budget int64) *tracer {
	return &tracer{clock: c, budget: budget}
}

// full reports whether the span budget is spent.
func (tr *tracer) full() bool { return tr.used.Load() >= tr.budget }

// buf hands out a span buffer for one simulated thread; release returns
// it for reuse by a later short-lived thread. A nil tracer hands out
// nil buffers, on which every method is a no-op.
func (tr *tracer) buf() *spanBuf {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n := len(tr.free); n > 0 {
		b := tr.free[n-1]
		tr.free = tr.free[:n-1]
		return b
	}
	b := &spanBuf{tr: tr, cur: -1}
	tr.bufs = append(tr.bufs, b)
	return b
}

func (tr *tracer) release(b *spanBuf) {
	if tr == nil || b == nil {
		return
	}
	b.cur = -1
	tr.mu.Lock()
	tr.free = append(tr.free, b)
	tr.mu.Unlock()
}

// spanBuf is the span log of one simulated thread at a time, so
// recording takes no lock.
type spanBuf struct {
	tr    *tracer
	spans []span
	cur   int32 // innermost open span, the parent of the next one
}

// begin opens a span and returns its handle for end; -1 means
// tracing is off and end will ignore it.
func (b *spanBuf) begin(name spanName, op uint64) int32 {
	if b == nil || !b.tr.on.Load() {
		return -1
	}
	if b.tr.used.Add(1) > b.tr.budget {
		return -1
	}
	i := int32(len(b.spans))
	b.spans = append(b.spans, span{start: b.tr.clock.now(), op: op, parent: b.cur, name: name})
	b.cur = i
	return i
}

// end closes the span begin returned.
func (b *spanBuf) end(i int32) {
	if i < 0 {
		return
	}
	s := &b.spans[i]
	s.end = b.tr.clock.now()
	b.cur = s.parent
}

// all returns every recorded span, buffer by buffer; parent indexes
// are rebased so they stay valid in the combined slice.
func (tr *tracer) all() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, b := range tr.bufs {
		base := int32(len(out))
		for _, s := range b.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns the distribution of each span name's self time:
// a span's duration minus the part of it that its child spans cover.
// Spans still open (end == 0) are skipped.
func selfTimes(spans []span) map[spanName]*hist {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 && s.end > 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[spanName]*hist)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		if out[s.name] == nil {
			out[s.name] = new(hist)
		}
		out[s.name].add(s.end - s.start - covered(s.start, s.end, children[int32(i)]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals
// covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes the spans as tab-separated lines: name, op,
// parent index, start and end on the harness clock in ns.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\top\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.op, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clock is the harness clock: host monotonic time since the run
// began. The simulator's real clock is the same host clock.
type clock struct{ base time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }
