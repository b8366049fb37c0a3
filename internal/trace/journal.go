package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// A schedule journal is the serialized form of one run's complete
// scheduling history: every chaos decision (the inputs that steered
// the schedule) and every ring event (the schedule that resulted).
// Recording the decisions makes a run replayable — a fresh run driven
// by the same decision stream takes the same schedule — and recording
// the events makes replay *checkable*: the replayed event sequence
// must match the journal event for event, and the first mismatch
// pinpoints where determinism was lost.
//
// The format is a line-oriented text file:
//
//	sunosmt-journal v1
//	m <key> <value ...>          # metadata (config, workload, seed)
//	d <site> <n> <value>         # one chaos decision, in global order
//	e <kind> <cpu> <pid> <lwp> <tid> <arg>   # one ring event, in Seq order
//
// Timestamps and global sequence numbers are deliberately not
// serialized: they differ between a recording and a faithful replay
// (wall time always moves), so the determinism contract covers the
// ordered (kind, cpu, pid, lwp, tid, arg) tuples only.

// Decision is one recorded chaos decision: the n-th consultation of a
// site answered Value. N is the site-specific input (candidate count
// for index sites, 1 for boolean sites, the requested duration for
// timer jitter) and is checked on replay — a mismatch means the
// replayed run reached the site in a different state, i.e. the
// schedule diverged before the decision was even applied.
type Decision struct {
	Site  string
	N     int64
	Value int64
}

// Journal is an in-memory schedule journal.
type Journal struct {
	Meta      map[string]string
	Decisions []Decision
	Events    []Record
}

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{Meta: make(map[string]string)}
}

const journalHeader = "sunosmt-journal v1"

// Write serializes the journal. Metadata is written in sorted key
// order so identical journals serialize identically.
func (j *Journal) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, journalHeader)
	keys := make([]string, 0, len(j.Meta))
	for k := range j.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(bw, "m %s %s\n", k, j.Meta[k])
	}
	for _, d := range j.Decisions {
		fmt.Fprintf(bw, "d %s %d %d\n", d.Site, d.N, d.Value)
	}
	for _, e := range j.Events {
		fmt.Fprintf(bw, "e %d %d %d %d %d %d\n",
			int(e.Kind), e.CPU, e.PID, e.LWP, e.TID, e.Arg)
	}
	return bw.Flush()
}

// WriteFile serializes the journal to a file.
func (j *Journal) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := j.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJournal parses a serialized journal.
func ReadJournal(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty journal")
	}
	if sc.Text() != journalHeader {
		return nil, fmt.Errorf("trace: bad journal header %q", sc.Text())
	}
	j := NewJournal()
	lineno := 1
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "m "):
			rest := line[2:]
			k, v, _ := strings.Cut(rest, " ")
			j.Meta[k] = v
		case strings.HasPrefix(line, "d "):
			f := strings.Fields(line[2:])
			if len(f) != 3 {
				return nil, fmt.Errorf("trace: journal line %d: bad decision %q", lineno, line)
			}
			n, err1 := strconv.ParseInt(f[1], 10, 64)
			v, err2 := strconv.ParseInt(f[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("trace: journal line %d: bad decision %q", lineno, line)
			}
			j.Decisions = append(j.Decisions, Decision{Site: f[0], N: n, Value: v})
		case strings.HasPrefix(line, "e "):
			f := strings.Fields(line[2:])
			if len(f) != 6 {
				return nil, fmt.Errorf("trace: journal line %d: bad event %q", lineno, line)
			}
			kind, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || kind < 1 || kind >= int64(numEventKinds) {
				return nil, fmt.Errorf("trace: journal line %d: bad event kind %q", lineno, f[0])
			}
			var iv [4]int32
			for i := range iv {
				v, err := strconv.ParseInt(f[1+i], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("trace: journal line %d: bad event %q", lineno, line)
				}
				iv[i] = int32(v)
			}
			arg, err := strconv.ParseUint(f[5], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: journal line %d: bad event %q", lineno, line)
			}
			j.Events = append(j.Events, Record{
				Kind: EventKind(kind),
				CPU:  iv[0],
				PID:  iv[1],
				LWP:  iv[2],
				TID:  iv[3],
				Arg:  arg,
			})
		default:
			return nil, fmt.Errorf("trace: journal line %d: unknown record %q", lineno, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return j, nil
}

// ReadJournalFile parses a journal file.
func ReadJournalFile(path string) (*Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}

// FirstEventDivergence compares two event sequences on everything but
// Seq and When, which legitimately differ between a recording and its
// replay, and returns the index of the first mismatch (an index equal
// to the shorter length when one is a strict prefix of the other), or
// -1 when the schedules are identical.
func FirstEventDivergence(a, b []Record) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Kind != b[i].Kind || a[i].CPU != b[i].CPU ||
			a[i].PID != b[i].PID || a[i].LWP != b[i].LWP ||
			a[i].TID != b[i].TID || a[i].Arg != b[i].Arg {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}
