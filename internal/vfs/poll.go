package vfs

import (
	"time"

	"sunosmt/internal/sim"
)

// PollEvents is a bitmask of poll conditions.
type PollEvents int

// Poll event bits.
const (
	PollIn PollEvents = 1 << iota
	PollOut
	PollHup
	PollErr
)

// PollFD is one entry in a Poll request, like struct pollfd.
type PollFD struct {
	FD      int
	Events  PollEvents
	Revents PollEvents
}

// Poll waits until one of the requested descriptors is ready, the
// timeout expires (timeout > 0), or a signal interrupts the wait.
// The wait is *indefinite* in the paper's sense — poll is its example
// of a wait that should trigger SIGWAITING when every LWP is stuck in
// one. Returns the number of ready descriptors (0 on timeout).
func (pf *ProcFiles) Poll(l *sim.LWP, fds []PollFD, timeout time.Duration) (int, error) {
	k := pf.fs.kern
	k.SyscallEnter(l)
	defer k.SyscallExit(l)

	// The timeout runs from the start of the call: a wake that finds
	// nothing ready re-sleeps only for what is left of it.
	deadline := time.Duration(-1)
	if timeout > 0 {
		deadline = k.Clock().Now() + timeout
	}
	for {
		ready := 0
		var first *Pipe // the pipe whose poll queue the sleep waits on
		npipes := 0
		for i := range fds {
			fds[i].Revents = 0
			of, err := pf.get(fds[i].FD)
			if err != nil {
				fds[i].Revents |= PollErr
				ready++
				continue
			}
			if of.pipe != nil {
				if first == nil {
					first = of.pipe
				}
				npipes++
				if fds[i].Events&PollIn != 0 && of.pipe.pollReadable() {
					fds[i].Revents |= PollIn
				}
				if fds[i].Events&PollOut != 0 && of.pipe.pollWritable() {
					fds[i].Revents |= PollOut
				}
				of.pipe.mu.Lock()
				if of.pipe.writers == 0 && of.pipe.readers == 0 {
					fds[i].Revents |= PollHup
				}
				of.pipe.mu.Unlock()
			} else {
				// Regular files are always ready.
				fds[i].Revents |= fds[i].Events & (PollIn | PollOut)
			}
			if fds[i].Revents != 0 {
				ready++
			}
		}
		if ready > 0 {
			return ready, nil
		}
		if npipes == 0 {
			// Nothing can ever become ready; treat as timeout
			// semantics with no wait channel.
			return 0, ErrInval
		}
		// Block on the first pipe's poll queue. Every state
		// change on any pipe wakes its pollers; for simplicity a
		// multi-pipe poll re-checks all after any wake on the
		// first. To avoid missing wakes from other pipes, bound
		// the sleep.
		opts := sim.SleepOpts{Interruptible: true, Indefinite: true}
		if deadline >= 0 {
			opts.Timeout = deadline - k.Clock().Now()
			if opts.Timeout <= 0 {
				return 0, nil
			}
		} else if npipes > 1 {
			opts.Timeout = time.Millisecond
		}
		res := k.Sleep(l, first.pollq, opts)
		switch res {
		case sim.WakeInterrupted:
			return 0, sim.ErrIntr
		case sim.WakeTimeout:
			if deadline >= 0 {
				return 0, nil
			}
		}
	}
}
