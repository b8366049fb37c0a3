package sim

import (
	"fmt"

	"sunosmt/internal/trace"
)

// Processor sets, after Solaris psrset(1M)/pset_create(2): a pset is
// a disjoint group of CPUs that runs only the LWPs bound to it. CPUs
// start in the default set (PsetDefault); LWPs with no binding run on
// the default set's CPUs. Placement, stealing and balancing never
// cross set boundaries, so a pset is both an isolation and a
// dedication primitive: binding a bound thread's LWP to a set of
// dedicated CPUs shields it from the rest of the process, and keeps
// the rest of the process off those CPUs.

// PsetID names a processor set. PsetDefault is the default set.
type PsetID int

// PsetDefault is the id of the default processor set, which holds
// every CPU at boot and every CPU not assigned to a user set.
const PsetDefault PsetID = 0

// pset is one processor set. Guarded by Kernel.mu.
type pset struct {
	id     PsetID
	cpus   []*CPU // member CPUs, ascending id
	nbound int    // live LWPs bound to this set
}

// PsetInfo is a snapshot of one processor set for /proc and mtstat.
type PsetInfo struct {
	ID PsetID
	// CPUs holds the member CPU ids, ascending.
	CPUs []int
	// BoundLWPs is the number of live LWPs bound to the set.
	BoundLWPs int
}

// PsetCreate creates an empty processor set. CPUs are added with
// PsetAssign.
func (k *Kernel) PsetCreate() PsetID {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextPset++
	id := k.nextPset
	k.psets[id] = &pset{id: id}
	return id
}

// PsetDestroy destroys a user processor set: its CPUs return to the
// default set and its bound LWPs are unbound.
func (k *Kernel) PsetDestroy(id PsetID) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if id == PsetDefault {
		return fmt.Errorf("sim: cannot destroy the default pset")
	}
	ps, ok := k.psets[id]
	if !ok {
		return fmt.Errorf("sim: no pset %d", id)
	}
	for _, p := range k.procs {
		for _, l := range p.lwps {
			if l.ps == ps {
				k.psetRebindLocked(l, k.psets[PsetDefault], false)
			}
		}
	}
	for _, c := range ps.cpus {
		k.moveCPULocked(c, k.psets[PsetDefault])
	}
	delete(k.psets, id)
	k.scheduleLocked()
	return nil
}

// PsetAssign moves a CPU into the processor set (PsetDefault moves it
// back to the default set). The default set must keep at least one
// CPU, a set with bound LWPs must keep at least one CPU, and a CPU
// with LWPs hard-bound to it (BindCPU) cannot change sets.
func (k *Kernel) PsetAssign(id PsetID, cpuID int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if cpuID < 0 || cpuID >= len(k.cpus) {
		return fmt.Errorf("sim: no CPU %d (have %d)", cpuID, len(k.cpus))
	}
	dst, ok := k.psets[id]
	if !ok {
		return fmt.Errorf("sim: no pset %d", id)
	}
	c := k.cpus[cpuID]
	src := c.ps
	if src == dst {
		return nil
	}
	if len(src.cpus) == 1 && (src.id == PsetDefault || src.nbound > 0) {
		return fmt.Errorf("sim: cannot remove the last CPU from pset %d", src.id)
	}
	for _, p := range k.procs {
		for _, l := range p.lwps {
			if l.boundCPU == c && l.state != LWPZombie {
				return fmt.Errorf("sim: CPU %d has LWPs bound to it", cpuID)
			}
		}
	}
	k.moveCPULocked(c, dst)
	k.scheduleLocked()
	return nil
}

// moveCPULocked reassigns c to dst, re-placing c's queued LWPs (they
// belong to c's old set) and flagging an on-CPU LWP from the old set
// for preemption so it drifts back at its next checkpoint.
func (k *Kernel) moveCPULocked(c *CPU, dst *pset) {
	src := c.ps
	var queued []*LWP
	c.runq.forEach(func(l *LWP) { queued = append(queued, l) })
	for _, l := range queued {
		k.runqRemoveLocked(l)
	}
	for i, x := range src.cpus {
		if x == c {
			src.cpus = append(src.cpus[:i], src.cpus[i+1:]...)
			break
		}
	}
	c.ps = dst
	insertCPU(&dst.cpus, c)
	for _, l := range queued {
		k.runqPushLocked(k.placeLocked(l), l)
	}
	if c.lwp != nil && c.lwp.ps != dst {
		c.lwp.preempt = true
	}
}

// insertCPU keeps a pset's CPU list ascending by id.
func insertCPU(cpus *[]*CPU, c *CPU) {
	i := 0
	for i < len(*cpus) && (*cpus)[i].id < c.id {
		i++
	}
	*cpus = append(*cpus, nil)
	copy((*cpus)[i+1:], (*cpus)[i:])
	(*cpus)[i] = c
}

// PsetBind binds the LWP to the processor set (PsetDefault removes
// the binding): the LWP runs only on the set's CPUs from now on. The
// target set must have at least one CPU, and a CPU-bound LWP cannot
// bind to a set its CPU is outside of.
func (k *Kernel) PsetBind(l *LWP, id PsetID) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	ps, ok := k.psets[id]
	if !ok {
		return fmt.Errorf("sim: no pset %d", id)
	}
	if len(ps.cpus) == 0 {
		return fmt.Errorf("sim: pset %d has no CPUs", id)
	}
	if l.boundCPU != nil && l.boundCPU.ps != ps {
		return fmt.Errorf("sim: lwp %d is bound to CPU %d outside pset %d", l.id, l.boundCPU.id, id)
	}
	k.psetRebindLocked(l, ps, id != PsetDefault)
	k.rings.Record(-1, trace.EvPset, int(l.proc.pid), int(l.id), 0, uint64(id))
	k.scheduleLocked()
	return nil
}

// psetRebindLocked installs a new pset for l, maintaining bind
// counts, re-placing l if queued, and preempting l if it is running
// on a CPU outside the new set.
func (k *Kernel) psetRebindLocked(l *LWP, ps *pset, bound bool) {
	if l.psBound {
		l.ps.nbound--
	}
	queued := l.rqOn
	if queued {
		k.runqRemoveLocked(l)
	}
	l.ps = ps
	l.psBound = bound
	if bound {
		ps.nbound++
	}
	if queued {
		k.runqPushLocked(k.placeLocked(l), l)
	}
	if l.cpu != nil && l.cpu.ps != ps {
		l.preempt = true
	}
}

// Pset reports the processor set the LWP is bound to (PsetDefault
// when unbound).
func (l *LWP) Pset() PsetID {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	if !l.psBound {
		return PsetDefault
	}
	return l.ps.id
}

// Psets returns a snapshot of all processor sets, ascending by id.
func (k *Kernel) Psets() []PsetInfo {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]PsetInfo, 0, len(k.psets))
	for id := PsetID(0); id <= k.nextPset; id++ {
		ps, ok := k.psets[id]
		if !ok {
			continue
		}
		info := PsetInfo{ID: id, BoundLWPs: ps.nbound}
		for _, c := range ps.cpus {
			info.CPUs = append(info.CPUs, c.id)
		}
		out = append(out, info)
	}
	return out
}
