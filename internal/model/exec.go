package model

import (
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Cursor is the resumable position of a stepwise matching structure —
// the state that lets a cuckoo lookup or tree descent be decomposed
// into one control state per memory touch, with the next touch's
// address known (and hence prefetchable) before the step executes.
type Cursor struct {
	// Stage is the structure-specific step counter.
	Stage int32
	// Addr is the simulated address the next step will access; spans
	// with BaseDynamic resolve against it.
	Addr uint64
	// Aux carries structure-specific values between steps (hashes,
	// node indexes).
	Aux [4]uint64
	// Idx is the match result (pool entry index) once found.
	Idx int32
	// Ok reports whether the match succeeded.
	Ok bool
}

// Reset clears the cursor for the next lookup.
func (c *Cursor) Reset() {
	*c = Cursor{Idx: -1}
}

// Exec is the execution context one function stream sees: the paper's
// NFTask payload (Figure 9(a)) minus the scheduling fields, which live
// in the runtimes. It carries references to every NFState the stream's
// actions access, plus the temporaries that persist across the actions
// of one packet.
//
// Exec is a concrete struct rather than an interface so that the
// per-action dispatch in the hot loop stays allocation- and
// devirtualization-free.
type Exec struct {
	// Core is the simulated core all accesses are charged to.
	Core *sim.Core
	// Pkt is the packet buffer reference (zero-copy: set on receive).
	Pkt *pkt.Packet
	// FlowIdx is the per-flow match result: an entry index into the
	// module's per-flow pool, or -1 before matching.
	FlowIdx int32
	// SubIdx is the sub-flow match result (e.g. the matched PDR).
	SubIdx int32
	// Key and Key2 stage match keys between get_key and hash steps.
	Key, Key2 uint64
	// Temp is word-sized scratch storage allocated by the compiler from
	// the action implementations' temporary variables.
	Temp [8]uint64
	// Cur is the stepwise matching cursor.
	Cur Cursor
	// TempAddr is the simulated address of this task's scratch region
	// (part of the NFTask structure itself).
	TempAddr uint64
	// CS is the current control state.
	CS CSID
	// Seq is the packet sequence number within the current run.
	Seq uint64
	// AccessCycles accumulates cycles spent charging declared state
	// accesses, for the paper's state-access-time measurements (EXP B).
	AccessCycles uint64
	// Prefetched is the P-state from the paper's cache management: true
	// when the current CS's spans have been prefetched or verified
	// resident.
	Prefetched bool
	// WakeAt is the fill-clock wakeup stamp EnsurePrefetched records
	// when it issues fetches: the max MSHR ready-cycle of the issued
	// lines. While Core.Now() < WakeAt and WakeEpoch still equals the
	// core's eviction epoch, the task's plan lines cannot have become
	// resident-and-then-evicted, so a scheduler revisit may skip the
	// residency walk without changing any simulated event (the
	// authoritative FirstNonResident pass before Step re-proves it).
	// Zero when the issue admitted no fill. The rt wakeup scheduler
	// parks a missed task on this stamp and does not revisit it before
	// the fill clock passes (rt.SchedulerWakeup).
	WakeAt uint64
	// WakeEpoch is the core's eviction epoch at stamp time — the
	// stamp's validity horizon: any L1 or outer eviction moves the
	// epoch and voids WakeAt.
	WakeEpoch uint64
	// Parked marks the task as held in a scheduler's pending structure
	// (unlinked from the run ring, waiting on WakeAt). Owned by the
	// runtime; Exec only clears it on stream reset.
	Parked bool
	// Reprobed limits the epoch-void fallback: when a parked task wakes
	// under a moved eviction epoch the scheduler forces one real
	// residency re-probe (clearing Prefetched) and sets this flag, so a
	// task thrashing against other streams' evictions re-probes at most
	// once per park cycle and progress is guaranteed. Cleared by the
	// scheduler when the action step finally executes.
	Reprobed bool
	// Done reports stream completion (CS reached End).
	Done bool
	// bases is the step plans' base-table scratch, indexed by BaseKind
	// (see plan.go). It lives here so each phase fills only the slots
	// its mask names instead of zeroing a fresh table: the BaseControl
	// slot is never written and stays zero, and stale slots are never
	// read because every op's base is covered by its phase's mask.
	bases [8]uint64
}

// ResetStream prepares the context for a new packet at the program's
// start state.
func (e *Exec) ResetStream(p *pkt.Packet, start CSID, seq uint64) {
	e.Pkt = p
	e.FlowIdx = -1
	e.SubIdx = -1
	e.Key = 0
	e.Key2 = 0
	e.Cur.Reset()
	e.CS = start
	e.Seq = seq
	e.Prefetched = false
	e.WakeAt = 0
	e.WakeEpoch = 0
	e.Parked = false
	e.Reprobed = false
	e.Done = false
}
