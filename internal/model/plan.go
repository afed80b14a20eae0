package model

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// This file is the step-plan compiler and the one step executor. Each
// CSInfo is lowered, once at program-build time, into a flat stepPlan
// that Step, PrefetchCurrent, ResidentCurrent and EnsurePrefetched run
// without re-interpreting span tables. Three things are compiled away:
//
//   - Per-span base resolution. The plan pre-splits spans by base:
//     each access becomes a (base-table slot, pre-added offset) pair,
//     the per-phase base table is materialized once per phase (reads
//     resolve before the action, writes after — an action may rebind
//     FlowIdx or the cursor), and statically-resolvable bases (control
//     regions) are folded into the offset entirely.
//
//   - Prefetch line decomposition. Core.Prefetch(addr, size) re-derives
//     the covered lines on every issue. For spans whose base is provably
//     line-aligned at compile time (pools pad entries to the line grid;
//     control regions are line-aligned by reservation), the plan stores
//     the finished line list and issues Core.PrefetchLine per entry.
//
//   - Residency checks. ResidentCurrent's span loop becomes the same
//     pre-resolved line list probed through the core's exact L1 index.
//
// The lowering is a pure representation change: the simulated access
// sequence — every (addr, size, read/write/prefetch, cycle) the core is
// charged with — and, with a tracer attached, every trace event are
// exactly those of the span-interpreting reference executor. No access
// is deduplicated, reordered, split or merged. The differential-replay
// harness (differential_test.go, against the oracle in export_test.go)
// asserts this on randomized programs; the golden-counter tests in
// internal/exp pin it for the shipped NFs.

// Base-table slots are numbered by BaseKind, so an op's Base is its
// span's kind (the TraceAccess attribution) and bases[kind] is the
// resolved base address. The BaseControl slot is never written and
// stays zero: control ops carry their full address in the offset.

// stepPlan is one control state lowered for execution. Ops use the
// core's compiled-access types (sim.PlanOp, sim.FetchOp) so whole op
// lists execute core-side in one call per phase. The action's function
// and cost are copied in so a step never touches the action table, and
// all plans' op slices share two contiguous backing arrays (see
// CompilePlans) so walking a plan streams through memory.
type stepPlan struct {
	reads  []sim.PlanOp
	writes []sim.PlanOp
	fetch  []sim.FetchOp
	// readMask/writeMask/fetchMask say which base-table slots the phase
	// needs materialized (bit i = slot i).
	readMask  uint8
	writeMask uint8
	fetchMask uint8
	action    ActionID
	cost      uint64
	fn        ActionFunc
	// next aliases the CSInfo transition table.
	next []CSID
	bind *Binding
}

// CompilePlans (re)lowers every control state into its step plan. Build
// and Compose call it automatically; compiler passes that mutate a
// CSInfo's span sets after build (e.g. redundant-prefetch removal) must
// call it again, or the Program will keep executing the stale plans.
func (p *Program) CompilePlans() {
	plans := make([]stepPlan, len(p.cs))
	// All plans' ops live in two shared backing arrays, appended in CS
	// order, so consecutive steps walk contiguous memory instead of
	// per-CS allocations. Capacities are counted up front so the arrays
	// never reallocate under the subslices handed to the plans.
	nOps, nFetch := 0, 0
	for i := 1; i < len(p.cs); i++ {
		info := &p.cs[i]
		nOps += len(info.Reads) + len(info.Writes)
		nFetch += fetchLen(info.Prefetch, info.Bind)
	}
	allOps := make([]sim.PlanOp, 0, nOps)
	allFetch := make([]sim.FetchOp, 0, nFetch)
	for i := 1; i < len(p.cs); i++ {
		info := &p.cs[i]
		pl := &plans[i]
		pl.action = info.Action
		pl.cost = p.actions[info.Action].Cost
		pl.fn = p.actions[info.Action].Fn
		pl.next = info.Next
		pl.bind = info.Bind
		allOps, pl.reads, pl.readMask = lowerOps(allOps, info.Reads, info.Bind)
		allOps, pl.writes, pl.writeMask = lowerOps(allOps, info.Writes, info.Bind)
		allFetch, pl.fetch, pl.fetchMask = lowerFetch(allFetch, info.Prefetch, info.Bind)
	}
	p.plans = plans
}

// lowerOffset returns a span's pre-added offset: control spans fold in
// their region base, every other base keeps its relative offset.
// Validate has already rejected bases outside BasePerFlow..BaseDynamic.
func lowerOffset(s Span, bind *Binding) uint64 {
	if s.Base == BaseControl {
		return bind.Control.Base + s.Off
	}
	return s.Off
}

// maskBit returns the base-table fill bit for a span's slot. Control
// needs no fill (its slot is always zero).
func maskBit(base BaseKind) uint8 {
	if base == BaseControl {
		return 0
	}
	return 1 << base
}

// lowerOps compiles a read or write span list, appending onto the
// shared backing array and returning it plus the capped subslice
// holding this list's ops.
func lowerOps(dst []sim.PlanOp, spans []Span, bind *Binding) ([]sim.PlanOp, []sim.PlanOp, uint8) {
	if len(spans) == 0 {
		return dst, nil, 0
	}
	start := len(dst)
	var mask uint8
	for _, s := range spans {
		dst = append(dst, sim.PlanOp{Off: lowerOffset(s, bind), Size: s.Size, Base: uint8(s.Base)})
		mask |= maskBit(s.Base)
	}
	return dst, dst[start:len(dst):len(dst)], mask
}

// alignedBase reports whether every address the base can resolve to is
// provably line-aligned at compile time, which is what licenses
// decomposing a span into pre-resolved lines: for aligned bases,
// (base+off)/Line == base/Line + off/Line, so the compile-time line
// walk enumerates exactly the lines Core.Prefetch would.
func alignedBase(base BaseKind, bind *Binding) bool {
	switch base {
	case BaseControl:
		return true // offsets are absolute; lines computed directly
	case BasePerFlow:
		return poolAligned(bind.PerFlow)
	case BaseSubFlow:
		return poolAligned(bind.SubFlow)
	default:
		// Packet, temp and dynamic bases are runtime values with no
		// compile-time alignment guarantee.
		return false
	}
}

func poolAligned(p *mem.Pool) bool {
	return p != nil && p.Region().Base%sim.LineBytes == 0 && p.EntrySize()%sim.LineBytes == 0
}

// lowerFetch compiles a prefetch plan: aligned spans expand into their
// line lists (ascending, matching Core.Prefetch's walk), the rest stay
// span ops. Order across spans is preserved exactly. Ops append onto
// the shared backing array; the capped subslice holds this plan's ops.
func lowerFetch(dst []sim.FetchOp, spans []Span, bind *Binding) ([]sim.FetchOp, []sim.FetchOp, uint8) {
	if len(spans) == 0 {
		return dst, nil, 0
	}
	start := len(dst)
	var mask uint8
	for _, s := range spans {
		off, base := lowerOffset(s, bind), uint8(s.Base)
		mask |= maskBit(s.Base)
		if s.Size == 0 || !alignedBase(s.Base, bind) {
			dst = append(dst, sim.FetchOp{Off: off, Size: s.Size, Base: base})
			continue
		}
		first := off >> lineShift
		last := (off + s.Size - 1) >> lineShift
		for line := first; line <= last; line++ {
			dst = append(dst, sim.FetchOp{Off: line << lineShift, Base: base, Line: true})
		}
	}
	return dst, dst[start:len(dst):len(dst)], mask
}

// fetchLen counts the ops lowerFetch will emit for spans, for the
// backing-array capacity precompute.
func fetchLen(spans []Span, bind *Binding) int {
	n := 0
	for _, s := range spans {
		if s.Size == 0 || !alignedBase(s.Base, bind) {
			n++
			continue
		}
		off := lowerOffset(s, bind)
		n += int(((off+s.Size-1)>>lineShift)-(off>>lineShift)) + 1
	}
	return n
}

// lineShift is log2(sim.LineBytes).
const lineShift = 6

// planBases materializes the base table for one phase into the Exec's
// persistent scratch. Only the bases the phase's mask names are
// resolved, so a control state that never touches per-flow state never
// evaluates the (possibly still unmatched) flow index. Slots outside
// the mask keep whatever a previous phase left (no zeroing): no op
// reads them, and the always-zero BaseControl slot is never written.
func planBases(e *Exec, bind *Binding, mask uint8) *[8]uint64 {
	bases := &e.bases
	if mask&(1<<BasePerFlow) != 0 {
		bases[BasePerFlow] = bind.PerFlow.AddrAt(e.FlowIdx)
	}
	if mask&(1<<BaseSubFlow) != 0 {
		bases[BaseSubFlow] = bind.SubFlow.AddrAt(e.SubIdx)
	}
	if mask&(1<<BasePacket) != 0 {
		bases[BasePacket] = e.Pkt.Addr
	}
	if mask&(1<<BaseTemp) != 0 {
		bases[BaseTemp] = e.TempAddr
	}
	if mask&(1<<BaseDynamic) != 0 {
		bases[BaseDynamic] = e.Cur.Addr
	}
	return bases
}

// Step executes the current control state of e: charge the declared
// reads, run the action, charge the declared writes, and take the
// transition for the returned event. It implements the ActionExecutor +
// Transition steps of the paper's Algorithm 1 and is shared by both the
// interleaved runtime and the RTC baseline.
//
// Address resolution is one add per access and each phase's op list
// executes core-side in a single call. The base-table fills are spelled
// out inline (see planBases, kept in sync) because the materialization
// sits on the hottest loop in the repository and must not pay a call
// per phase. With a tracer attached the same body also emits
// TraceActionBegin, one TraceAccess per declared span (traceOps),
// TraceActionEnd and TraceTransition — the event stream of the
// interpreted reference; the simulated work is unchanged. The tracer is
// re-read at each emission site rather than held in a local, which
// would stay live across the action call and cost the untraced body
// spills; tracers are attached and detached between steps, never by an
// action.
func (p *Program) Step(e *Exec) error {
	if e.CS == CSEnd {
		e.Done = true
		return nil
	}
	pl := &p.plans[e.CS]
	core := e.Core
	before := core.Now()
	if core.Tracer() != nil {
		traceBegin(core, e.CS, pl.action)
	}
	if ops := pl.reads; len(ops) > 0 {
		bases := &e.bases
		m := pl.readMask
		bind := pl.bind
		if m&(1<<BasePerFlow) != 0 {
			bases[BasePerFlow] = bind.PerFlow.AddrAt(e.FlowIdx)
		}
		if m&(1<<BaseSubFlow) != 0 {
			bases[BaseSubFlow] = bind.SubFlow.AddrAt(e.SubIdx)
		}
		if m&(1<<BasePacket) != 0 {
			bases[BasePacket] = e.Pkt.Addr
		}
		if m&(1<<BaseTemp) != 0 {
			bases[BaseTemp] = e.TempAddr
		}
		if m&(1<<BaseDynamic) != 0 {
			bases[BaseDynamic] = e.Cur.Addr
		}
		if core.Tracer() != nil {
			traceOps(core, bases, ops, false)
		} else {
			core.ReadSpans(bases, ops)
		}
	}
	afterReads := core.Now()

	core.Compute(pl.cost)
	ev := pl.fn(e)

	preWrites := core.Now()
	if ops := pl.writes; len(ops) > 0 {
		bases := &e.bases
		m := pl.writeMask
		bind := pl.bind
		if m&(1<<BasePerFlow) != 0 {
			bases[BasePerFlow] = bind.PerFlow.AddrAt(e.FlowIdx)
		}
		if m&(1<<BaseSubFlow) != 0 {
			bases[BaseSubFlow] = bind.SubFlow.AddrAt(e.SubIdx)
		}
		if m&(1<<BasePacket) != 0 {
			bases[BasePacket] = e.Pkt.Addr
		}
		if m&(1<<BaseTemp) != 0 {
			bases[BaseTemp] = e.TempAddr
		}
		if m&(1<<BaseDynamic) != 0 {
			bases[BaseDynamic] = e.Cur.Addr
		}
		if core.Tracer() != nil {
			traceOps(core, bases, ops, true)
		} else {
			core.WriteSpans(bases, ops)
		}
	}
	e.AccessCycles += (afterReads - before) + (core.Now() - preWrites)

	if ev <= EvInvalid || int(ev) >= len(pl.next) {
		return p.stepEventErr(e, ev)
	}
	next := pl.next[ev]
	if next < 0 {
		return p.stepTransitionErr(e, ev)
	}
	if core.Tracer() != nil {
		traceEnd(core, pl.action, before, ev, next)
	}
	e.CS = next
	e.Prefetched = false
	if next == CSEnd {
		e.Done = true
	}
	return nil
}

// traceBegin stamps subsequent events with the control state and emits
// its TraceActionBegin. It and the other trace helpers are outlined so
// the untraced Step body stays small.
//
//go:noinline
func traceBegin(core *sim.Core, cs CSID, action ActionID) {
	core.SetCS(int32(cs))
	core.Emit(sim.TraceActionBegin, sim.CauseNone, uint64(action), 0, 0)
}

// traceEnd emits a completed step's TraceActionEnd (cycles since begin)
// and its TraceTransition.
//
//go:noinline
func traceEnd(core *sim.Core, action ActionID, begin uint64, ev EventID, next CSID) {
	core.Emit(sim.TraceActionEnd, sim.CauseNone, uint64(action), core.Now()-begin, 0)
	core.Emit(sim.TraceTransition, sim.CauseNone, uint64(ev), uint64(next), 0)
}

// traceOps is the traced form of one ReadSpans/WriteSpans phase: it
// charges the ops one at a time and follows each with a TraceAccess
// event attributing the op's stall cycles and L1/LLC misses to its
// base kind. A one-op ReadSpans is exactly Read(addr, size), so the
// charged sequence equals the untraced phase's. Only the three
// attributed counters are read around each op (Core.MissCounts), not
// a full Counters snapshot.
//
//go:noinline
func traceOps(core *sim.Core, bases *[8]uint64, ops []sim.PlanOp, write bool) {
	for i := range ops {
		stall0, l10, llc0 := core.MissCounts()
		if write {
			core.WriteSpans(bases, ops[i:i+1])
		} else {
			core.ReadSpans(bases, ops[i:i+1])
		}
		stall, l1, llc := core.MissCounts()
		core.Emit(sim.TraceAccess, sim.CauseNone, uint64(ops[i].Base), stall-stall0, (l1-l10)<<32|(llc-llc0))
	}
}

// PrefetchCurrent issues prefetches for the current CS's prefetch plan —
// the Prefetch step of Algorithm 1 — and marks the P-state. Prefetch
// trace events are emitted per line inside the core. The negative miss
// index tells IssueFetch the caller has no residency knowledge: every
// line takes the full probing path, exactly like PrefetchLine.
func (p *Program) PrefetchCurrent(e *Exec) {
	e.Prefetched = true
	if e.CS == CSEnd {
		return
	}
	if e.Core.Tracer() != nil {
		// Stamp prefetch events with the CS they are fetching for.
		e.Core.SetCS(int32(e.CS))
	}
	if pl := &p.plans[e.CS]; len(pl.fetch) > 0 {
		e.Core.IssueFetch(planBases(e, pl.bind, pl.fetchMask), pl.fetch, -1)
	}
}

// ResidentCurrent reports whether every span the current CS will access
// is already in L1 — the isPrefetched check against real cache contents
// used to maintain the P-state. Every plan line is probed through the
// core's L1 residency index.
func (p *Program) ResidentCurrent(e *Exec) bool {
	if e.CS == CSEnd {
		return true
	}
	pl := &p.plans[e.CS]
	return len(pl.fetch) == 0 || e.Core.FirstNonResident(planBases(e, pl.bind, pl.fetchMask), pl.fetch) < 0
}

// EnsurePrefetched fuses the scheduler's P-state maintenance visit: it
// verifies the current control state's plan lines are L1-resident and,
// when they are not, issues the full prefetch plan (all lines, resident
// or not — exactly what PrefetchCurrent does). It returns true when the
// task can execute immediately and false when the scheduler should
// switch away while the fills land. Either way the P-state is set.
//
// The fusion resolves the plan's base table once for both the check and
// the issue; the simulated sequence is identical to ResidentCurrent
// followed (on failure) by PrefetchCurrent, because residency probes
// charge nothing.
func (p *Program) EnsurePrefetched(e *Exec) bool {
	e.Prefetched = true
	if e.CS == CSEnd {
		return true
	}
	pl := &p.plans[e.CS]
	if len(pl.fetch) == 0 {
		return true
	}
	core := e.Core
	// Inline base fill — see Step for why.
	bases := &e.bases
	m := pl.fetchMask
	bind := pl.bind
	if m&(1<<BasePerFlow) != 0 {
		bases[BasePerFlow] = bind.PerFlow.AddrAt(e.FlowIdx)
	}
	if m&(1<<BaseSubFlow) != 0 {
		bases[BaseSubFlow] = bind.SubFlow.AddrAt(e.SubIdx)
	}
	if m&(1<<BasePacket) != 0 {
		bases[BasePacket] = e.Pkt.Addr
	}
	if m&(1<<BaseTemp) != 0 {
		bases[BaseTemp] = e.TempAddr
	}
	if m&(1<<BaseDynamic) != 0 {
		bases[BaseDynamic] = e.Cur.Addr
	}
	miss := core.FirstNonResident(bases, pl.fetch)
	if miss < 0 {
		return true
	}
	if core.Tracer() != nil {
		// Stamp prefetch events with the CS they are fetching for.
		core.SetCS(int32(e.CS))
	}
	// The issue reuses what the check just proved (see IssueFetch): ops
	// before miss are still resident and op miss is still absent, so the
	// charged sequence is identical to issuing the whole plan blind. The
	// returned max ready-cycle plus the core's eviction epoch form the
	// task's wakeup stamp: until the fill clock passes WakeAt with the
	// epoch unmoved, a scheduler revisit can skip the residency walk
	// outright. The rt wakeup scheduler consumes exactly this contract:
	// it parks the task until Core.Now() >= WakeAt, and on an epoch move
	// falls back to a real re-probe (clearing Prefetched) before
	// stepping.
	e.WakeAt = core.IssueFetch(bases, pl.fetch, miss)
	e.WakeEpoch = core.EvictionEpoch()
	return false
}

// stepEventErr builds the unknown-event diagnostic off the hot path.
//
//go:noinline
func (p *Program) stepEventErr(e *Exec, ev EventID) error {
	info := &p.cs[e.CS]
	act := &p.actions[info.Action]
	return fmt.Errorf("model: %s: action %s returned unknown event %d", info.Name, act.Name, ev)
}

// stepTransitionErr builds the missing-transition diagnostic off the
// hot path.
//
//go:noinline
func (p *Program) stepTransitionErr(e *Exec, ev EventID) error {
	info := &p.cs[e.CS]
	return fmt.Errorf("model: %s: no transition for event %q", info.Name, p.EventName(ev))
}
