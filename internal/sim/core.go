package sim

import "fmt"

// Core is one simulated CPU core: a cycle clock, a private three-level
// cache hierarchy, a bounded asynchronous prefetcher, and a PMU.
//
// A Core is not safe for concurrent use; the runtime gives each worker
// its own Core, matching the paper's share-nothing per-core design.
type Core struct {
	cfg Config

	clock uint64
	l1    *cache
	l2    *cache
	llc   *cache
	ctr   Counters

	// outstanding holds readyAt cycles of in-flight prefetch fills; its
	// live entries (readyAt > clock) occupy MSHRs.
	outstanding []uint64
	// minReady is the earliest readyAt in outstanding; while the clock
	// is below it no entry can have expired, so the occupancy check is
	// a comparison instead of a compaction scan.
	minReady uint64

	// evictEpoch advances on Reset and on every install that displaces a
	// valid line at any level (the levels bump it through their epoch
	// pointer). Host-side only: it is the validity horizon recorded next
	// to every fill-clock wakeup stamp (model.Exec.WakeAt/WakeEpoch), so
	// a residency verdict taken at epoch E holds while the epoch reads E.
	evictEpoch uint64

	// trc, when non-nil, receives cycle-timestamped trace events;
	// curTask and curCS are the attribution stamps (see trace.go).
	// Every emission site is guarded by a nil check so the disabled
	// path costs one predictable branch and zero allocations.
	trc     Tracer
	curTask int32
	curCS   int32

	// alog, when non-nil, receives every charged memory operation (see
	// accesslog.go); the differential-replay harness uses it to prove
	// two executors issue byte-identical access sequences.
	alog func(MemAccess)

	// switchInsts is SwitchCost*IssueWidth/2, precomputed so TaskSwitch
	// avoids the multiply on the scheduler's hottest edge; switchCost
	// caches cfg.SwitchCost to keep TaskSwitch within the inlining
	// budget alongside its traced-path branch.
	switchInsts uint64
	switchCost  uint64
	// issueShift is log2(IssueWidth) when the width is a power of two
	// (issuePow2), letting Compute replace its division with a shift.
	issueShift uint
	issuePow2  bool
}

// NewCore builds a core from cfg, validating it first.
func NewCore(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	c := &Core{
		cfg:         cfg,
		l1:          newCache(cfg.L1, true),
		l2:          newCache(cfg.L2, false),
		llc:         newCache(cfg.LLC, false),
		outstanding: make([]uint64, 0, cfg.MSHRs),
		switchInsts: cfg.SwitchCost * cfg.IssueWidth / 2,
		switchCost:  cfg.SwitchCost,
		curTask:     -1,
		curCS:       -1,
	}
	if w := cfg.IssueWidth; w&(w-1) == 0 {
		c.issuePow2 = true
		for 1<<c.issueShift < w {
			c.issueShift++
		}
	}
	c.l1.epoch = &c.evictEpoch
	c.l2.epoch = &c.evictEpoch
	c.llc.epoch = &c.evictEpoch
	return c, nil
}

// Config returns the configuration the core was built with.
func (c *Core) Config() Config { return c.cfg }

// Now returns the current cycle count.
func (c *Core) Now() uint64 { return c.clock }

// Seconds converts the elapsed cycle count to simulated wall-clock time.
func (c *Core) Seconds() float64 { return float64(c.clock) / c.cfg.FreqHz }

// Counters returns a snapshot of the PMU block (Cycles kept in sync with
// the clock).
func (c *Core) Counters() Counters {
	ctr := c.ctr
	ctr.Cycles = c.clock
	return ctr
}

// EvictionEpoch returns the core's eviction epoch: a host-side counter
// advanced on Reset and whenever an install displaces a valid line at
// any level. A residency verdict recorded at epoch E (e.g. a wakeup
// stamp) is trivially still valid while the epoch reads E — no line
// left any level in between.
func (c *Core) EvictionEpoch() uint64 { return c.evictEpoch }

// SetEvictionEpoch forces the eviction epoch; a test hook for the
// epoch-wrap differential (the epoch is compared for equality only, so
// behavior must be identical across a wrap).
func (c *Core) SetEvictionEpoch(v uint64) { c.evictEpoch = v }

// StampValid reports whether a wakeup stamp recorded at the given
// eviction epoch is still trivially valid: the epoch is compared for
// equality only (wrap-safe), so any eviction since the stamp — which
// may have displaced a plan line the stamp vouched for — voids it.
func (c *Core) StampValid(epoch uint64) bool { return c.evictEpoch == epoch }

// Reset returns the core to its just-constructed state — clock,
// counters, caches and prefetch state — so one pooled core can run
// back-to-back experiments from a cold start. A reset displaces
// everything at once, so it advances the eviction epoch: stamps
// recorded before it must not validate after.
func (c *Core) Reset() {
	c.clock = 0
	c.ctr = Counters{}
	c.l1.invalidateAll()
	c.l2.invalidateAll()
	c.llc.invalidateAll()
	c.outstanding = c.outstanding[:0]
	c.minReady = 0
	c.curTask = -1
	c.curCS = -1
	c.evictEpoch++
}

// Compute charges insts simulated instructions of pure computation.
func (c *Core) Compute(insts uint64) {
	if insts == 0 {
		return
	}
	c.ctr.Instructions += insts
	if c.issuePow2 {
		c.clock += (insts + c.cfg.IssueWidth - 1) >> c.issueShift
	} else {
		c.clock += (insts + c.cfg.IssueWidth - 1) / c.cfg.IssueWidth
	}
}

// Stall advances the clock by cycles without retiring instructions; used
// for fixed overheads such as packet I/O batching costs.
func (c *Core) Stall(cycles uint64) {
	c.clock += cycles
	c.ctr.StallCycles += cycles
	if c.trc != nil {
		c.Emit(TraceStall, CauseFixed, cycles, 0, 0)
	}
}

// TaskSwitch charges the scheduler's NFTask switch cost. The emission
// is outlined (emitSwitch) to keep this on the inlining fast path.
func (c *Core) TaskSwitch() {
	c.ctr.TaskSwitches++
	c.clock += c.switchCost
	c.ctr.Instructions += c.switchInsts
	if c.trc != nil {
		c.emitSwitch()
	}
}

// emitSwitch is the cold traced tail of TaskSwitch.
//
//go:noinline
func (c *Core) emitSwitch() {
	c.Emit(TraceTaskSwitch, CauseNone, 0, 0, 0)
}

// StallWake advances the clock by cycles of scheduler idle time: every
// in-flight NFTask is parked on its fill clock, so the wakeup scheduler
// forwards the core to the earliest wakeup stamp instead of spinning
// probe laps. Attributed to CauseWakeWait so stall breakdowns separate
// "waiting for fills with nothing runnable" from fixed overheads.
func (c *Core) StallWake(cycles uint64) {
	c.clock += cycles
	c.ctr.StallCycles += cycles
	if c.trc != nil {
		c.Emit(TraceStall, CauseWakeWait, cycles, 0, 0)
	}
}

// EarliestMSHRReady returns the completion cycle of the earliest
// in-flight fill, or 0 when no fill is outstanding. Read-only: it never
// retires completed fills (the list is compacted only at the next
// prefetch admission), so it is safe mid-schedule. The wakeup scheduler
// uses it as the conservative horizon for a parked task whose stamp is
// empty (its prefetch issue was fully dropped for want of MSHRs): once
// any fill retires, capacity frees and progress resumes.
func (c *Core) EarliestMSHRReady() uint64 {
	if len(c.outstanding) == 0 {
		return 0
	}
	return c.minReady
}

// Read charges a demand read of size bytes at addr. The body is the
// exact L1 fast path: a single-line span that hits a completed,
// non-prefetched L1 line charges its counters inline — the identical
// updates the general path's access() would make — and everything else
// falls through to the full burst machinery.
func (c *Core) Read(addr, size uint64) {
	line := addr >> lineShift
	if (addr+size-1)>>lineShift == line && size != 0 && c.alog == nil {
		l1 := c.l1
		h := (line * fibMul) >> l1.shadowShift
		if slot := int(l1.shadow[h]) - 1; slot >= 0 && l1.lines[slot] == line<<1|1 {
			if f := &l1.fill[slot]; f.readyAt <= c.clock && !f.prefetched {
				c.ctr.Reads++
				c.ctr.Instructions++
				c.ctr.L1Hits++
				c.clock += c.cfg.L1.HitLatency
				l1.stamps[slot] = c.clock
				return
			}
		}
		// Shadow miss: the line may still be L1-resident behind a hash
		// collision — burst's full probe settles it identically.
	}
	c.burst(addr, size, false)
}

// Write charges a demand write of size bytes at addr. Writes allocate,
// so they follow the same path as reads, including the L1 fast path.
func (c *Core) Write(addr, size uint64) {
	line := addr >> lineShift
	if (addr+size-1)>>lineShift == line && size != 0 && c.alog == nil {
		l1 := c.l1
		h := (line * fibMul) >> l1.shadowShift
		if slot := int(l1.shadow[h]) - 1; slot >= 0 && l1.lines[slot] == line<<1|1 {
			if f := &l1.fill[slot]; f.readyAt <= c.clock && !f.prefetched {
				c.ctr.Writes++
				c.ctr.Instructions++
				c.ctr.L1Hits++
				c.clock += c.cfg.L1.HitLatency
				l1.stamps[slot] = c.clock
				return
			}
		}
	}
	c.burst(addr, size, true)
}

// burst touches every line in [addr, addr+size) as one demand burst:
// the first missing line pays full latency, subsequent missing lines in
// the same burst pay BurstGap (overlapped fills). Per-line counter
// bumps are hoisted out of the loop (the final totals are identical),
// and the dominant single-line case (spans <= 64 B) skips the loop.
func (c *Core) burst(addr, size uint64, write bool) {
	if c.alog != nil {
		kind := AccessRead
		if write {
			kind = AccessWrite
		}
		c.alog(MemAccess{Addr: addr, Size: size, Cycle: c.clock, Kind: kind})
	}
	if size == 0 {
		return
	}
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	lines := last - first + 1
	if write {
		c.ctr.Writes += lines
	} else {
		c.ctr.Reads += lines
	}
	c.ctr.Instructions += lines
	if first == last {
		c.access(first, false)
		return
	}
	missed := false
	for line := first; line <= last; line++ {
		if c.access(line, missed) {
			missed = true
		}
	}
}

// access charges one demand line access. overlapped marks that an earlier
// line in the same burst already paid a full miss. It reports whether
// this access missed L1 entirely (i.e. was not an L1 or in-flight hit).
//
// Each level is probed exactly once: the probe that misses also yields
// the install victim, which stays valid because nothing touches that
// set again before the install (only outer levels and the clock move).
func (c *Core) access(line uint64, overlapped bool) bool {
	slot, v1 := c.l1.probe(line)
	if slot >= 0 {
		// L1 demand hit — the simulator's hottest operation, kept flat
		// here (access cannot inline a helper carrying the prefetch
		// bookkeeping and stay profitable). Only prefetched or
		// in-flight lines take the outlined slow path.
		c.ctr.L1Hits++
		f := &c.l1.fill[slot]
		if f.readyAt > c.clock || f.prefetched {
			c.demandHitPrefetched(f)
		}
		c.clock += c.cfg.L1.HitLatency
		c.l1.stamps[slot] = c.clock
		return false
	}
	c.ctr.L1Misses++
	var lat uint64
	cause := CauseL2
	if slot, v2 := c.l2.probe(line); slot >= 0 {
		c.ctr.L2Hits++
		lat = c.waitReady(c.l2, slot, c.cfg.L2.HitLatency)
		c.l2.touch(slot, c.clock)
	} else {
		c.ctr.L2Misses++
		if slot, v3 := c.llc.probe(line); slot >= 0 {
			c.ctr.LLCHits++
			cause = CauseLLC
			lat = c.waitReady(c.llc, slot, c.cfg.LLC.HitLatency)
			c.llc.touch(slot, c.clock)
		} else {
			c.ctr.LLCMisses++
			cause = CauseDRAM
			lat = c.cfg.DRAMLatency
			c.llc.installAt(v3, line, c.clock, c.clock)
		}
		c.l2.installAt(v2, line, c.clock, c.clock)
	}
	if overlapped && lat > c.cfg.BurstGap {
		lat = c.cfg.BurstGap
	}
	c.clock += lat
	c.ctr.StallCycles += lat
	if c.trc != nil {
		c.Emit(TraceStall, cause, lat, line<<lineShift, 0)
	}
	c.l1.installAt(v1, line, c.clock, c.clock)
	return true
}

// demandHitPrefetched resolves a demand hit on a prefetched line:
// either the fill is still in flight (stall for the remainder — a late
// prefetch) or it completed and the prefetch was useful.
//
//go:noinline
func (c *Core) demandHitPrefetched(f *fillMeta) {
	if f.readyAt > c.clock {
		stall := f.readyAt - c.clock
		c.clock += stall
		c.ctr.StallCycles += stall
		c.ctr.PrefetchLate++
		f.prefetched = false
		if c.trc != nil {
			c.Emit(TraceStall, CausePrefetchLate, stall, 0, 0)
		}
	} else if f.prefetched {
		c.ctr.PrefetchUseful++
		f.prefetched = false
		if c.trc != nil {
			c.Emit(TracePrefetchUseful, CauseNone, 0, 0, 0)
		}
	}
}

// waitReady stalls until an outer-level slot's fill completes, then
// charges that level's hit latency; returns the total charged cycles
// minus the stall (stall is applied immediately). The stall branch is
// outlined (stallLate) to keep waitReady inlinable.
func (c *Core) waitReady(lvl *cache, slot int, hitLat uint64) uint64 {
	if ready := lvl.fill[slot].readyAt; ready > c.clock {
		c.stallLate(ready - c.clock)
	}
	return hitLat
}

// stallLate charges a wait for an in-flight fill to complete.
//
//go:noinline
func (c *Core) stallLate(stall uint64) {
	c.clock += stall
	c.ctr.StallCycles += stall
	c.ctr.PrefetchLate++
	if c.trc != nil {
		c.Emit(TraceStall, CausePrefetchLate, stall, 0, 0)
	}
}

// Prefetch issues non-blocking fills for every line of [addr, addr+size).
// Lines already in L1 are counted redundant; fills beyond the free MSHRs
// are dropped. Each accepted or redundant line charges the issue cost.
func (c *Core) Prefetch(addr, size uint64) {
	c.prefetchSpan(addr, size)
}

// prefetchSpan is Prefetch returning the latest fill-ready cycle among
// the lines it admitted (0 when none was admitted).
func (c *Core) prefetchSpan(addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	var maxReady uint64
	last := (addr + size - 1) >> lineShift
	for line := addr >> lineShift; line <= last; line++ {
		if r := c.prefetchLine(line); r > maxReady {
			maxReady = r
		}
	}
	return maxReady
}

// PrefetchLine issues a prefetch for the single cache line containing
// addr. It is the pre-resolved form the step-plan compiler lowers
// Prefetch spans into: Prefetch(addr, size) over an aligned span is
// exactly one PrefetchLine per covered line, in ascending order.
func (c *Core) PrefetchLine(addr uint64) {
	c.prefetchLine(addr >> lineShift)
}

// prefetchLine issues one line and returns its fill-ready cycle, or 0
// when the line was redundant or dropped.
func (c *Core) prefetchLine(line uint64) uint64 {
	if c.alog != nil {
		c.alog(MemAccess{Addr: line << lineShift, Size: LineBytes, Cycle: c.clock, Kind: AccessPrefetch})
	}
	c.clock += c.cfg.PrefetchIssueCost
	c.ctr.Instructions++
	if c.l1.find(line) >= 0 {
		c.ctr.PrefetchRedundant++
		if c.trc != nil {
			c.Emit(TracePrefetchRedundant, CauseNone, line<<lineShift, 0, 0)
		}
		return 0
	}
	return c.prefetchMiss(line)
}

// prefetchMiss is the tail of a prefetch issue for a line known absent
// from L1: MSHR admission, fill-latency determination and the installs.
// It returns the fill-ready cycle, or 0 when the prefetch was dropped.
func (c *Core) prefetchMiss(line uint64) uint64 {
	if c.activeMSHRs() >= c.cfg.MSHRs {
		c.ctr.PrefetchDropped++
		if c.trc != nil {
			c.Emit(TracePrefetchDropped, CauseNone, line<<lineShift, 0, 0)
		}
		return 0
	}
	// Fill latency depends on where the line currently lives. Victims
	// are picked lazily — only the levels actually installed into pay
	// the LRU pass, and redundant/dropped issues above pay none.
	var fill uint64
	if c.l2.find(line) >= 0 {
		fill = c.cfg.L2.HitLatency
	} else if c.llc.find(line) >= 0 {
		fill = c.cfg.LLC.HitLatency
	} else {
		fill = c.cfg.DRAMLatency
		c.llc.installAt(c.llc.victimOf(line), line, c.clock, c.clock+fill)
		c.l2.installAt(c.l2.victimOf(line), line, c.clock, c.clock+fill)
	}
	ready := c.clock + fill
	v1 := c.l1.victimOf(line)
	c.l1.installAt(v1, line, c.clock, ready)
	c.l1.fill[v1].prefetched = true
	if len(c.outstanding) == 0 || ready < c.minReady {
		c.minReady = ready
	}
	c.outstanding = append(c.outstanding, ready)
	c.ctr.PrefetchIssued++
	if c.trc != nil {
		c.Emit(TracePrefetchIssued, CauseNone, line<<lineShift, ready, 0)
	}
	return ready
}

// activeMSHRs returns the number of fills still in flight at the
// current clock. The outstanding list is compacted lazily: while the
// clock has not reached the earliest completion (minReady), every entry
// is still live and the check is a single comparison.
func (c *Core) activeMSHRs() int {
	if len(c.outstanding) == 0 {
		return 0
	}
	if c.clock < c.minReady {
		return len(c.outstanding)
	}
	live := c.outstanding[:0]
	next := ^uint64(0)
	for _, ready := range c.outstanding {
		if ready > c.clock {
			live = append(live, ready)
			if ready < next {
				next = ready
			}
		}
	}
	c.outstanding = live
	c.minReady = next
	return len(live)
}

// DMAFill installs the lines of [addr, addr+size) into the LLC without
// charging core cycles, modelling DDIO: the NIC DMA-writes received
// packet buffers into the last-level cache, so the core's first header
// access costs an LLC hit rather than a DRAM round trip.
func (c *Core) DMAFill(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	for line := first; line <= last; line++ {
		if slot, victim := c.llc.probe(line); slot < 0 {
			c.llc.installAt(victim, line, c.clock, c.clock)
		}
	}
}

// ResidentL1 reports whether every line of [addr, addr+size) is present
// in L1 (in-flight fills count as present). The scheduler uses this to
// maintain the NFTask P-state.
func (c *Core) ResidentL1(addr, size uint64) bool {
	if size == 0 {
		return true
	}
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	if first == last {
		return c.l1.find(first) >= 0
	}
	for line := first; line <= last; line++ {
		if c.l1.find(line) < 0 {
			return false
		}
	}
	return true
}

// ResidentL1Line reports whether the single line containing addr is
// present in L1 (in-flight fills count as present): one verified shadow
// probe in the common case, the pre-resolved form of ResidentL1 used by
// compiled step plans. The probe body is spelled out here (rather than
// delegating to the cache's find) so the call inlines into the
// scheduler's P-state check loop.
func (c *Core) ResidentL1Line(addr uint64) bool {
	line := addr >> lineShift
	l1 := c.l1
	h := (line * fibMul) >> l1.shadowShift
	if s := int(l1.shadow[h]) - 1; s >= 0 && l1.lines[s] == line<<1|1 {
		return true
	}
	return l1.scanExact(line, h) >= 0
}
