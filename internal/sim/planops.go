package sim

// This file is the core-side executor for compiled step plans (see
// internal/model's plan compiler). Plans lower every declared access to
// a (base-table index, pre-added offset) pair; the loops that charge
// those accesses live here, on the Core, so one call per phase replaces
// one call per access and the cache pointers, clock and counters stay
// register-resident across a whole span list.
//
// The charged sequence is identical to calling Read/Write/Prefetch/
// ResidentL1 once per op in op order — the loops below are those calls
// inlined, nothing more.

// PlanOp is one compiled read or write: addr = bases[Base&7] + Off.
type PlanOp struct {
	Off  uint64
	Size uint64
	Base uint8
}

// FetchOp is one compiled prefetch/residency step: a pre-resolved
// single line (Line == true, Off is the line-start offset) or a span
// fallback for bases whose alignment is unknown at compile time.
type FetchOp struct {
	Off  uint64
	Size uint64
	Base uint8
	Line bool
}

// ReadSpans charges a demand read per op, exactly Read(addr, size) in
// op order.
func (c *Core) ReadSpans(bases *[8]uint64, ops []PlanOp) {
	l1 := c.l1
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		line := addr >> lineShift
		if (addr+op.Size-1)>>lineShift == line && op.Size != 0 && c.alog == nil {
			h := (line * fibMul) >> l1.shadowShift
			if slot := int(l1.shadow[h]) - 1; slot >= 0 && l1.lines[slot] == line<<1|1 {
				if f := &l1.fill[slot]; f.readyAt <= c.clock && !f.prefetched {
					c.ctr.Reads++
					c.ctr.Instructions++
					c.ctr.L1Hits++
					c.clock += c.cfg.L1.HitLatency
					l1.stamps[slot] = c.clock
					continue
				}
			}
		}
		c.burst(addr, op.Size, false)
	}
}

// WriteSpans charges a demand write per op, exactly Write(addr, size)
// in op order.
func (c *Core) WriteSpans(bases *[8]uint64, ops []PlanOp) {
	l1 := c.l1
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		line := addr >> lineShift
		if (addr+op.Size-1)>>lineShift == line && op.Size != 0 && c.alog == nil {
			h := (line * fibMul) >> l1.shadowShift
			if slot := int(l1.shadow[h]) - 1; slot >= 0 && l1.lines[slot] == line<<1|1 {
				if f := &l1.fill[slot]; f.readyAt <= c.clock && !f.prefetched {
					c.ctr.Writes++
					c.ctr.Instructions++
					c.ctr.L1Hits++
					c.clock += c.cfg.L1.HitLatency
					l1.stamps[slot] = c.clock
					continue
				}
			}
		}
		c.burst(addr, op.Size, true)
	}
}

// FirstNonResident returns the index of the first op whose lines are
// not all L1-resident, or -1 when the whole plan is resident. Residency
// probes charge nothing, exactly like ResidentL1.
func (c *Core) FirstNonResident(bases *[8]uint64, ops []FetchOp) int {
	l1 := c.l1
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		if op.Line {
			line := addr >> lineShift
			h := (line * fibMul) >> l1.shadowShift
			if s := int(l1.shadow[h]) - 1; s >= 0 && l1.lines[s] == line<<1|1 {
				continue
			}
			if l1.scanExact(line, h) < 0 {
				return i
			}
		} else if !c.ResidentL1(addr, op.Size) {
			return i
		}
	}
	return -1
}

// IssueFetch issues the whole fetch plan, exactly PrefetchLine /
// Prefetch per op in op order, and returns the latest fill-ready cycle
// among the lines it admitted (0 when every line was redundant or
// dropped) — the caller's fill-clock wakeup stamp. miss is the index
// FirstNonResident just returned (or a negative value when the caller
// has no residency knowledge): ops before it are still resident — the
// issue loop installs nothing before reaching op miss, and the clock
// alone never evicts — so their probes are skipped and the redundant
// path charged directly; op miss, when it is a single line, is likewise
// still absent and skips its guaranteed-miss probe. Ops after miss take
// the full probing path. The charged sequence is identical to issuing
// the plan blind.
func (c *Core) IssueFetch(bases *[8]uint64, ops []FetchOp, miss int) uint64 {
	var maxReady uint64
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		var r uint64
		if op.Line {
			line := addr >> lineShift
			if c.alog != nil {
				c.alog(MemAccess{Addr: line << lineShift, Size: LineBytes, Cycle: c.clock, Kind: AccessPrefetch})
			}
			c.clock += c.cfg.PrefetchIssueCost
			c.ctr.Instructions++
			if i < miss || i > miss && c.l1.find(line) >= 0 {
				c.ctr.PrefetchRedundant++
				if c.trc != nil {
					c.Emit(TracePrefetchRedundant, CauseNone, line<<lineShift, 0, 0)
				}
				continue
			}
			r = c.prefetchMiss(line)
		} else {
			r = c.prefetchSpan(addr, op.Size)
		}
		if r > maxReady {
			maxReady = r
		}
	}
	return maxReady
}
