package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file is the simulator's test oracle: refCore, a deliberately
// naive reference model of Core written for obviousness rather than
// speed. Each level is a map from line to way plus per-set way arrays;
// the victim is the lowest-index invalid way, else the way with the
// smallest last-use cycle (ties to the lowest way). In-flight prefetch
// fills are a plain list, retired at each prefetch admission. It shares
// no lookup code with Core — no compact tags, no shadow index, no
// valid-prefix early exits, no lazy MSHR compaction — so running both
// in lockstep and comparing clocks, counters, eviction epochs and the
// per-slot contents of every level pins every host-side shortcut the
// real kernel takes.

// refWay is one way of a reference set.
type refWay struct {
	line  uint64
	valid bool
	stamp uint64
	ready uint64
	pref  bool
}

// refLevel is one reference cache level.
type refLevel struct {
	sets int
	way  [][]refWay
	at   map[uint64]int
}

func newRefLevel(cfg CacheConfig) *refLevel {
	l := &refLevel{sets: cfg.Sets(), at: map[uint64]int{}}
	l.way = make([][]refWay, l.sets)
	for i := range l.way {
		l.way[i] = make([]refWay, cfg.Ways)
	}
	return l
}

// lookup returns line's way, or nil when the line is not resident.
func (l *refLevel) lookup(line uint64) *refWay {
	w, ok := l.at[line]
	if !ok {
		return nil
	}
	return &l.way[line%uint64(l.sets)][w]
}

// install places line over the victim way and reports whether a valid
// line was displaced.
func (l *refLevel) install(line, now, ready uint64) (w *refWay, evicted bool) {
	set := l.way[line%uint64(l.sets)]
	v := -1
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
	}
	if v < 0 {
		v = 0
		for i := range set {
			if set[i].stamp < set[v].stamp {
				v = i
			}
		}
		delete(l.at, set[v].line)
		evicted = true
	}
	set[v] = refWay{line: line, valid: true, stamp: now, ready: ready}
	l.at[line] = v
	return &set[v], evicted
}

// refCore is the reference model of Core.
type refCore struct {
	cfg   Config
	clock uint64
	ctr   Counters
	l1    *refLevel
	l2    *refLevel
	llc   *refLevel
	// mshr holds the fill-ready cycles of admitted prefetches not yet
	// retired by an admission check.
	mshr  []uint64
	epoch uint64
}

func newRefCore(cfg Config) *refCore {
	r := &refCore{cfg: cfg}
	r.l1, r.l2, r.llc = newRefLevel(cfg.L1), newRefLevel(cfg.L2), newRefLevel(cfg.LLC)
	return r
}

func (r *refCore) install(l *refLevel, line, now, ready uint64) *refWay {
	w, evicted := l.install(line, now, ready)
	if evicted {
		r.epoch++
	}
	return w
}

func (r *refCore) reset() {
	epoch := r.epoch
	*r = *newRefCore(r.cfg)
	r.epoch = epoch + 1
}

func (r *refCore) counters() Counters {
	c := r.ctr
	c.Cycles = r.clock
	return c
}

func lineSpan(addr, size uint64) (first, last uint64) {
	return addr / LineBytes, (addr + size - 1) / LineBytes
}

func (r *refCore) compute(insts uint64) {
	r.ctr.Instructions += insts
	r.clock += (insts + r.cfg.IssueWidth - 1) / r.cfg.IssueWidth
}

func (r *refCore) stall(cycles uint64) {
	r.clock += cycles
	r.ctr.StallCycles += cycles
}

func (r *refCore) taskSwitch() {
	r.ctr.TaskSwitches++
	r.clock += r.cfg.SwitchCost
	r.ctr.Instructions += r.cfg.SwitchCost * r.cfg.IssueWidth / 2
}

// demand charges a Read or Write: every line of the span is one demand
// access; after the first line that misses L1, later misses in the
// same span overlap and pay at most BurstGap.
func (r *refCore) demand(addr, size uint64, write bool) {
	if size == 0 {
		return
	}
	first, last := lineSpan(addr, size)
	missed := false
	for line := first; line <= last; line++ {
		if write {
			r.ctr.Writes++
		} else {
			r.ctr.Reads++
		}
		r.ctr.Instructions++
		if r.access(line, missed) {
			missed = true
		}
	}
}

// waitFill stalls until an outer-level fill lands (a late prefetch).
func (r *refCore) waitFill(w *refWay) {
	if w.ready > r.clock {
		r.ctr.StallCycles += w.ready - r.clock
		r.ctr.PrefetchLate++
		r.clock = w.ready
	}
}

func (r *refCore) access(line uint64, overlapped bool) bool {
	if w := r.l1.lookup(line); w != nil {
		r.ctr.L1Hits++
		if w.ready > r.clock {
			r.ctr.StallCycles += w.ready - r.clock
			r.ctr.PrefetchLate++
			r.clock = w.ready
		} else if w.pref {
			r.ctr.PrefetchUseful++
		}
		w.pref = false
		r.clock += r.cfg.L1.HitLatency
		w.stamp = r.clock
		return false
	}
	r.ctr.L1Misses++
	var lat uint64
	if w := r.l2.lookup(line); w != nil {
		r.ctr.L2Hits++
		r.waitFill(w)
		lat = r.cfg.L2.HitLatency
		w.stamp = r.clock
	} else {
		r.ctr.L2Misses++
		if w := r.llc.lookup(line); w != nil {
			r.ctr.LLCHits++
			r.waitFill(w)
			lat = r.cfg.LLC.HitLatency
			w.stamp = r.clock
		} else {
			r.ctr.LLCMisses++
			lat = r.cfg.DRAMLatency
			r.install(r.llc, line, r.clock, r.clock)
		}
		r.install(r.l2, line, r.clock, r.clock)
	}
	if overlapped && lat > r.cfg.BurstGap {
		lat = r.cfg.BurstGap
	}
	r.clock += lat
	r.ctr.StallCycles += lat
	r.install(r.l1, line, r.clock, r.clock)
	return true
}

// prefetchLine returns the admitted fill's ready cycle, 0 otherwise.
func (r *refCore) prefetchLine(line uint64) uint64 {
	r.clock += r.cfg.PrefetchIssueCost
	r.ctr.Instructions++
	if r.l1.lookup(line) != nil {
		r.ctr.PrefetchRedundant++
		return 0
	}
	live := r.mshr[:0]
	for _, ready := range r.mshr {
		if ready > r.clock {
			live = append(live, ready)
		}
	}
	r.mshr = live
	if len(r.mshr) >= r.cfg.MSHRs {
		r.ctr.PrefetchDropped++
		return 0
	}
	var fill uint64
	switch {
	case r.l2.lookup(line) != nil:
		fill = r.cfg.L2.HitLatency
	case r.llc.lookup(line) != nil:
		fill = r.cfg.LLC.HitLatency
	default:
		fill = r.cfg.DRAMLatency
		r.install(r.llc, line, r.clock, r.clock+fill)
		r.install(r.l2, line, r.clock, r.clock+fill)
	}
	ready := r.clock + fill
	r.install(r.l1, line, r.clock, ready).pref = true
	r.mshr = append(r.mshr, ready)
	r.ctr.PrefetchIssued++
	return ready
}

func (r *refCore) prefetch(addr, size uint64) uint64 {
	var latest uint64
	if size == 0 {
		return 0
	}
	first, last := lineSpan(addr, size)
	for line := first; line <= last; line++ {
		if ready := r.prefetchLine(line); ready > latest {
			latest = ready
		}
	}
	return latest
}

func (r *refCore) dmaFill(addr, size uint64) {
	if size == 0 {
		return
	}
	first, last := lineSpan(addr, size)
	for line := first; line <= last; line++ {
		if r.llc.lookup(line) == nil {
			r.install(r.llc, line, r.clock, r.clock)
		}
	}
}

func (r *refCore) residentL1(addr, size uint64) bool {
	if size == 0 {
		return true
	}
	first, last := lineSpan(addr, size)
	for line := first; line <= last; line++ {
		if r.l1.lookup(line) == nil {
			return false
		}
	}
	return true
}

func (r *refCore) earliestMSHRReady() uint64 {
	var earliest uint64
	for i, ready := range r.mshr {
		if i == 0 || ready < earliest {
			earliest = ready
		}
	}
	return earliest
}

// The op kinds beyond genOps' basic ten (see apply): resets, the
// wakeup scheduler's hooks, and the batched plan executors.
const (
	opReset = iota + 10
	opStallWake
	opEarliestMSHR
	opEpoch
	opReadSpans
	opWriteSpans
	opFirstNonResident
	opIssueFetch
	opKinds
)

// planOf derives a small deterministic plan from an op: up to four
// fetch ops (pre-resolved lines and unaligned span fallbacks) and the
// matching read/write spans, all off base 0 = op.addr.
func planOf(op coreOp) (bases [8]uint64, fetch []FetchOp, spans []PlanOp) {
	bases[0] = op.addr
	n := 1 + int(op.size%4)
	for i := 0; i < n; i++ {
		off := uint64(i) * LineBytes * (1 + op.size%3)
		size := 1 + (op.size*uint64(i+1))%96
		fetch = append(fetch, FetchOp{Off: off, Size: size, Line: (op.size+uint64(i))%3 != 0})
		spans = append(spans, PlanOp{Off: off, Size: size})
	}
	return bases, fetch, spans
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// applyRef runs op on the reference model, returning the same answer
// apply returns for the real core.
func applyRef(r *refCore, op coreOp) uint64 {
	switch op.kind {
	case 0:
		r.stall(17)
	case 1:
		r.compute(op.size * 3)
	case 2:
		r.taskSwitch()
	case 3:
		r.prefetch(op.addr, op.size)
	case 4:
		r.prefetchLine(op.addr / LineBytes)
	case 5:
		r.dmaFill(op.addr, op.size)
	case 6:
		return b2u(r.residentL1(op.addr, op.size))
	case 7:
		return b2u(r.residentL1(op.addr, 1))
	case 8:
		r.demand(op.addr, op.size, true)
	case opReset:
		r.reset()
	case opStallWake:
		r.stall(op.size)
	case opEarliestMSHR:
		return r.earliestMSHRReady()
	case opEpoch:
		return r.epoch
	case opReadSpans, opWriteSpans:
		bases, _, spans := planOf(op)
		for _, s := range spans {
			r.demand(bases[0]+s.Off, s.Size, op.kind == opWriteSpans)
		}
	case opFirstNonResident:
		bases, fetch, _ := planOf(op)
		for i, f := range fetch {
			size := f.Size
			if f.Line {
				size = 1
			}
			if !r.residentL1(bases[0]+f.Off, size) {
				return uint64(i + 1)
			}
		}
		return 0
	case opIssueFetch:
		bases, fetch, _ := planOf(op)
		var latest uint64
		for _, f := range fetch {
			var ready uint64
			if f.Line {
				ready = r.prefetchLine((bases[0] + f.Off) / LineBytes)
			} else {
				ready = r.prefetch(bases[0]+f.Off, f.Size)
			}
			if ready > latest {
				latest = ready
			}
		}
		return latest
	default:
		r.demand(op.addr, op.size, false)
	}
	return 0
}

// slotLine recovers the line a valid slot holds from its compact tag
// and set index.
func slotLine(c *cache, slot int) uint64 {
	return uint64(c.tags[slot]>>1)<<c.setShift | uint64(slot/c.ways)
}

// compareRef checks clock, counters, eviction epoch, MSHR horizon and
// the per-slot contents of every level: the same line in the same way
// with the same last-use stamp and fill state, and on the L1 the
// per-slot line word that shadow-index hits are verified against.
func compareRef(c *Core, r *refCore) error {
	if c.Now() != r.clock {
		return fmt.Errorf("clock %d, reference %d", c.Now(), r.clock)
	}
	if c.Counters() != r.counters() {
		return fmt.Errorf("counters\ncore      %+v\nreference %+v", c.Counters(), r.counters())
	}
	if c.EvictionEpoch() != r.epoch {
		return fmt.Errorf("eviction epoch %d, reference %d", c.EvictionEpoch(), r.epoch)
	}
	if c.EarliestMSHRReady() != r.earliestMSHRReady() {
		return fmt.Errorf("earliest MSHR %d, reference %d", c.EarliestMSHRReady(), r.earliestMSHRReady())
	}
	for li, pair := range []struct {
		c *cache
		r *refLevel
	}{{c.l1, r.l1}, {c.l2, r.l2}, {c.llc, r.llc}} {
		lvl, ref := pair.c, pair.r
		valid := 0
		for slot, tag := range lvl.tags {
			w := &ref.way[slot/lvl.ways][slot%lvl.ways]
			if tag == 0 {
				if w.valid {
					return fmt.Errorf("level %d slot %d empty, reference holds line %d", li, slot, w.line)
				}
				continue
			}
			valid++
			line := slotLine(lvl, slot)
			f := lvl.fill[slot]
			if !w.valid || w.line != line || w.stamp != lvl.stamps[slot] || w.ready != f.readyAt || w.pref != f.prefetched {
				return fmt.Errorf("level %d slot %d: core line %d stamp %d ready %d pref %v, reference %+v",
					li, slot, line, lvl.stamps[slot], f.readyAt, f.prefetched, *w)
			}
			if lvl.exact && lvl.lines[slot] != line<<1|1 {
				return fmt.Errorf("level %d slot %d holds line %d but its shadow verification word is %#x", li, slot, line, lvl.lines[slot])
			}
		}
		if valid != len(ref.at) {
			return fmt.Errorf("level %d: %d valid slots, reference holds %d lines", li, valid, len(ref.at))
		}
	}
	return nil
}

// refLockstep replays ops on a core and a reference model, comparing
// every op's answer and the clock after each op, and the full state
// every `every` ops and at the end.
func refLockstep(t *testing.T, label string, c *Core, r *refCore, ops []coreOp, every int) {
	t.Helper()
	for i, op := range ops {
		if got, want := apply(c, op), applyRef(r, op); got != want {
			t.Fatalf("%s: op %d (%+v): answer %d, reference %d", label, i, op, got, want)
		}
		if c.Now() != r.clock {
			t.Fatalf("%s: op %d (%+v): clock %d, reference %d", label, i, op, c.Now(), r.clock)
		}
		if i%every == 0 {
			if err := compareRef(c, r); err != nil {
				t.Fatalf("%s: op %d (%+v): %v", label, i, op, err)
			}
		}
	}
	if err := compareRef(c, r); err != nil {
		t.Fatalf("%s: final: %v", label, err)
	}
}

// genRefOps is genOps over every op kind, resets included (rarely, so
// state builds up between them).
func genRefOps(seed int64, n int, space func(*rand.Rand) uint64) []coreOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]coreOp, n)
	for i := range ops {
		kind := byte(rng.Intn(opKinds))
		if kind == opReset && rng.Intn(40) != 0 {
			kind = 9
		}
		ops[i] = coreOp{kind: kind, addr: space(rng), size: uint64(1 + rng.Intn(96))}
	}
	return ops
}

// hotMidCold draws from the three regions genOps uses: a hot region
// smaller than L1, a mid region for L2/LLC residency, and a cold one
// far beyond the LLC.
func hotMidCold(rng *rand.Rand) uint64 {
	switch rng.Intn(3) {
	case 0:
		return uint64(rng.Intn(16 << 10))
	case 1:
		return 1<<22 + uint64(rng.Intn(1<<21))
	default:
		return 1<<30 + uint64(rng.Intn(1<<28))
	}
}

// TestReferenceModel drives the real Core and the reference model in
// lockstep over randomized streams of every public operation, on the
// default hierarchy and on a tiny one (2-way and 4-way levels of a few
// sets, two MSHRs, a non-power-of-two issue width) whose address space
// is a few times its capacity, so set conflicts, LRU ties, MSHR drops,
// late prefetches and DMA evictions happen on nearly every op.
func TestReferenceModel(t *testing.T) {
	tiny := DefaultConfig()
	tiny.L1 = CacheConfig{Name: "L1", SizeBytes: 4 * 2 * LineBytes, Ways: 2, HitLatency: 4}
	tiny.L2 = CacheConfig{Name: "L2", SizeBytes: 8 * 4 * LineBytes, Ways: 4, HitLatency: 14}
	tiny.LLC = CacheConfig{Name: "LLC", SizeBytes: 16 * 4 * LineBytes, Ways: 4, HitLatency: 50}
	tiny.MSHRs = 2
	tiny.IssueWidth = 3
	for _, tc := range []struct {
		name  string
		cfg   Config
		space func(*rand.Rand) uint64
		ops   int
		every int
	}{
		{"default", DefaultConfig(), hotMidCold, 60000, 4096},
		{"tiny", tiny, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(256 * LineBytes)) }, 60000, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				c, err := NewCore(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				refLockstep(t, fmt.Sprintf("seed %d", seed), c, newRefCore(tc.cfg), genRefOps(seed, tc.ops, tc.space), tc.every)
			}
		})
	}
}
