package sim

// cache is one set-associative level with LRU replacement. Slots carry a
// readyAt timestamp so asynchronously prefetched lines can be installed
// immediately (creating realistic occupancy pressure) while still stalling
// accesses that arrive before the fill completes.
//
// Host-side layout: tags are compact uint32s (only the line bits above
// the set index — the rest is implied by the set), so a full 16-way
// set's tags fit in one host cache line and the scan kernels walk
// contiguous memory. The per-way LRU stamp and fill bookkeeping live in
// parallel meta arrays touched only on hits, installs and the full-set
// LRU pass.
//
// Lookups are chosen per level at construction:
//
//   - exact levels (the L1): a line→slot shadow index keyed by a full
//     line hash, verified against the per-slot line number, written on
//     every install and self-healed on every scan hit. A verified
//     shadow hit is exact (slot s holds line iff lines[s] == line<<1|1,
//     validity packed into the value), so the L1 hit path and residency
//     probes — the scheduler's most frequent questions — are one
//     load-and-compare with no way scan. Only shadow collisions and
//     true misses fall to the dense set scan. The shadow needs no
//     maintenance on eviction: a stale entry fails verification and is
//     overwritten by the next install or scan hit. Sized at 4× the line
//     capacity (8 KiB for the default 32 KiB L1), it stays hot in the
//     host's own cache.
//
//   - scanned levels (L2, LLC): a fused compact-tag scan of the line's
//     set, nothing else. A full set's tags fit one host cache line and
//     the scan exits early at the first invalid way, so a probe costs a
//     single host memory touch and yields both the hit slot and the
//     install victim. Only L1 misses reach these levels and their
//     probes are mostly cold (random sets); a line-keyed directory or
//     per-set hint table in front of them adds a second host miss per
//     probe and measured slower end to end (see DESIGN.md).
//
// Neither strategy changes simulated behavior: a line occupies at most
// one way of its set, so however the slot is found it is the same slot
// a full scan would find, and the victim policy (lowest invalid way,
// else strictly-oldest LRU stamp) is shared.
type cache struct {
	cfg     CacheConfig
	sets    int
	ways    int
	setMask uint64
	// setShift is log2(sets): how far to shift a line to get its tag.
	setShift uint
	// tags[set*ways+way] holds tag<<1|1 (bit 0 = valid); 0 means invalid.
	tags []uint32
	// stamps[set*ways+way] is the slot's last-use clock, kept dense so
	// the full-set LRU pass walks one or two host cache lines.
	stamps []uint64
	// fill[set*ways+way] is the slot's fill bookkeeping, touched only on
	// hits and installs.
	fill []fillMeta
	// epoch is the owning core's eviction epoch, bumped by every install
	// that displaces a valid line (a private counter on standalone
	// caches).
	epoch *uint64
	// exact selects the shadow-index strategy; when false lookups scan
	// and shadow/lines stay nil.
	exact bool
	// lines[set*ways+way] holds the slot's resident line as line<<1|1
	// (0 = empty), the verification target for shadow probes. Packing
	// validity into the value makes verification one load: an empty
	// slot holds 0, which no vline equals. Exact levels only.
	lines []uint64
	// shadow[hash(line)] holds slot+1 (0 = unset), last-writer-wins.
	// Exact levels only.
	shadow []int32
	// shadowShift maps a Fibonacci-hashed line's top bits onto shadow.
	shadowShift uint
}

// fillMeta is the fill state of one cache slot.
type fillMeta struct {
	// readyAt is the cycle at which the line's fill completes; accesses
	// earlier than this stall for the remainder.
	readyAt uint64
	// prefetched marks lines installed by a prefetch that have not yet
	// served a demand access, for PMU efficacy accounting.
	prefetched bool
}

// fibMul is the 64-bit Fibonacci hashing multiplier used to spread line
// numbers over the shadow index.
const fibMul = 0x9e3779b97f4a7c15

func newCache(cfg CacheConfig, exact bool) *cache {
	sets := cfg.Sets()
	n := sets * cfg.Ways
	shift := uint(0)
	for 1<<shift < sets {
		shift++
	}
	c := &cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: shift,
		tags:     make([]uint32, n),
		stamps:   make([]uint64, n),
		fill:     make([]fillMeta, n),
		epoch:    new(uint64),
		exact:    exact,
	}
	if exact {
		size := 1
		for size < n*4 {
			size <<= 1
		}
		c.lines = make([]uint64, n)
		c.shadow = make([]int32, size)
		sshift := uint(64)
		for 1<<(64-sshift) < size {
			sshift--
		}
		c.shadowShift = sshift
	}
	return c
}

// tagOf packs line into its stored tag. Compact tags require line
// numbers below 2^31 × sets (petabytes of address space); tagOf panics
// rather than aliasing if a workload ever exceeds that.
func (c *cache) tagOf(line uint64) uint32 {
	t := line >> c.setShift
	if t >= 1<<31 {
		panic("sim: line address too large for compact cache tags")
	}
	return uint32(t)<<1 | 1
}

// find returns the slot of line, or -1. Exact levels answer shadow hits
// with one verified probe and fall to the set scan otherwise; scanned
// levels scan the set's dense tags directly. An invalid tag ends any
// scan early because valid ways always form a prefix of the set:
// installs fill the lowest-index invalid way and lines are never
// invalidated individually (only invalidateAll).
func (c *cache) find(line uint64) int {
	if c.exact {
		h := (line * fibMul) >> c.shadowShift
		if s := int(c.shadow[h]) - 1; s >= 0 && c.lines[s] == line<<1|1 {
			return s
		}
		return c.scanExact(line, h)
	}
	base := int(line&c.setMask) * c.ways
	want := c.tagOf(line)
	tags := c.tags[base : base+c.ways]
	for w, tag := range tags {
		if tag == want {
			return base + w
		}
		if tag == 0 {
			return -1
		}
	}
	return -1
}

// scanExact is the exact-level fallback scan after a shadow miss at
// hash position h: a dense tag scan of line's set, repairing the shadow
// entry on a hit so a collision-evicted shortcut heals itself.
func (c *cache) scanExact(line uint64, h uint64) int {
	base := int(line&c.setMask) * c.ways
	want := c.tagOf(line)
	tags := c.tags[base : base+c.ways]
	for w, tag := range tags {
		if tag == want {
			s := base + w
			c.shadow[h] = int32(s + 1)
			return s
		}
		if tag == 0 {
			return -1
		}
	}
	return -1
}

// probe returns the hit slot of line (or -1) and the victim slot an
// install into line's set would use (-1 on a hit). The victim choice is
// exactly the install policy: the lowest-index invalid way if one
// exists, else the way with the strictly smallest LRU stamp (ties to
// the lowest index). The LRU stamp pass runs only on a miss in a full
// set — the one case that actually evicts.
func (c *cache) probe(line uint64) (slot, victim int) {
	base := int(line&c.setMask) * c.ways
	if c.exact {
		h := (line * fibMul) >> c.shadowShift
		if s := int(c.shadow[h]) - 1; s >= 0 && c.lines[s] == line<<1|1 {
			return s, -1
		}
		want := c.tagOf(line)
		tags := c.tags[base : base+c.ways]
		for w, tag := range tags {
			if tag == want {
				s := base + w
				c.shadow[h] = int32(s + 1)
				return s, -1
			}
			if tag == 0 {
				// Valid ways are a prefix (see find), so no hit lies
				// beyond and this is the lowest-index invalid way.
				return -1, base + w
			}
		}
		return -1, c.lruOf(base)
	}
	want := c.tagOf(line)
	tags := c.tags[base : base+c.ways]
	for w, tag := range tags {
		if tag == want {
			return base + w, -1
		}
		if tag == 0 {
			return -1, base + w
		}
	}
	return -1, c.lruOf(base)
}

// victimOf picks the install victim in line's set without probing for a
// hit: the lowest-index invalid way (valid ways form a prefix: installs
// fill the lowest invalid way and lines are never invalidated
// individually), else the LRU way. Identical to the victim probe()
// returns on a miss. The prefix invariant makes "set full" one load —
// the highest way's tag — so the steady-state case goes straight to the
// LRU pass without scanning for a free way that cannot exist.
func (c *cache) victimOf(line uint64) int {
	base := int(line&c.setMask) * c.ways
	if c.tags[base+c.ways-1] != 0 {
		return c.lruOf(base)
	}
	tags := c.tags[base : base+c.ways]
	for w, tag := range tags {
		if tag == 0 {
			return base + w
		}
	}
	return c.lruOf(base)
}

// lruOf returns the slot with the strictly smallest LRU stamp in the
// full set starting at base (ties to the lowest index).
func (c *cache) lruOf(base int) int {
	victim := base
	oldest := c.stamps[base]
	for s := base + 1; s < base+c.ways; s++ {
		if st := c.stamps[s]; st < oldest {
			oldest = st
			victim = s
		}
	}
	return victim
}

// touch records a use of slot at the given clock for LRU ordering.
func (c *cache) touch(slot int, now uint64) {
	c.stamps[slot] = now
}

// install places line into its set, evicting the LRU way if needed, and
// returns the slot. readyAt is the cycle the fill completes (== now for
// demand fills, later for prefetch fills).
func (c *cache) install(line, now, readyAt uint64) int {
	slot, victim := c.probe(line)
	if slot < 0 {
		slot = victim
	}
	c.installAt(slot, line, now, readyAt)
	return slot
}

// installAt fills a victim slot previously returned by probe or
// victimOf, keeping the lookup shortcut current: exact levels record the
// slot's new line and point its shadow entry here (the evicted line's
// entry needs no cleanup — it fails verification from now on).
// Displacing a valid line advances the eviction epoch. The caller
// guarantees no install or touch hit this set between the victim choice
// and the fill, so the choice is still current.
func (c *cache) installAt(slot int, line, now, readyAt uint64) {
	if c.tags[slot] != 0 {
		*c.epoch++
	}
	if c.exact {
		c.lines[slot] = line<<1 | 1
		c.shadow[(line*fibMul)>>c.shadowShift] = int32(slot + 1)
	}
	c.tags[slot] = c.tagOf(line)
	c.stamps[slot] = now
	c.fill[slot] = fillMeta{readyAt: readyAt}
}

// invalidateAll empties the level; used by Core.Reset. Only the
// validity words are cleared: stale stamps are read solely by the LRU
// pass over a full set (every way re-installed, and so re-stamped,
// since), stale fill words solely for a slot a lookup just resolved
// (re-installed since, which rewrites them), and stale shadow entries
// fail verification against the cleared lines. The reset-vs-fresh and
// reference-model tests pin the equivalence.
func (c *cache) invalidateAll() {
	clear(c.tags)
	clear(c.lines)
}
