package sim

import (
	"math/rand"
	"testing"
)

// This file pins the claim Core.Reset makes: a reset core is
// observationally identical to a freshly constructed one, bit for bit.
// Reset clears only the validity words and deliberately leaves stale
// stamps, fill words and shadow entries behind, relying on them being
// unreachable; these tests replay randomized op streams on
// dirty-then-reset cores against fresh cores (and the reference model)
// in lockstep and require identical clocks, counters, residency
// answers and access logs at every step.

// coreOp is one randomized public-API operation.
type coreOp struct {
	kind byte
	addr uint64
	size uint64
}

// genOps builds a deterministic op stream mixing the hot/mid/cold
// regions (hotMidCold), so streams exercise L1 hits, outer hits, DRAM
// fills, prefetch (including MSHR saturation), DMA fills, stalls and
// residency probes.
func genOps(seed int64, n int) []coreOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]coreOp, n)
	for i := range ops {
		a := hotMidCold(rng)
		ops[i] = coreOp{
			kind: byte(rng.Intn(10)),
			addr: a,
			size: uint64(1 + rng.Intn(96)),
		}
	}
	return ops
}

// apply runs one op on the core; for queries (residency probes, the
// MSHR horizon, the eviction epoch, plan probes and issues) it returns
// the answer so callers can compare across cores and against the
// reference model (applyRef in ref_test.go). genOps draws only kinds
// 0-9; the rest are opReset and up.
func apply(c *Core, op coreOp) uint64 {
	switch op.kind {
	case 0:
		c.Stall(17)
	case 1:
		c.Compute(op.size * 3)
	case 2:
		c.TaskSwitch()
	case 3:
		c.Prefetch(op.addr, op.size)
	case 4:
		c.PrefetchLine(op.addr)
	case 5:
		c.DMAFill(op.addr, op.size)
	case 6:
		return b2u(c.ResidentL1(op.addr, op.size))
	case 7:
		return b2u(c.ResidentL1Line(op.addr))
	case 8:
		c.Write(op.addr, op.size)
	case opReset:
		c.Reset()
	case opStallWake:
		c.StallWake(op.size)
	case opEarliestMSHR:
		return c.EarliestMSHRReady()
	case opEpoch:
		return c.EvictionEpoch()
	case opReadSpans:
		bases, _, spans := planOf(op)
		c.ReadSpans(&bases, spans)
	case opWriteSpans:
		bases, _, spans := planOf(op)
		c.WriteSpans(&bases, spans)
	case opFirstNonResident:
		bases, fetch, _ := planOf(op)
		return uint64(c.FirstNonResident(&bases, fetch) + 1)
	case opIssueFetch:
		// Issue with the miss index a fresh residency walk reports, as
		// model.EnsurePrefetched does, so the probe-skipping path runs.
		bases, fetch, _ := planOf(op)
		return c.IssueFetch(&bases, fetch, c.FirstNonResident(&bases, fetch))
	default:
		c.Read(op.addr, op.size)
	}
	return 0
}

// dirtyCore returns a core that has run `cycles` rounds of a polluting
// workload, each followed by Reset — so its stale (supposedly
// unreachable) words carry several generations of garbage.
func dirtyCore(t *testing.T, cfg Config, seed int64, cycles int) *Core {
	t.Helper()
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		for _, op := range genOps(seed+int64(i), 4000) {
			apply(c, op)
		}
		c.Reset()
	}
	return c
}

// lockstep replays ops on both cores, comparing clock and residency
// answers after every op and full counters periodically.
func lockstep(t *testing.T, label string, dirty, fresh *Core, ops []coreOp) {
	t.Helper()
	for i, op := range ops {
		dr := apply(dirty, op)
		fr := apply(fresh, op)
		if dr != fr {
			t.Fatalf("%s: op %d (%+v): residency answer diverged: reset-core %v, fresh %v", label, i, op, dr, fr)
		}
		if dn, fn := dirty.Now(), fresh.Now(); dn != fn {
			t.Fatalf("%s: op %d (%+v): clock diverged: reset-core %d, fresh %d", label, i, op, dn, fn)
		}
		if i%512 == 0 {
			if dc, fc := dirty.Counters(), fresh.Counters(); dc != fc {
				t.Fatalf("%s: op %d: counters diverged:\nreset-core %+v\nfresh      %+v", label, i, dc, fc)
			}
		}
	}
	if dc, fc := dirty.Counters(), fresh.Counters(); dc != fc {
		t.Fatalf("%s: final counters diverged:\nreset-core %+v\nfresh      %+v", label, dc, fc)
	}
}

// TestResetEquivalence replays a randomized op stream on a core that
// has been polluted and Reset (several times) against a fresh core,
// with the production fast paths active (no access log attached).
func TestResetEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	dirty := dirtyCore(t, cfg, 101, 3)
	fresh, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, "fastpath", dirty, fresh, genOps(202, 30000))
}

// TestResetEquivalenceAccessLog is the differential-replay form: both
// cores record their charged memory operations, and the two logs must
// be element-wise identical (addresses, sizes, kinds, and the cycle
// each was charged at).
func TestResetEquivalenceAccessLog(t *testing.T) {
	cfg := DefaultConfig()
	dirty := dirtyCore(t, cfg, 303, 2)
	fresh, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dlog, flog []MemAccess
	dirty.SetAccessLog(func(m MemAccess) { dlog = append(dlog, m) })
	fresh.SetAccessLog(func(m MemAccess) { flog = append(flog, m) })
	lockstep(t, "accesslog", dirty, fresh, genOps(404, 20000))
	if len(dlog) != len(flog) {
		t.Fatalf("access log length diverged: reset-core %d, fresh %d", len(dlog), len(flog))
	}
	for i := range dlog {
		if dlog[i] != flog[i] {
			t.Fatalf("access log entry %d diverged: reset-core %+v, fresh %+v", i, dlog[i], flog[i])
		}
	}
}

// TestResetEquivalenceScanTwin replays on a reset core against the
// reference model rather than a fresh core: zeroed validity words over
// stale stamps, fill words and shadow entries must behave exactly like
// the model's empty sets, slot for slot, with resets mid-stream.
func TestResetEquivalenceScanTwin(t *testing.T) {
	cfg := DefaultConfig()
	dirty := dirtyCore(t, cfg, 505, 2)
	ref := newRefCore(cfg)
	ref.epoch = dirty.EvictionEpoch()
	refLockstep(t, "reset-vs-reference", dirty, ref, genRefOps(606, 20000, hotMidCold), 2048)
}
