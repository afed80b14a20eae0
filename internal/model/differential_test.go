package model_test

// Differential replay: the compiled step-plan executor must drive the
// simulated core with exactly the access sequence the interpreted
// reference executor issues. This harness generates randomized programs
// — random state graphs, random declared spans over every base kind,
// aligned and unaligned pools — runs each stream through both executors
// on separate cores with the access log attached, and asserts the
// (addr, size, kind, cycle) sequences, the PMU counters, the clocks and
// the access-cycle accounting are identical.

import (
	"math/rand"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// diffPrograms is the number of randomized programs replayed. The
// acceptance bar for the harness is at least 100.
const diffPrograms = 128

// diffWorld is one generated program plus the shared simulated layout
// both executors resolve against.
type diffWorld struct {
	prog     *model.Program
	perFlow  *mem.Pool
	subFlow  *mem.Pool
	tempAddr uint64
	pktAddr  uint64
	dynBase  uint64
	dynSize  uint64
}

// diffResult is everything one executor side produced.
type diffResult struct {
	log          []sim.MemAccess
	ctr          sim.Counters
	clock        uint64
	accessCycles uint64
}

// randSpan draws a declared span for one base kind, sized to stay inside
// that base's backing storage and to sometimes straddle line boundaries.
func randSpan(rng *rand.Rand, base model.BaseKind, limit uint64) model.FieldRef {
	off := uint64(rng.Intn(int(limit)))
	max := limit - off
	if max > 96 {
		max = 96
	}
	size := 1 + uint64(rng.Intn(int(max)))
	return model.FieldRef{Explicit: &model.Span{Base: base, Off: off, Size: size}}
}

// buildRandomProgram generates one program over a fresh address space.
// Pool entry sizes are drawn from aligned and unaligned choices so the
// plan compiler's pre-split and span-fallback lowerings are both
// exercised.
func buildRandomProgram(t *testing.T, rng *rand.Rand) *diffWorld {
	t.Helper()
	as := mem.NewAddressSpace()
	if rng.Intn(2) == 0 {
		// Skew every later reservation off line alignment.
		as.Reserve(uint64(8+rng.Intn(48)), 8)
	}
	entrySizes := []uint64{96, 128, 256}
	perFlow, err := mem.NewPool(as, "pf", entrySizes[rng.Intn(len(entrySizes))], 64)
	if err != nil {
		t.Fatal(err)
	}
	var subFlow *mem.Pool
	if rng.Intn(4) != 0 {
		subSizes := []uint64{48, 64, 128}
		subFlow, err = mem.NewPool(as, "sf", subSizes[rng.Intn(len(subSizes))], 16)
		if err != nil {
			t.Fatal(err)
		}
	}
	control := mem.Region{Name: "ctl", Base: as.Reserve(512, uint64(8<<rng.Intn(4))), Size: 512}
	w := &diffWorld{
		perFlow:  perFlow,
		subFlow:  subFlow,
		tempAddr: as.Reserve(64, 64),
		pktAddr:  as.Reserve(2048, 64) + uint64(rng.Intn(3))*8,
		dynBase:  as.Reserve(4096, 64),
		dynSize:  4096,
	}

	bases := []struct {
		kind  model.BaseKind
		limit uint64
	}{
		{model.BasePerFlow, perFlow.EntrySize()},
		{model.BasePacket, 128},
		{model.BaseControl, control.Size},
		{model.BaseTemp, 64},
		{model.BaseDynamic, 256},
	}
	if subFlow != nil {
		bases = append(bases, struct {
			kind  model.BaseKind
			limit uint64
		}{model.BaseSubFlow, subFlow.EntrySize()})
	}
	randRefs := func(n int) []model.FieldRef {
		refs := make([]model.FieldRef, 0, n)
		for i := 0; i < rng.Intn(n+1); i++ {
			b := bases[rng.Intn(len(bases))]
			refs = append(refs, randSpan(rng, b.kind, b.limit))
		}
		return refs
	}

	b := model.NewBuilder("diff")
	b.AddModule("m", model.Binding{PerFlow: perFlow, SubFlow: subFlow, Control: control}, nil)
	e0 := b.Event("e0")
	e1 := b.Event("e1")
	nStates := 2 + rng.Intn(5)
	dynBase, dynSize := w.dynBase, w.dynSize
	for i := 0; i < nStates; i++ {
		stateIdx := uint64(i)
		b.AddState("m", stateName(i), model.Action{
			Name:   "a" + stateName(i),
			Kind:   model.ActionData,
			Cost:   uint64(rng.Intn(60)),
			Reads:  randRefs(3),
			Writes: randRefs(2),
			Fn: func(e *model.Exec) model.EventID {
				// Deterministic in Exec state only: both sides replay the
				// same visit sequence, so Temp/Seq/CS agree at every call.
				e.Temp[0]++
				e.Cur.Addr = dynBase + (e.Temp[0]*2654435761+e.Seq*97+stateIdx*131)%(dynSize-512)
				h := e.Temp[0]*0x9e3779b9 + e.Seq*31 + stateIdx*7
				if e.Temp[0] <= 32 && h%4 == 0 {
					return e0
				}
				return e1
			},
		})
	}
	for i := 0; i < nStates; i++ {
		// e1 always advances (guaranteeing termination once the action's
		// visit budget forces it); e0 jumps anywhere, loops included.
		next := model.EndName
		if i+1 < nStates {
			next = "m." + stateName(i+1)
		}
		b.AddTransition("m."+stateName(i), "e1", next)
		b.AddTransition("m."+stateName(i), "e0", "m."+stateName(rng.Intn(nStates)))
	}
	b.SetStart("m." + stateName(0))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w.prog = prog
	return w
}

func stateName(i int) string {
	return string(rune('A' + i))
}

// diffSide is one executor's entry points.
type diffSide struct {
	step     func(*model.Exec) error
	ensure   func(*model.Exec) bool
	resident func(*model.Exec) bool
	prefetch func(*model.Exec)
}

// replay runs the given number of packet streams through one executor
// side on a fresh core, logging every charged access.
func replay(t *testing.T, w *diffWorld, s diffSide, packets int) diffResult {
	return replayConfigured(t, w, s, packets, nil)
}

// replayConfigured is replay with a core-configuration hook applied
// before the first packet — the twin tests use it to attach a tracer
// or to park the eviction epoch at the edge of wraparound.
func replayConfigured(t *testing.T, w *diffWorld, s diffSide, packets int, configure func(*sim.Core)) diffResult {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if configure != nil {
		configure(core)
	}
	var res diffResult
	core.SetAccessLog(func(a sim.MemAccess) { res.log = append(res.log, a) })
	p := &pkt.Packet{Addr: w.pktAddr, Data: make([]byte, 128)}
	e := &model.Exec{Core: core, TempAddr: w.tempAddr}
	for seq := 0; seq < packets; seq++ {
		e.ResetStream(p, w.prog.Start(), uint64(seq))
		e.FlowIdx = int32(seq % w.perFlow.Count())
		if w.subFlow != nil {
			e.SubIdx = int32(seq % w.subFlow.Count())
		}
		e.Cur.Addr = w.dynBase
		e.Temp[0] = 0
		for visits := 0; !e.Done; visits++ {
			if visits > 4096 {
				t.Fatalf("stream did not terminate (program %s)", w.prog.Name())
			}
			if !e.Prefetched {
				// Alternate between the fused P-state visit and the split
				// resident/prefetch pair so both code paths are replayed.
				if (seq+visits)%2 == 0 {
					if !s.ensure(e) {
						core.TaskSwitch()
						continue
					}
				} else {
					if !s.resident(e) {
						s.prefetch(e)
						core.TaskSwitch()
						continue
					}
					e.Prefetched = true
				}
			}
			if err := s.step(e); err != nil {
				t.Fatalf("step: %v", err)
			}
			core.TaskSwitch()
		}
		res.accessCycles += e.AccessCycles
		e.AccessCycles = 0
	}
	res.ctr = core.Counters()
	res.clock = core.Now()
	return res
}

// sides returns the compiled and interpreted executor entry points for
// one generated program.
func sides(w *diffWorld) (compiled, interpreted diffSide) {
	compiled = diffSide{
		step:     w.prog.Step,
		ensure:   w.prog.EnsurePrefetched,
		resident: w.prog.ResidentCurrent,
		prefetch: w.prog.PrefetchCurrent,
	}
	interpreted = diffSide{
		step: w.prog.StepInterpreted,
		ensure: func(e *model.Exec) bool {
			// The reference expansion of EnsurePrefetched: residency
			// check, then (on a miss) the full prefetch issue. Either
			// way the P-state ends up set.
			if w.prog.ResidentCurrentInterpreted(e) {
				e.Prefetched = true
				return true
			}
			w.prog.PrefetchCurrentInterpreted(e)
			return false
		},
		resident: w.prog.ResidentCurrentInterpreted,
		prefetch: w.prog.PrefetchCurrentInterpreted,
	}
	return compiled, interpreted
}

// diffCompare asserts two replay results are bit-identical.
func diffCompare(t *testing.T, n int, label string, got, want diffResult) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Fatalf("program %d: %d accesses %s vs %d reference", n, len(got.log), label, len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("program %d access %d: %s %+v != reference %+v", n, i, label, got.log[i], want.log[i])
		}
	}
	if got.ctr != want.ctr {
		t.Fatalf("program %d counters: %s %+v != reference %+v", n, label, got.ctr, want.ctr)
	}
	if got.clock != want.clock {
		t.Fatalf("program %d clock: %s %d != reference %d", n, label, got.clock, want.clock)
	}
	if got.accessCycles != want.accessCycles {
		t.Fatalf("program %d access cycles: %s %d != reference %d", n, label, got.accessCycles, want.accessCycles)
	}
}

// TestDifferentialReplay replays randomized programs through the
// interpreted reference executor and the compiled plan executor and
// requires bit-identical access sequences, counters and clocks.
func TestDifferentialReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < diffPrograms; n++ {
		w := buildRandomProgram(t, rng)
		packets := 2 + rng.Intn(3)
		compiled, interpreted := sides(w)
		want := replay(t, w, interpreted, packets)
		diffCompare(t, n, "compiled", replay(t, w, compiled, packets), want)
	}
}

// stampTracer records the latest fill-ready cycle among the prefetches
// issued since max was last cleared.
type stampTracer struct{ max uint64 }

func (s *stampTracer) Event(ev sim.TraceEvent) {
	if ev.Kind == sim.TracePrefetchIssued && ev.B > s.max {
		s.max = ev.B
	}
}

// TestDifferentialReplayWakeupTwin pins the fill-clock wakeup stamp
// contract: every EnsurePrefetched miss must record WakeAt as the latest
// fill-ready cycle among the prefetches that very issue admitted (read
// back from the TracePrefetchIssued events) and WakeEpoch as the core's
// eviction epoch after the issue. The stamped run carries a tracer and
// must still be bit-identical to the interpreted reference.
func TestDifferentialReplayWakeupTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < diffPrograms/2; n++ {
		w := buildRandomProgram(t, rng)
		packets := 2 + rng.Intn(3)
		compiled, interpreted := sides(w)
		want := replay(t, w, interpreted, packets)
		var tr stampTracer
		stamped := compiled
		stamped.ensure = func(e *model.Exec) bool {
			tr.max = 0
			if compiled.ensure(e) {
				return true
			}
			if e.WakeAt != tr.max || e.WakeEpoch != e.Core.EvictionEpoch() {
				t.Fatalf("program %d: stamp (WakeAt %d, epoch %d), want (%d, %d)",
					n, e.WakeAt, e.WakeEpoch, tr.max, e.Core.EvictionEpoch())
			}
			return false
		}
		got := replayConfigured(t, w, stamped, packets, func(c *sim.Core) { c.SetTracer(&tr) })
		diffCompare(t, n, "compiled/stamped", got, want)
	}
}

// TestDifferentialReplayEpochWrap parks the eviction epoch at the edge
// of uint64 wraparound before replaying, so it wraps through zero
// mid-run. The epoch is a host-side validity horizon for wakeup stamps;
// wrapping must not change any simulated event — and the wrapped run
// must still match a run whose epoch started at zero.
func TestDifferentialReplayEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nearWrap := func(c *sim.Core) { c.SetEvictionEpoch(^uint64(0) - 3) }
	for n := 0; n < diffPrograms/4; n++ {
		w := buildRandomProgram(t, rng)
		packets := 2 + rng.Intn(3)
		compiled, interpreted := sides(w)
		want := replay(t, w, interpreted, packets)
		got := replayConfigured(t, w, compiled, packets, nearWrap)
		diffCompare(t, n, "compiled/epoch-wrap", got, want)
	}
}
