package model

// The span-interpreting reference executor: every declared span is
// resolved through Resolve's base switch and charged with one
// Read/Write/Prefetch/ResidentL1 call, in declaration order. It is the
// oracle the differential-replay harness (differential_test.go)
// compares the compiled step plans against, untraced and traced. It
// lives in a _test.go file so production runs exactly one executor.

import (
	"fmt"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Resolve computes the concrete simulated address of a span for the
// given execution context — the per-span base switch the step plan
// compiles away.
func Resolve(s Span, bind *Binding, e *Exec) uint64 {
	switch s.Base {
	case BasePerFlow:
		return bind.PerFlow.MustAddr(int(e.FlowIdx)) + s.Off
	case BaseSubFlow:
		return bind.SubFlow.MustAddr(int(e.SubIdx)) + s.Off
	case BasePacket:
		return e.Pkt.Addr + s.Off
	case BaseControl:
		return bind.Control.Base + s.Off
	case BaseTemp:
		return e.TempAddr + s.Off
	case BaseDynamic:
		return e.Cur.Addr + s.Off
	default:
		panic(fmt.Sprintf("model: unresolvable span base %v", s.Base))
	}
}

// StepInterpreted is the span-interpreting reference executor: the
// original Step body, the behavioral oracle the differential-replay
// harness compares Step against. With a tracer attached it runs the
// traced form, stepTraced.
func (p *Program) StepInterpreted(e *Exec) error {
	if e.CS == CSEnd {
		e.Done = true
		return nil
	}
	if e.Core.Tracer() != nil {
		return p.stepTraced(e, &p.cs[e.CS])
	}
	return p.stepInterpreted(e)
}

func (p *Program) stepInterpreted(e *Exec) error {
	info := &p.cs[e.CS]
	core := e.Core

	before := core.Now()
	for _, s := range info.Reads {
		core.Read(Resolve(s, info.Bind, e), s.Size)
	}
	afterReads := core.Now()

	act := &p.actions[info.Action]
	core.Compute(act.Cost)
	ev := act.Fn(e)

	preWrites := core.Now()
	for _, s := range info.Writes {
		core.Write(Resolve(s, info.Bind, e), s.Size)
	}
	e.AccessCycles += (afterReads - before) + (core.Now() - preWrites)

	if ev <= EvInvalid || int(ev) >= len(info.Next) {
		return fmt.Errorf("model: %s: action %s returned unknown event %d", info.Name, act.Name, ev)
	}
	next := info.Next[ev]
	if next < 0 {
		return fmt.Errorf("model: %s: no transition for event %q", info.Name, p.EventName(ev))
	}
	e.CS = next
	e.Prefetched = false
	if next == CSEnd {
		e.Done = true
	}
	return nil
}

// stepTraced is the interpreted executor's traced form. It charges
// exactly the same simulated work in exactly the same order as
// stepInterpreted and additionally emits action, state-access and
// transition events with attribution stamps; Step must emit the same
// event stream (TestDifferentialReplayTraced).
func (p *Program) stepTraced(e *Exec, info *CSInfo) error {
	core := e.Core
	core.SetCS(int32(e.CS))
	begin := core.Now()
	core.Emit(sim.TraceActionBegin, sim.CauseNone, uint64(info.Action), 0, 0)

	before := core.Now()
	for _, s := range info.Reads {
		c0 := core.Counters()
		core.Read(Resolve(s, info.Bind, e), s.Size)
		d := core.Counters().Sub(c0)
		core.Emit(sim.TraceAccess, sim.CauseNone, uint64(s.Base), d.StallCycles, d.L1Misses<<32|d.LLCMisses)
	}
	afterReads := core.Now()

	act := &p.actions[info.Action]
	core.Compute(act.Cost)
	ev := act.Fn(e)

	preWrites := core.Now()
	for _, s := range info.Writes {
		c0 := core.Counters()
		core.Write(Resolve(s, info.Bind, e), s.Size)
		d := core.Counters().Sub(c0)
		core.Emit(sim.TraceAccess, sim.CauseNone, uint64(s.Base), d.StallCycles, d.L1Misses<<32|d.LLCMisses)
	}
	e.AccessCycles += (afterReads - before) + (core.Now() - preWrites)

	if ev <= EvInvalid || int(ev) >= len(info.Next) {
		return fmt.Errorf("model: %s: action %s returned unknown event %d", info.Name, act.Name, ev)
	}
	next := info.Next[ev]
	if next < 0 {
		return fmt.Errorf("model: %s: no transition for event %q", info.Name, p.EventName(ev))
	}
	core.Emit(sim.TraceActionEnd, sim.CauseNone, uint64(info.Action), core.Now()-begin, 0)
	core.Emit(sim.TraceTransition, sim.CauseNone, uint64(ev), uint64(next), 0)
	e.CS = next
	e.Prefetched = false
	if next == CSEnd {
		e.Done = true
	}
	return nil
}

// PrefetchCurrentInterpreted is the span-interpreting reference form of
// PrefetchCurrent, for differential replay.
func (p *Program) PrefetchCurrentInterpreted(e *Exec) {
	if e.CS == CSEnd {
		e.Prefetched = true
		return
	}
	if e.Core.Tracer() != nil {
		e.Core.SetCS(int32(e.CS))
	}
	p.prefetchInterpreted(e)
	e.Prefetched = true
}

func (p *Program) prefetchInterpreted(e *Exec) {
	info := &p.cs[e.CS]
	for _, s := range info.Prefetch {
		e.Core.Prefetch(Resolve(s, info.Bind, e), s.Size)
	}
}

// ResidentCurrentInterpreted is the span-interpreting reference form of
// ResidentCurrent, for differential replay.
func (p *Program) ResidentCurrentInterpreted(e *Exec) bool {
	if e.CS == CSEnd {
		return true
	}
	return p.residentInterpreted(e)
}

func (p *Program) residentInterpreted(e *Exec) bool {
	info := &p.cs[e.CS]
	for _, s := range info.Prefetch {
		if !e.Core.ResidentL1(Resolve(s, info.Bind, e), s.Size) {
			return false
		}
	}
	return true
}

func TestResolveBases(t *testing.T) {
	as := mem.NewAddressSpace()
	pf, err := mem.NewPool(as, "pf", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := mem.NewPool(as, "sf", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	bind := &Binding{PerFlow: pf, SubFlow: sf, Control: mem.Region{Base: 0x7000, Size: 64}}
	e := &Exec{
		Pkt:      &pkt.Packet{Addr: 0x9000},
		FlowIdx:  2,
		SubIdx:   3,
		TempAddr: 0xA000,
	}
	e.Cur.Addr = 0xB000

	tests := []struct {
		span Span
		want uint64
	}{
		{Span{BasePerFlow, 8, 8}, pf.MustAddr(2) + 8},
		{Span{BaseSubFlow, 0, 8}, sf.MustAddr(3)},
		{Span{BasePacket, 14, 4}, 0x9000 + 14},
		{Span{BaseControl, 4, 4}, 0x7004},
		{Span{BaseTemp, 16, 8}, 0xA010},
		{Span{BaseDynamic, 0, 64}, 0xB000},
	}
	for _, tt := range tests {
		if got := Resolve(tt.span, bind, e); got != tt.want {
			t.Errorf("Resolve(%+v) = %#x, want %#x", tt.span, got, tt.want)
		}
	}
}

func TestResolveInvalidBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resolve with invalid base did not panic")
		}
	}()
	Resolve(Span{Base: BaseKind(99)}, nil, &Exec{})
}
