package model

import (
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// testEnv builds a minimal one-module program:
//
//	m.load  --go--> m.store --done--> End
//
// load reads 8 bytes of per-flow state, store writes 8 bytes.
type testEnv struct {
	prog *Program
	pool *mem.Pool
	core *sim.Core
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	as := mem.NewAddressSpace()
	pool, err := mem.NewPool(as, "flows", 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := mem.NewLayout(mem.Field{Name: "counter", Size: 8}, mem.Field{Name: "verdict", Size: 8})
	if err != nil {
		t.Fatal(err)
	}

	b := NewBuilder("test")
	b.AddModule("m", Binding{PerFlow: pool}, Layouts{KindPerFlow: layout})
	b.AddState("m", "load", Action{
		Name:  "load",
		Kind:  ActionData,
		Cost:  10,
		Reads: []FieldRef{Fields(KindPerFlow, "counter")},
		Fn: func(e *Exec) EventID {
			e.Temp[0]++
			return EventID(3) // "go", interned below as the first custom event
		},
	})
	b.AddState("m", "store", Action{
		Name:   "store",
		Kind:   ActionData,
		Cost:   5,
		Writes: []FieldRef{Fields(KindPerFlow, "verdict")},
		Fn: func(e *Exec) EventID {
			return EvDone
		},
	})
	if got := b.Event("go"); got != 3 {
		t.Fatalf("custom event id = %d, want 3", got)
	}
	b.AddTransition("m.load", "go", "m.store")
	b.AddTransition("m.store", "done", EndName)
	b.SetStart("m.load")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{prog: prog, pool: pool, core: core}
}

func newExec(env *testEnv) *Exec {
	e := &Exec{Core: env.core, TempAddr: 0x100}
	p := &pkt.Packet{Addr: 0x2000, WireLen: 64}
	e.ResetStream(p, env.prog.Start(), 0)
	e.FlowIdx = 3
	return e
}

func TestProgramStepRunsToEnd(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)

	steps := 0
	for !e.Done {
		if err := env.prog.Step(e); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 10 {
			t.Fatal("program did not terminate")
		}
	}
	if steps != 2 {
		t.Fatalf("steps = %d, want 2", steps)
	}
	ctr := env.core.Counters()
	if ctr.Reads != 1 || ctr.Writes != 1 {
		t.Fatalf("charged reads=%d writes=%d, want 1/1", ctr.Reads, ctr.Writes)
	}
	if ctr.Instructions < 15 {
		t.Fatalf("instructions = %d, want >= 15 (action costs)", ctr.Instructions)
	}
	if e.AccessCycles == 0 {
		t.Fatal("AccessCycles not accumulated")
	}
}

func TestStepChargesDeclaredSpanAddresses(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)
	if err := env.prog.Step(e); err != nil {
		t.Fatal(err)
	}
	// The read span resolves to pool entry 3's "counter" field; reading
	// it again now must be an L1 hit.
	addr := env.pool.MustAddr(3)
	base := env.core.Counters()
	env.core.Read(addr, 8)
	if d := env.core.Counters().Sub(base); d.L1Hits != 1 {
		t.Fatalf("per-flow line not warm after Step: %+v", d)
	}
}

func TestStepAtEndIsNoop(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)
	e.CS = CSEnd
	if err := env.prog.Step(e); err != nil {
		t.Fatal(err)
	}
	if !e.Done {
		t.Fatal("Step at End did not mark Done")
	}
}

func TestStepInvalidTransition(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)
	// Force the store state to emit an event with no transition by
	// corrupting the transition table.
	cs, err := env.prog.FindCS("m.store")
	if err != nil {
		t.Fatal(err)
	}
	info, err := env.prog.CS(cs)
	if err != nil {
		t.Fatal(err)
	}
	info.Next[EvDone] = -1
	e.CS = cs
	if err := env.prog.Step(e); err == nil {
		t.Fatal("missing transition not reported")
	} else if !strings.Contains(err.Error(), "no transition") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPrefetchCurrentAndResident(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)

	if env.prog.ResidentCurrent(e) {
		t.Fatal("cold state reported resident")
	}
	env.prog.PrefetchCurrent(e)
	if !e.Prefetched {
		t.Fatal("P-state not set by PrefetchCurrent")
	}
	if ctr := env.core.Counters(); ctr.PrefetchIssued == 0 {
		t.Fatal("no prefetch issued")
	}
	if !env.prog.ResidentCurrent(e) {
		t.Fatal("prefetched span not resident")
	}
	// Executing after the fill window must be an L1 hit.
	env.core.Compute(1000)
	base := env.core.Counters()
	if err := env.prog.Step(e); err != nil {
		t.Fatal(err)
	}
	if d := env.core.Counters().Sub(base); d.L1Misses != 0 {
		t.Fatalf("post-prefetch step missed: %+v", d)
	}
}

func TestPrefetchAtEndTrivial(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)
	e.CS = CSEnd
	env.prog.PrefetchCurrent(e)
	if !e.Prefetched || !env.prog.ResidentCurrent(e) {
		t.Fatal("End state must be trivially prefetched/resident")
	}
}

func TestProgramLookups(t *testing.T) {
	env := newTestEnv(t)
	p := env.prog
	if p.Name() != "test" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.NumCS() != 3 || p.NumActions() != 2 {
		t.Fatalf("NumCS=%d NumActions=%d", p.NumCS(), p.NumActions())
	}
	if _, err := p.FindCS("m.load"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FindCS("nope"); err == nil {
		t.Fatal("FindCS(nope) succeeded")
	}
	id, err := p.EventID("go")
	if err != nil || id != 3 {
		t.Fatalf("EventID(go) = %d, %v", id, err)
	}
	if _, err := p.EventID("nope"); err == nil {
		t.Fatal("EventID(nope) succeeded")
	}
	if p.EventName(EvPacket) != "packet" || p.EventName(99) == "" {
		t.Fatal("EventName misbehaved")
	}
	if _, err := p.CS(99); err == nil {
		t.Fatal("CS(99) succeeded")
	}
	if _, err := p.Action(99); err == nil {
		t.Fatal("Action(99) succeeded")
	}
	if p.TempLines() < 1 {
		t.Fatal("TempLines < 1")
	}
	if p.NumEvents() != 4 {
		t.Fatalf("NumEvents = %d, want 4", p.NumEvents())
	}
}

func TestBuilderErrors(t *testing.T) {
	noop := func(e *Exec) EventID { return EvDone }
	tests := []struct {
		name  string
		build func(b *Builder)
	}{
		{"duplicate module", func(b *Builder) {
			b.AddModule("m", Binding{}, nil)
			b.AddModule("m", Binding{}, nil)
		}},
		{"dotted module name", func(b *Builder) {
			b.AddModule("a.b", Binding{}, nil)
		}},
		{"state in unknown module", func(b *Builder) {
			b.AddState("ghost", "s", Action{Name: "a", Fn: noop})
		}},
		{"duplicate state", func(b *Builder) {
			b.AddModule("m", Binding{}, nil)
			b.AddState("m", "s", Action{Name: "a", Fn: noop})
			b.AddState("m", "s", Action{Name: "a", Fn: noop})
		}},
		{"nil Fn", func(b *Builder) {
			b.AddModule("m", Binding{}, nil)
			b.AddState("m", "s", Action{Name: "a"})
		}},
		{"empty state name", func(b *Builder) {
			b.AddModule("m", Binding{}, nil)
			b.AddState("m", "", Action{Name: "a", Fn: noop})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder("p")
			tt.build(b)
			b.SetStart("m.s")
			if _, err := b.Build(); err == nil {
				t.Fatal("Build succeeded despite invalid input")
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	noop := func(e *Exec) EventID { return EvDone }
	newOK := func() *Builder {
		b := NewBuilder("p")
		b.AddModule("m", Binding{}, nil)
		b.AddState("m", "s", Action{Name: "a", Fn: noop})
		b.AddTransition("m.s", "done", EndName)
		b.SetStart("m.s")
		return b
	}
	if _, err := newOK().Build(); err != nil {
		t.Fatalf("baseline build failed: %v", err)
	}

	b := newOK()
	b.SetStart("")
	if _, err := b.Build(); err == nil {
		t.Fatal("missing start accepted")
	}

	b = newOK()
	b.SetStart("m.ghost")
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown start accepted")
	}

	b = newOK()
	b.AddTransition("m.ghost", "done", EndName)
	if _, err := b.Build(); err == nil {
		t.Fatal("transition from unknown state accepted")
	}

	b = newOK()
	b.AddTransition("m.s", "done", "m.ghost")
	if _, err := b.Build(); err == nil {
		t.Fatal("transition to unknown state accepted")
	}

	b = newOK()
	b.AddTransition("End", "done", "m.s")
	if _, err := b.Build(); err == nil {
		t.Fatal("transition out of End accepted")
	}

	b = newOK()
	b.AddState("m", "t", Action{Name: "b", Fn: noop}) // no outgoing transition
	if _, err := b.Build(); err == nil {
		t.Fatal("state without exits accepted")
	}

	b = newOK()
	b.AddTransition("m.s", "done", "m.s") // conflicting duplicate
	if _, err := b.Build(); err == nil {
		t.Fatal("conflicting transitions accepted")
	}

	// Spans the step plan cannot execute: an out-of-range base, and a
	// pool base whose module binds no pool. The error names the CS.
	for name, ref := range map[string]FieldRef{
		"invalid base":      Raw(KindMatch, BaseKind(99), 0, 8),
		"nil per-flow pool": Raw(KindPerFlow, BasePerFlow, 0, 8),
		"nil sub-flow pool": Raw(KindSubFlow, BaseSubFlow, 0, 8),
	} {
		b = newOK()
		b.AddState("m", "bad", Action{Name: "bad", Fn: noop, Reads: []FieldRef{ref}})
		b.AddTransition("m.bad", "done", EndName)
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), "m.bad") {
			t.Errorf("%s: Build error %v, want one naming m.bad", name, err)
		}
	}
}

func TestBuilderUnknownLayoutField(t *testing.T) {
	b := NewBuilder("p")
	layout, err := mem.NewLayout(mem.Field{Name: "x", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	b.AddModule("m", Binding{}, Layouts{KindPerFlow: layout})
	b.AddState("m", "s", Action{
		Name:  "a",
		Reads: []FieldRef{Fields(KindPerFlow, "ghost")},
		Fn:    func(e *Exec) EventID { return EvDone },
	})
	b.AddTransition("m.s", "done", EndName)
	b.SetStart("m.s")
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown layout field accepted")
	}
}

func TestBuilderMissingLayout(t *testing.T) {
	b := NewBuilder("p")
	b.AddModule("m", Binding{}, nil)
	b.AddState("m", "s", Action{
		Name:  "a",
		Reads: []FieldRef{Fields(KindPerFlow, "x")},
		Fn:    func(e *Exec) EventID { return EvDone },
	})
	b.AddTransition("m.s", "done", EndName)
	b.SetStart("m.s")
	if _, err := b.Build(); err == nil {
		t.Fatal("missing layout accepted")
	}
}

func TestCoalesce(t *testing.T) {
	tests := []struct {
		name string
		in   []Span
		want int
	}{
		{"empty", nil, 0},
		{"single", []Span{{BasePerFlow, 0, 8}}, 1},
		{"adjacent same line", []Span{{BasePerFlow, 0, 8}, {BasePerFlow, 8, 8}}, 1},
		{"gap same line", []Span{{BasePerFlow, 0, 8}, {BasePerFlow, 48, 8}}, 1},
		{"different lines", []Span{{BasePerFlow, 0, 8}, {BasePerFlow, 128, 8}}, 2},
		{"different bases", []Span{{BasePerFlow, 0, 8}, {BasePacket, 0, 8}}, 2},
		{"unsorted merge", []Span{{BasePerFlow, 48, 8}, {BasePerFlow, 0, 8}}, 1},
		{"overlap", []Span{{BasePerFlow, 0, 16}, {BasePerFlow, 8, 16}}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := coalesce(append([]Span(nil), tt.in...))
			if len(got) != tt.want {
				t.Fatalf("coalesce(%v) = %v, want %d spans", tt.in, got, tt.want)
			}
		})
	}
}

func TestCoalesceCoversInputs(t *testing.T) {
	in := []Span{{BasePerFlow, 0, 8}, {BasePerFlow, 48, 16}}
	got := coalesce(append([]Span(nil), in...))
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	if got[0].Off != 0 || got[0].Size != 64 {
		t.Fatalf("merged span = %+v, want [0,64)", got[0])
	}
}

func TestResetStream(t *testing.T) {
	e := &Exec{FlowIdx: 5, SubIdx: 6, Key: 7, Done: true, Prefetched: true}
	p := &pkt.Packet{}
	e.ResetStream(p, 4, 42)
	if e.FlowIdx != -1 || e.SubIdx != -1 || e.Key != 0 || e.Done || e.Prefetched {
		t.Fatalf("ResetStream left state: %+v", e)
	}
	if e.CS != 4 || e.Seq != 42 || e.Pkt != p {
		t.Fatalf("ResetStream did not set fields: %+v", e)
	}
	if e.Cur.Idx != -1 {
		t.Fatalf("cursor not reset: %+v", e.Cur)
	}
}

func TestKindAndBaseStrings(t *testing.T) {
	kinds := []StateKind{KindMatch, KindPerFlow, KindSubFlow, KindPacket, KindControl, KindTemp, StateKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty String for %d", int(k))
		}
	}
	bases := []BaseKind{BasePerFlow, BaseSubFlow, BasePacket, BaseControl, BaseTemp, BaseDynamic, BaseKind(99)}
	for _, b := range bases {
		if b.String() == "" {
			t.Fatalf("empty String for %d", int(b))
		}
	}
	acts := []ActionKind{ActionMatch, ActionData, ActionConfig, ActionKind(99)}
	for _, a := range acts {
		if a.String() == "" {
			t.Fatalf("empty String for %d", int(a))
		}
	}
}

func TestEventInterningIdempotent(t *testing.T) {
	b := NewBuilder("p")
	a := b.Event("x")
	if b.Event("x") != a {
		t.Fatal("re-interning changed id")
	}
	if b.Event("packet") != EvPacket || b.Event("done") != EvDone {
		t.Fatal("builtin events not pre-interned")
	}
}
