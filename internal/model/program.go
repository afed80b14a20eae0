package model

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/mem"
)

// CSID identifies a control state within a Program. CSEnd (0) is the
// terminal state every stream finishes in.
type CSID int32

// CSEnd is the terminal control state.
const CSEnd CSID = 0

// ActionID indexes a Program's action table.
type ActionID int32

// Binding resolves a module's state bases: which pools its per-flow and
// sub-flow spans index into and where its control state lives. Modules
// composed into one SFC may share bindings (after redundant-matching
// removal they must, for the reused match result to be meaningful).
type Binding struct {
	// PerFlow is the module's per-flow datablock pool.
	PerFlow *mem.Pool
	// SubFlow is the module's sub-flow datablock pool (may be nil).
	SubFlow *mem.Pool
	// Control is the module's control-state region.
	Control mem.Region
}

// CSInfo is one compiled control state: the fetching function F
// evaluated at compile time — which action runs here, which spans it
// touches, what to prefetch, and where each event leads.
type CSInfo struct {
	// Name is "module.state" for diagnostics and spec round-trips.
	Name string
	// Module is the owning module name.
	Module string
	// Action indexes the program's action table.
	Action ActionID
	// Reads and Writes are the compiled access spans, charged on every
	// execution of this CS.
	Reads, Writes []Span
	// Prefetch is what the interleaved scheduler prefetches before
	// executing this CS. It starts as the union of Reads and Writes and
	// may shrink under redundant-prefetch removal.
	Prefetch []Span
	// Next maps EventID to the successor CS; entries of -1 are invalid
	// transitions.
	Next []CSID
	// Bind resolves this CS's span bases.
	Bind *Binding
}

// Program is a compiled network function or service function chain:
// the control-state table, the action table, and the interned events.
type Program struct {
	name    string
	cs      []CSInfo
	actions []Action
	events  []string
	start   CSID
	// tempLines is the number of cache lines of per-task scratch the
	// program requires (the NFTask temp field allocation).
	tempLines int
	// plans holds each control state lowered into its compiled step plan
	// (see plan.go); indexed by CSID, entry 0 (End) unused. Compiler
	// passes that mutate CSInfo span sets via CS() must re-run
	// CompilePlans afterwards.
	plans []stepPlan
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Start returns the initial control state.
func (p *Program) Start() CSID { return p.start }

// NumCS returns the number of control states (including End).
func (p *Program) NumCS() int { return len(p.cs) }

// NumActions returns the size of the action table.
func (p *Program) NumActions() int { return len(p.actions) }

// TempLines returns the per-task scratch requirement in cache lines.
func (p *Program) TempLines() int { return p.tempLines }

// CS returns the control state record for id. The returned pointer
// aliases program state; compiler passes mutate it in place.
func (p *Program) CS(id CSID) (*CSInfo, error) {
	if id < 0 || int(id) >= len(p.cs) {
		return nil, fmt.Errorf("model: CS %d out of range [0,%d)", id, len(p.cs))
	}
	return &p.cs[id], nil
}

// Action returns the action table entry for id.
func (p *Program) Action(id ActionID) (*Action, error) {
	if id < 0 || int(id) >= len(p.actions) {
		return nil, fmt.Errorf("model: action %d out of range [0,%d)", id, len(p.actions))
	}
	return &p.actions[id], nil
}

// FindCS looks a control state up by its "module.state" name.
func (p *Program) FindCS(name string) (CSID, error) {
	for i := range p.cs {
		if p.cs[i].Name == name {
			return CSID(i), nil
		}
	}
	return 0, fmt.Errorf("model: no control state %q", name)
}

// EventID returns the interned id of an event name.
func (p *Program) EventID(name string) (EventID, error) {
	for i, n := range p.events {
		if n == name {
			return EventID(i), nil
		}
	}
	return 0, fmt.Errorf("model: no event %q", name)
}

// EventName returns the name of an interned event.
func (p *Program) EventName(id EventID) string {
	if id < 0 || int(id) >= len(p.events) {
		return fmt.Sprintf("event(%d)", id)
	}
	return p.events[id]
}

// NumEvents returns the number of interned events.
func (p *Program) NumEvents() int { return len(p.events) }

// Validate checks structural soundness: every transition targets an
// existing CS, every CS has a valid action and executable spans, the
// start state exists, and End is reachable from the start.
func (p *Program) Validate() error {
	if p.start <= CSEnd || int(p.start) >= len(p.cs) {
		return fmt.Errorf("model: program %s: invalid start state %d", p.name, p.start)
	}
	for i := 1; i < len(p.cs); i++ {
		info := &p.cs[i]
		if info.Action < 0 || int(info.Action) >= len(p.actions) {
			return fmt.Errorf("model: %s: action id %d out of range", info.Name, info.Action)
		}
		if len(info.Next) != len(p.events) {
			return fmt.Errorf("model: %s: transition table has %d entries, want %d",
				info.Name, len(info.Next), len(p.events))
		}
		hasExit := false
		for ev, next := range info.Next {
			if next < -1 || int(next) >= len(p.cs) {
				return fmt.Errorf("model: %s: transition on %q targets invalid CS %d",
					info.Name, p.EventName(EventID(ev)), next)
			}
			if next >= 0 {
				hasExit = true
			}
		}
		if !hasExit {
			return fmt.Errorf("model: %s: no outgoing transitions", info.Name)
		}
		if info.Bind == nil {
			return fmt.Errorf("model: %s: no binding", info.Name)
		}
		for _, spans := range [...][]Span{info.Reads, info.Writes, info.Prefetch} {
			for _, s := range spans {
				if err := checkSpan(s, info.Bind); err != nil {
					return fmt.Errorf("model: %s: %w", info.Name, err)
				}
			}
		}
	}
	// Reachability of End from start.
	seen := make([]bool, len(p.cs))
	stack := []CSID{p.start}
	seen[p.start] = true
	reachedEnd := false
	for len(stack) > 0 {
		cs := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cs == CSEnd {
			reachedEnd = true
			continue
		}
		for _, next := range p.cs[cs].Next {
			if next >= 0 && !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	if !reachedEnd {
		return fmt.Errorf("model: program %s: End unreachable from start", p.name)
	}
	return nil
}

// checkSpan reports whether the step plan can resolve a span: its base
// must be one of BasePerFlow..BaseDynamic, and a pool base needs its
// pool bound.
func checkSpan(s Span, bind *Binding) error {
	switch s.Base {
	case BasePerFlow:
		if bind.PerFlow == nil {
			return fmt.Errorf("%v span %+v without a per-flow pool", s.Base, s)
		}
	case BaseSubFlow:
		if bind.SubFlow == nil {
			return fmt.Errorf("%v span %+v without a sub-flow pool", s.Base, s)
		}
	case BasePacket, BaseControl, BaseTemp, BaseDynamic:
	default:
		return fmt.Errorf("span %+v has unresolvable base %v", s, s.Base)
	}
	return nil
}
