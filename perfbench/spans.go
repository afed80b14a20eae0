package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Group ties together the spans of one window, deploy sequence
// number or figure pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Group  string `json:"group"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until write; it is safe for the
// concurrent hooks of the director rung.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, 4096)} }

func since(t time.Time) int64 { return int64(t.Sub(processStart)) }

// add records a finished span and returns its id.
func (l *spanLog) add(parent int, name, group string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Group: group, Start: since(start), End: since(end)})
	return id
}

// open reserves an id for a span whose children finish first; close
// fills in its end.
func (l *spanLog) open(parent int, name, group string, start time.Time) int {
	return l.add(parent, name, group, start, start)
}

func (l *spanLog) close(id int, end time.Time) {
	l.mu.Lock()
	l.spans[id-1].End = since(end)
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

type selfTime struct {
	name string
	self time.Duration
}

// selfTimes sums each span name's duration minus the part of its
// interval its direct children cover, longest first.
func (l *spanLog) selfTimes() []selfTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := make(map[string]time.Duration)
	for _, s := range l.spans {
		sum[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	out := make([]selfTime, 0, len(sum))
	for name, d := range sum {
		out = append(out, selfTime{name, d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals
// within the parent's; concurrent children (two agents' windows) count
// once.
func covered(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	at := parent.Start
	for _, c := range children {
		start, end := max(c.Start, at), min(c.End, parent.End)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
