package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	gunfu "github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

const (
	// figuresSeed is the experiments' own seed (gunfu-bench's default);
	// the reference tables were taken with it. The workload seed only
	// orders the figures within a pass.
	figuresSeed     = 42
	figuresParallel = 2
)

func figuresRefPath(b *bench) string { return filepath.Join(b.refDir, "figures-quick.txt") }

// hostRows are fig9's host-timed rows: they measure this machine, so
// they never repeat and are left out of every comparison.
var hostRows = []string{"NFTask (GuNFu scheduler)", "goroutine channel hand-off"}

// comparable drops fig9's host-timed rows from a figure's output.
func comparable(out string) string {
	lines := strings.SplitAfter(out, "\n")
	keep := lines[:0]
	for _, l := range lines {
		host := false
		for _, h := range hostRows {
			host = host || strings.HasPrefix(l, h)
		}
		if !host {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "")
}

// splitFigures cuts gunfu-bench-formatted output into per-figure
// sections keyed by experiment id.
func splitFigures(out string) map[string]string {
	sections := map[string]string{}
	name := ""
	for _, l := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(l, "== ") && strings.HasSuffix(l, " ==\n") {
			name = strings.TrimSuffix(strings.TrimPrefix(l, "== "), " ==\n")
		}
		if name != "" {
			sections[name] += l
		}
	}
	return sections
}

// streamCounter counts completed function streams (simulated packets)
// across every core of a figure run; it is safe for parallel sweeps.
type streamCounter struct{ n atomic.Uint64 }

func (c *streamCounter) Event(ev gunfu.TraceEvent) {
	if ev.Kind == sim.TraceStreamDone {
		c.n.Add(1)
	}
}

// figurePass is one pass's rendered output and host times.
type figurePass struct {
	out   strings.Builder
	times map[string]time.Duration
	total time.Duration
}

// runFigurePass runs every experiment once in order, rendering each as
// gunfu-bench does, and checks it against ref when ref is non-nil.
// When cal is non-nil it takes a calibration sample after each figure;
// the pass's time is the sum of its figures' times, without them.
func runFigurePass(b *bench, order []string, ref map[string]string, tracer gunfu.Tracer, spans *spanLog, group string, cal *calibrator) (*figurePass, error) {
	p := &figurePass{times: map[string]time.Duration{}}
	start := time.Now()
	parent := 0
	if spans != nil {
		parent = spans.open(0, "figures.pass", group, start)
	}
	for _, name := range order {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "== %s ==\n", name)
		t0 := time.Now()
		_, err := gunfu.RunExperiment(name, gunfu.ExpOptions{
			Quick: true, Seed: figuresSeed, Out: &buf, Parallel: figuresParallel, Tracer: tracer,
		})
		d := time.Since(t0)
		if spans != nil {
			spans.add(parent, "exp."+name, group, t0, t0.Add(d))
		}
		if err != nil {
			b.op(false, "%s: %v", name, err)
			return nil, err
		}
		buf.WriteString("\n")
		p.times[name] = d
		p.total += d
		p.out.Write(buf.Bytes())
		if ref != nil {
			want, ok := ref[name]
			b.op(ok && comparable(buf.String()) == want, "%s output differs from the reference", name)
		}
		if cal != nil {
			cal.sample()
		}
	}
	if spans != nil {
		spans.close(parent, time.Now())
	}
	return p, nil
}

func loadFigureRef(b *bench) (map[string]string, error) {
	data, err := os.ReadFile(figuresRefPath(b))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref := splitFigures(string(data))
	for _, name := range gunfu.ExperimentNames() {
		if _, ok := ref[name]; !ok {
			return nil, fmt.Errorf("reference %s has no %s section", figuresRefPath(b), name)
		}
	}
	return ref, nil
}

// figureOrder is the experiment ids in a seeded order.
func figureOrder(rng *rand.Rand) []string {
	names := gunfu.ExperimentNames()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

func runFigures(b *bench) error {
	if b.record {
		p, err := runFigurePass(b, gunfu.ExperimentNames(), nil, nil, nil, "", nil)
		if err != nil {
			return err
		}
		if err := os.WriteFile(figuresRefPath(b), []byte(comparable(p.out.String())), 0o644); err != nil {
			return err
		}
		b.logf("recorded %s", figuresRefPath(b))
		return nil
	}
	ref, err := loadFigureRef(b)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))

	// Setup: one checked pass that counts the simulated packets a pass
	// completes (the count is fixed by the experiments' seed).
	var count streamCounter
	if _, err := runFigurePass(b, figureOrder(rng), ref, &count, nil, "setup", nil); err != nil {
		return err
	}
	packets := count.n.Load()
	if packets == 0 {
		return fmt.Errorf("setup pass completed no packets")
	}
	b.set("setup_s", time.Since(processStart).Seconds(), "s")
	b.logf("setup: a pass completes %d simulated packets", packets)

	// measure runs passes for length; untraced passes (spans == nil)
	// sample the calibration kernels, so that they stay out of the
	// traced phase's CPU profile.
	measure := func(tally *windowTally, length time.Duration, spans *spanLog, times map[string][]float64) error {
		cal := &b.cal
		if spans != nil {
			cal = nil
		}
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < length; i++ {
			p, err := runFigurePass(b, figureOrder(rng), ref, nil, spans, fmt.Sprintf("pass-%d", tally.ops), cal)
			if err != nil {
				return err
			}
			tally.add(packets, p.total)
			for name, d := range p.times {
				times[name] = append(times[name], d.Seconds())
			}
		}
		return nil
	}
	times := map[string][]float64{}
	if !b.traced {
		var tally windowTally
		if err := measure(&tally, b.seconds, nil, times); err != nil {
			return err
		}
		tally.report(b)
		b.logf("wall_s %.3f (median pass)", median(tally.nsPerPkt)*float64(packets)/1e9)
		return nil
	}
	var plain, traced windowTally
	rm := startRuntimeDelta()
	if err := measure(&plain, b.seconds/3, nil, map[string][]float64{}); err != nil {
		return err
	}
	stop, err := startProfile(b)
	if err != nil {
		return err
	}
	if err := measure(&traced, b.seconds-b.seconds/3, b.spans, times); err != nil {
		return err
	}
	if err := stop(); err != nil {
		return err
	}
	rm.report(b)
	setTraceOverhead(b, plain.mpps(), traced.mpps())
	setExpMetrics(b, times)
	return nil
}

func setExpMetrics(b *bench, times map[string][]float64) {
	for name, xs := range times {
		b.set("exp."+name+"_s", median(xs), "s")
	}
}
