package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	gunfu "github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

const (
	// rungWindows is the number of windows each side of a paired rung
	// runs, alternating sides to cancel host drift.
	rungWindows = 4
	// genPackets is the length of the traffic rung.
	genPackets = 1 << 21
	// captureWindow is the packet count of the access-log capture the
	// replay rung replays.
	captureWindow = 16384
	// ladderDeploys is the deploy count of the director rung.
	ladderDeploys = 3
)

// runLadder runs the layer ladder of a traced run on sh: every rung
// whose metrics the workload's own traced phase did not already give.
func runLadder(b *bench, sh shape) error {
	has := func(name string) bool { _, ok := b.metrics[name]; return ok }
	settle()
	if !has("setup.nf_build_ms") {
		var stages []stageTimes
		for i := 0; i < setupRepeats; i++ {
			start := time.Now()
			r, err := newRig(sh, b.seed, false, 0)
			if err != nil {
				return err
			}
			recordStages(b.spans, fmt.Sprintf("ladder-setup-%d", i), start, r.times)
			stages = append(stages, r.times)
			settle()
		}
		setStageMetrics(b, stages)
	}
	rtRes, err := schedulerRungs(b, sh)
	if err != nil {
		return err
	}
	if !has("sim_gbps") {
		setSimMetrics(b, rtRes)
	}
	if err := trafficRung(b, sh); err != nil {
		return err
	}
	if err := directorRung(b, sh); err != nil {
		return err
	}
	if !has("exp.fig11_s") {
		ref, err := loadFigureRef(b)
		if err != nil {
			return err
		}
		p, err := runFigurePass(b, figureOrder(rand.New(rand.NewSource(b.seed))), ref, nil, b.spans, "ladder-figures", nil)
		if err != nil {
			return err
		}
		for name, d := range p.times {
			b.set("exp."+name+"_s", d.Seconds(), "s")
		}
	}
	return nil
}

// schedulerRungs measure the interleaved worker against an RTC worker
// on identical state (same build, seed and warmup length), alternating
// windows, then the flight recorder and the replay rungs on the
// interleaved rig. It returns the interleaved rung's simulated result.
func schedulerRungs(b *bench, sh shape) (gunfu.Result, error) {
	il, err := newRig(sh, b.seed, false, 0)
	if err != nil {
		return gunfu.Result{}, err
	}
	rc, err := newRig(sh, b.seed, true, il.warmPackets)
	if err != nil {
		return gunfu.Result{}, err
	}
	var ilRes, rcRes gunfu.Result
	var ilHost, rcHost time.Duration
	var mallocs uint64
	var ms runtime.MemStats
	for i := 0; i < rungWindows; i++ {
		group := fmt.Sprintf("rung-%d", i)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		r, err := il.run(sh.window)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if err != nil {
			return gunfu.Result{}, err
		}
		checkWindow(b, sh, r)
		b.spans.add(0, "rt.Worker.Run", group, t0, t0.Add(d))
		ilHost += d
		ilRes = addResult(ilRes, r)

		t0 = time.Now()
		r, err = rc.run(sh.window)
		d = time.Since(t0)
		if err != nil {
			return gunfu.Result{}, err
		}
		checkWindow(b, sh, r)
		b.spans.add(0, "rtc.Worker.Run", group, t0, t0.Add(d))
		rcHost += d
		rcRes = addResult(rcRes, r)
	}
	ilNs := float64(ilHost) / float64(ilRes.Packets)
	rcNs := float64(rcHost) / float64(rcRes.Packets)
	b.set("rtc.run_ns_per_pkt", rcNs, "ns")
	b.set("rt.sched_ns_per_pkt", ilNs-rcNs, "ns")
	b.set("rt.allocs_per_pkt", float64(mallocs)/float64(ilRes.Packets), "count")
	b.set("rt.sim_speedup_vs_rtc", ilRes.Mpps()/rcRes.Mpps(), "ratio")
	b.logf("rung: interleaved %.1f ns/pkt, RTC %.1f ns/pkt; simulated %.3f vs %.3f Mpps",
		ilNs, rcNs, ilRes.Mpps(), rcRes.Mpps())
	settle()

	if err := flightRung(b, sh, il); err != nil {
		return gunfu.Result{}, err
	}
	if err := replayRung(b, il); err != nil {
		return gunfu.Result{}, err
	}
	return ilRes, nil
}

// addResult sums two windows' simulated results.
func addResult(a, r gunfu.Result) gunfu.Result {
	a.Packets += r.Packets
	a.Bits += r.Bits
	a.Cycles += r.Cycles
	a.FreqHz = r.FreqHz
	a.Counters = a.Counters.Add(r.Counters)
	a.AccessCycles += r.AccessCycles
	a.Parks += r.Parks
	a.Wakes += r.Wakes
	a.WakeStalls += r.WakeStalls
	return a
}

// flightRung alternates windows with and without an agent-sized flight
// recorder on the core.
func flightRung(b *bench, sh shape, r *rig) error {
	flight := gunfu.NewFlightRecorder(1 << 16)
	var on, off time.Duration
	for i := 0; i < rungWindows; i++ {
		for _, tracer := range []gunfu.Tracer{flight, nil} {
			r.core.SetTracer(tracer)
			t0 := time.Now()
			res, err := r.run(sh.window)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			checkWindow(b, sh, res)
			if tracer != nil {
				on += d
			} else {
				off += d
			}
		}
	}
	r.core.SetTracer(nil)
	b.set("obs.flight_overhead_ratio", float64(on)/float64(off), "ratio")
	return nil
}

// replayRung captures one window's memory accesses with the core's
// access log and replays them into a fresh core through Read, Write and
// PrefetchLine, advancing its clock with Compute to each logged cycle.
// The first replay warms the fresh core; the second is timed.
func replayRung(b *bench, r *rig) error {
	var log []sim.MemAccess
	r.core.SetAccessLog(func(a sim.MemAccess) { log = append(log, a) })
	before := r.core.Counters()
	res, err := r.run(captureWindow)
	r.core.SetAccessLog(nil)
	if err != nil {
		return err
	}
	b.op(res.Packets == captureWindow && len(log) > 0, "capture window processed %d of %d packets, %d accesses", res.Packets, captureWindow, len(log))
	if len(log) == 0 {
		return nil
	}
	captured := r.core.Counters().Sub(before)

	cfg := gunfu.DefaultSimConfig()
	fresh, err := gunfu.NewCore(cfg)
	if err != nil {
		return err
	}
	replay := func() {
		base, off := log[0].Cycle, fresh.Now()
		for _, a := range log {
			if at := a.Cycle - base + off; at > fresh.Now() {
				fresh.Compute((at - fresh.Now()) * cfg.IssueWidth)
			}
			switch a.Kind {
			case sim.AccessRead:
				fresh.Read(a.Addr, a.Size)
			case sim.AccessWrite:
				fresh.Write(a.Addr, a.Size)
			case sim.AccessPrefetch:
				fresh.PrefetchLine(a.Addr)
			}
		}
	}
	replay()
	c0 := fresh.Counters()
	t0 := time.Now()
	replay()
	d := time.Since(t0)
	replayed := fresh.Counters().Sub(c0)
	b.spans.add(0, "sim.replay", "replay", t0, t0.Add(d))
	b.set("sim.replay_ns_per_access", float64(d)/float64(len(log)), "ns")
	mix := func(c gunfu.Counters) string {
		n := float64(c.Reads + c.Writes)
		return fmt.Sprintf("L1 %.3f L2 %.3f LLC %.3f misses per demand line, %.3f prefetches issued",
			float64(c.L1Misses)/n, float64(c.L2Misses)/n, float64(c.LLCMisses)/n, float64(c.PrefetchIssued)/n)
	}
	b.logf("replay of %d accesses: captured %s", len(log), mix(captured))
	b.logf("replay of %d accesses: replayed %s (DMA fills are not logged)", len(log), mix(replayed))
	return nil
}

// trafficRung times the seeded generator's Next alone.
func trafficRung(b *bench, sh shape) error {
	g, err := newFlowGen(sh.flows, b.seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < genPackets; i++ {
		if g.Next() == nil {
			return fmt.Errorf("generator ran dry")
		}
	}
	d := time.Since(t0)
	b.spans.add(0, "traffic.FlowGen.Next", "traffic", t0, t0.Add(d))
	b.set("traffic.gen_ns_per_pkt", float64(d)/genPackets, "ns")
	return nil
}

// directorRung deploys sh to two in-process agents over loopback a few
// times, timing the serving path from the public hooks.
func directorRung(b *bench, sh shape) error {
	hooks := &deployHooks{spans: b.spans}
	c, err := startCluster(b, hooks)
	if err != nil {
		return err
	}
	defer c.close()
	spec := deploySpec(sh, b.seed)
	var runs []deployRun
	for i := 0; i < ladderDeploys; i++ {
		runs = append(runs, deployOnce(c, hooks, spec, i))
	}
	want, err := referenceDeploy(spec)
	if err != nil {
		return err
	}
	checkDeploys(b, runs, want)
	hooks.setDirectorMetrics(b)
	return nil
}
