package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	gunfu "github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/director"
)

// shape is one program under test: how to build it and how a steady
// run of it is windowed.
type shape struct {
	name  string
	flows int
	// window is the packet count of one measured Worker.Run call.
	window uint64
	build  func(seed int64, st *stageTimes) (*gunfu.AddressSpace, *gunfu.Program, *gunfu.FlowGen, error)
	// spec deploys the same program through the director.
	spec director.DeploySpec
}

const (
	packetBytes = 64
	// simWindows is the number of measured windows, counted from the
	// end of warmup, whose simulated counters the sim.* metrics and the
	// sim_gbps figure cover: a fixed simulated span, so the figures
	// repeat exactly whatever the host speed. A fresh rig at the run's
	// seed replays them after the measured phase (the twin check).
	simWindows = 32
	// setupRepeats is how often a run sets up; setup_s reports the
	// median.
	setupRepeats = 9
	// warmTolerance ends warmup once a window's simulated cycles per
	// packet is within this share of the previous window's: the caches,
	// the LLC included, have reached their steady state.
	warmTolerance  = 0.02
	maxWarmWindows = 64
	// canarySeed is the seed of the correctness reference; the
	// reference files were recorded with it. The canary runs
	// canaryWindows windows after warmup (about 2M packets) and compares
	// the cumulative result after windows 1, 2, 4, ..., canaryWindows.
	canarySeed    = 1
	canaryWindows = 128
)

// natDRAM is the paper's Fig 11 NAT: 65,536 uniform flows whose state
// is many times the simulated 2 MB LLC.
var natDRAM = shape{
	name: "nat-dram", flows: 65536, window: 16384,
	build: func(seed int64, st *stageTimes) (*gunfu.AddressSpace, *gunfu.Program, *gunfu.FlowGen, error) {
		as := gunfu.NewAddressSpace()
		t := time.Now()
		n, err := gunfu.NewNAT(as, gunfu.NATConfig{MaxFlows: 65536})
		if err != nil {
			return nil, nil, nil, err
		}
		st.nfBuild = time.Since(t)
		t = time.Now()
		g, err := newFlowGen(65536, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < g.Flows(); i++ {
			if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
				return nil, nil, nil, err
			}
		}
		st.flows = time.Since(t)
		t = time.Now()
		prog, err := n.Program()
		st.compile = time.Since(t)
		return as, prog, g, err
	},
	spec: director.DeploySpec{NF: "nat", Flows: 65536},
}

// sfc6Cached is the length-6 LB→NAT→NM→FW×3 chain with redundant
// matching removed, over 1,024 flows whose state fits the simulated L2.
var sfc6Cached = shape{
	name: "sfc6-cached", flows: 1024, window: 16384,
	build: func(seed int64, st *stageTimes) (*gunfu.AddressSpace, *gunfu.Program, *gunfu.FlowGen, error) {
		as := gunfu.NewAddressSpace()
		t := time.Now()
		chain, err := gunfu.BuildChain(as, 6, 1024)
		if err != nil {
			return nil, nil, nil, err
		}
		st.nfBuild = time.Since(t)
		t = time.Now()
		g, err := newFlowGen(1024, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		tuples := make([]gunfu.FiveTuple, g.Flows())
		for i := range tuples {
			tuples[i] = g.FlowTuple(i)
		}
		if err := gunfu.PopulateFlows(chain, tuples); err != nil {
			return nil, nil, nil, err
		}
		st.flows = time.Since(t)
		t = time.Now()
		prog, err := gunfu.BuildSFC("sfc6", chain, gunfu.SFCOptions{RemoveRedundantMatching: true})
		st.compile = time.Since(t)
		return as, prog, g, err
	},
	spec: director.DeploySpec{NF: "sfc", Flows: 1024, SFCLength: 6},
}

func newFlowGen(flows int, seed int64) (*gunfu.FlowGen, error) {
	return gunfu.NewFlowGen(gunfu.FlowGenConfig{
		Flows: flows, PacketBytes: packetBytes, Order: gunfu.OrderUniform, Seed: seed,
	})
}

// stageTimes are the host times of the setup constructors.
type stageTimes struct {
	nfBuild, flows, compile, core, worker, warmup time.Duration
}

// rig is a built, warmed steady-state setup.
type rig struct {
	gen         *gunfu.FlowGen
	core        *gunfu.Core
	run         func(n uint64) (gunfu.Result, error)
	times       stageTimes
	warmPackets uint64
}

// newRig builds sh and warms it. rtc selects the run-to-completion
// worker instead of the interleaved one; warm, when positive, fixes
// the warmup length instead of running to convergence.
func newRig(sh shape, seed int64, rtc bool, warm uint64) (*rig, error) {
	r := &rig{}
	as, prog, gen, err := sh.build(seed, &r.times)
	r.gen = gen
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", sh.name, err)
	}
	t := time.Now()
	r.core, err = gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return nil, err
	}
	r.times.core = time.Since(t)
	t = time.Now()
	if rtc {
		w, err := gunfu.NewRTCWorker(r.core, as, prog, gunfu.DefaultRTCConfig())
		if err != nil {
			return nil, err
		}
		r.run = func(n uint64) (gunfu.Result, error) { return w.Run(r.gen, n) }
	} else {
		w, err := gunfu.NewWorker(r.core, as, prog, gunfu.DefaultWorkerConfig())
		if err != nil {
			return nil, err
		}
		r.run = func(n uint64) (gunfu.Result, error) { return w.Run(r.gen, n) }
	}
	r.times.worker = time.Since(t)
	t = time.Now()
	if warm > 0 {
		_, err = r.run(warm)
		r.warmPackets = warm
	} else {
		r.warmPackets, err = warmup(r.run, sh.window, uint64(sh.flows))
	}
	r.times.warmup = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	return r, nil
}

// warmup runs windows until the simulated cycles per packet settle,
// and at least minPackets packets.
func warmup(run func(uint64) (gunfu.Result, error), window, minPackets uint64) (uint64, error) {
	var total uint64
	prev := 0.0
	for i := 0; i < maxWarmWindows; i++ {
		res, err := run(window)
		if err != nil {
			return total, err
		}
		total += res.Packets
		cpp := res.CyclesPerPacket()
		if i > 0 && total >= minPackets && math.Abs(cpp-prev) <= warmTolerance*prev {
			break
		}
		prev = cpp
	}
	return total, nil
}

// setupRepeated builds and warms sh setupRepeats times, keeps the last
// rig and returns the median setup time. Traced runs record a span per
// constructor.
func setupRepeated(b *bench, sh shape) (*rig, time.Duration, error) {
	var keep *rig
	var durs []float64
	var stages []stageTimes
	for i := 0; i < setupRepeats; i++ {
		keep = nil
		settle()
		start := time.Now()
		r, err := newRig(sh, b.seed, false, 0)
		if err != nil {
			return nil, 0, err
		}
		durs = append(durs, float64(time.Since(start)))
		stages = append(stages, r.times)
		if b.traced {
			recordStages(b.spans, fmt.Sprintf("setup-%d", i), start, r.times)
		}
		keep = r
	}
	b.logf("setup: warmed with %d packets, median %.3fs", keep.warmPackets, median(durs)/1e9)
	if b.traced {
		setStageMetrics(b, stages)
	}
	return keep, time.Duration(median(durs)), nil
}

// recordStages lays the constructor spans of one setup end to end
// under a parent setup span.
func recordStages(l *spanLog, group string, start time.Time, st stageTimes) {
	parent := l.open(0, "setup", group, start)
	t := start
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"nf.build", st.nfBuild}, {"traffic.flows", st.flows}, {"compile.program", st.compile},
		{"sim.NewCore", st.core}, {"rt.NewWorker", st.worker}, {"rt.Worker.Run/warmup", st.warmup},
	} {
		l.add(parent, s.name, group, t, t.Add(s.d))
		t = t.Add(s.d)
	}
	l.close(parent, t)
}

func setStageMetrics(b *bench, stages []stageTimes) {
	pick := func(f func(stageTimes) time.Duration) float64 {
		xs := make([]float64, len(stages))
		for i, s := range stages {
			xs[i] = ms(f(s))
		}
		return median(xs)
	}
	b.set("setup.nf_build_ms", pick(func(s stageTimes) time.Duration { return s.nfBuild }), "ms")
	b.set("setup.flows_ms", pick(func(s stageTimes) time.Duration { return s.flows }), "ms")
	b.set("setup.compile_ms", pick(func(s stageTimes) time.Duration { return s.compile }), "ms")
	b.set("setup.core_ms", pick(func(s stageTimes) time.Duration { return s.core }), "ms")
	b.set("setup.worker_ms", pick(func(s stageTimes) time.Duration { return s.worker }), "ms")
	b.set("setup.warmup_ms", pick(func(s stageTimes) time.Duration { return s.warmup }), "ms")
}

// windowTally accumulates measured operations: windows, or figure
// passes.
type windowTally struct {
	ops      int
	packets  uint64
	host     time.Duration
	nsPerPkt []float64
}

func (t *windowTally) add(packets uint64, d time.Duration) {
	t.ops++
	t.packets += packets
	t.host += d
	if packets > 0 {
		t.nsPerPkt = append(t.nsPerPkt, float64(d)/float64(packets))
	}
}

func (t *windowTally) mpps() float64 {
	if t.host <= 0 {
		return 0
	}
	return float64(t.packets) / t.host.Seconds() / 1e6
}

// report sets the end-to-end metrics the tally covers.
func (t *windowTally) report(b *bench) {
	b.set("host_mpps", t.mpps(), "Mpps")
	b.set("host_ns_per_pkt_p50", median(t.nsPerPkt), "ns")
	b.set("host_ns_per_pkt_p90", quantile(t.nsPerPkt, 0.9), "ns")
	b.logf("%d operations, %d packets in %.2fs host", t.ops, t.packets, t.host.Seconds())
}

// simTally sums the simulated results of the first simWindows windows.
type simTally struct {
	n   int
	res gunfu.Result
}

func (s *simTally) add(r gunfu.Result) {
	if s.n < simWindows {
		s.n++
		s.res = addResult(s.res, r)
	}
}

func (s *simTally) full() bool { return s.n >= simWindows }

// setSimMetrics reports the simulated counter ratios of res.
func setSimMetrics(b *bench, res gunfu.Result) {
	c := res.Counters
	n := float64(res.Packets)
	if n == 0 {
		return
	}
	b.set("sim_gbps", res.Gbps(), "Gbps")
	b.set("sim.l1_miss_per_pkt", float64(c.L1Misses)/n, "count")
	b.set("sim.l2_miss_per_pkt", float64(c.L2Misses)/n, "count")
	b.set("sim.llc_miss_per_pkt", float64(c.LLCMisses)/n, "count")
	b.set("sim.stall_cycles_per_pkt", float64(c.StallCycles)/n, "cycles")
	b.set("sim.ipc", c.IPC(), "ratio")
	b.set("sim.task_switches_per_pkt", float64(c.TaskSwitches)/n, "count")
	b.set("sim.prefetch_issued_per_pkt", float64(c.PrefetchIssued)/n, "count")
	b.set("sim.prefetch_late_per_pkt", float64(c.PrefetchLate)/n, "count")
	b.set("sim.prefetch_useful_ratio", ratio(c.PrefetchUseful, c.PrefetchIssued), "ratio")
	b.set("sim.prefetch_dropped_ratio", ratio(c.PrefetchDropped, c.PrefetchIssued+c.PrefetchDropped), "ratio")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runSteady measures sh in fixed-size Worker.Run windows.
func runSteady(sh shape) func(b *bench) error {
	return func(b *bench) error {
		if b.record {
			return recordCanary(b, sh)
		}
		r, setup, err := setupRepeated(b, sh)
		if err != nil {
			return err
		}
		b.set("setup_s", (setup + setupLead(b)).Seconds(), "s")

		var sims simTally
		window := func(tally *windowTally, group string) error {
			t0 := time.Now()
			res, err := r.run(sh.window)
			d := time.Since(t0)
			if b.traced && group != "" {
				b.spans.add(0, "rt.Worker.Run", group, t0, t0.Add(d))
			}
			if err != nil {
				b.op(false, "window: %v", err)
				return err
			}
			checkWindow(b, sh, res)
			if tally != nil {
				tally.add(res.Packets, d)
			}
			sims.add(res)
			return nil
		}
		// measure runs windows for length. Untraced, it samples the
		// calibration kernels after every calibEvery windows; the window
		// after a sample re-warms the host caches the kernels evicted,
		// and is run and checked but not timed. The traced phase takes
		// no sample, so the kernels stay out of its CPU profile.
		measure := func(tally *windowTally, length time.Duration, traced bool) error {
			start := time.Now()
			rewarm := false
			for i := 0; time.Since(start) < length || !sims.full(); i++ {
				group := ""
				if traced {
					group = fmt.Sprintf("window-%d", i)
				}
				timed := tally
				if rewarm {
					timed, rewarm = nil, false
				}
				if err := window(timed, group); err != nil {
					return err
				}
				if !traced && i%calibEvery == calibEvery-1 {
					b.cal.sample()
					rewarm = true
				}
			}
			return nil
		}

		if !b.traced {
			var tally windowTally
			if err := measure(&tally, b.seconds, false); err != nil {
				return err
			}
			tally.report(b)
			b.logf("sim_gbps %.4f over %d windows (simulated)", sims.res.Gbps(), sims.n)
		} else {
			var plain, traced windowTally
			rm := startRuntimeDelta()
			if err := measure(&plain, b.seconds/3, false); err != nil {
				return err
			}
			stop, err := startProfile(b)
			if err != nil {
				return err
			}
			if err := measure(&traced, b.seconds-b.seconds/3, true); err != nil {
				return err
			}
			if err := stop(); err != nil {
				return err
			}
			rm.report(b)
			setTraceOverhead(b, plain.mpps(), traced.mpps())
			setSimMetrics(b, sims.res)
		}
		if err := checkTwin(b, sh, sims.res); err != nil {
			return err
		}
		return checkCanary(b, sh)
	}
}

// checkWindow checks one measured window: it processed exactly the
// packets asked for, every packet's bits, and the simulated counters
// obey the cache hierarchy's accounting (every demand line is an L1 hit
// or miss, every L1 miss an L2 hit or miss, every L2 miss an LLC hit or
// miss; stalls and useful prefetches within their totals).
func checkWindow(b *bench, sh shape, res gunfu.Result) {
	c := res.Counters
	ok := res.Packets == sh.window &&
		res.Bits == float64(res.Packets*packetBytes*8) &&
		res.Cycles > 0 && res.Cycles == c.Cycles &&
		c.L1Hits+c.L1Misses == c.Reads+c.Writes &&
		c.L1Misses == c.L2Hits+c.L2Misses &&
		c.L2Misses == c.LLCHits+c.LLCMisses &&
		c.StallCycles <= c.Cycles &&
		c.PrefetchUseful <= c.PrefetchIssued
	b.op(ok, "window of %d packets fails its checks: %+v", sh.window, res)
}

// checkTwin builds a fresh rig at the run's seed, runs the first
// simWindows windows again and compares their summed simulated result
// with the measured run's: the measured windows repeat exactly.
func checkTwin(b *bench, sh shape, measured gunfu.Result) error {
	settle()
	r, err := newRig(sh, b.seed, false, 0)
	if err != nil {
		return err
	}
	var twin gunfu.Result
	for i := 0; i < simWindows; i++ {
		res, err := r.run(sh.window)
		if err != nil {
			return err
		}
		twin = addResult(twin, res)
	}
	b.op(twin == measured, "the first %d measured windows differ from a fresh rig's at seed %d:\n got %+v\nwant %+v",
		simWindows, b.seed, measured, twin)
	return nil
}

// setupLead is the part of setup_s before the first setup began:
// process start, flag parsing.
func setupLead(b *bench) time.Duration { return b.startedAt.Sub(processStart) }

func setTraceOverhead(b *bench, untraced, traced float64) {
	if untraced > 0 {
		b.set("trace.overhead_ratio", traced/untraced, "ratio")
	}
	b.logf("tracing: traced host_mpps %.4f vs untraced %.4f", traced, untraced)
}

// canaryRef is the recorded correctness reference of a shape: the
// warmup length and the cumulative simulated result after windows 1,
// 2, 4, ..., canaryWindows after warmup, at canarySeed.
type canaryRef struct {
	Seed        int64        `json:"seed"`
	Window      uint64       `json:"window"`
	WarmPackets uint64       `json:"warm_packets"`
	Checkpoints []checkpoint `json:"checkpoints"`
}

type checkpoint struct {
	Windows int          `json:"windows"`
	Total   gunfu.Result `json:"total"`
}

func canaryPath(b *bench, sh shape) string { return filepath.Join(b.refDir, sh.name+".json") }

func runCanary(sh shape) (canaryRef, error) {
	r, err := newRig(sh, canarySeed, false, 0)
	if err != nil {
		return canaryRef{}, err
	}
	ref := canaryRef{Seed: canarySeed, Window: sh.window, WarmPackets: r.warmPackets}
	var total gunfu.Result
	for i := 1; i <= canaryWindows; i++ {
		res, err := r.run(sh.window)
		if err != nil {
			return canaryRef{}, err
		}
		total = addResult(total, res)
		if i&(i-1) == 0 {
			ref.Checkpoints = append(ref.Checkpoints, checkpoint{Windows: i, Total: total})
		}
	}
	return ref, nil
}

func recordCanary(b *bench, sh shape) error {
	ref, err := runCanary(sh)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(canaryPath(b, sh), append(data, '\n'), 0o644); err != nil {
		return err
	}
	b.logf("recorded %s", canaryPath(b, sh))
	return nil
}

// checkCanary reruns the reference seed and compares the warmup length
// and every checkpoint's cumulative simulated result with the recorded
// ones.
func checkCanary(b *bench, sh shape) error {
	data, err := os.ReadFile(canaryPath(b, sh))
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	var want canaryRef
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("reference %s: %w", canaryPath(b, sh), err)
	}
	if want.Seed != canarySeed || want.Window != sh.window || len(want.Checkpoints) == 0 {
		return fmt.Errorf("reference %s was recorded for another seed or window", canaryPath(b, sh))
	}
	settle()
	got, err := runCanary(sh)
	if err != nil {
		return err
	}
	b.op(got.WarmPackets == want.WarmPackets, "canary warmup %d packets, reference %d", got.WarmPackets, want.WarmPackets)
	for i, w := range want.Checkpoints {
		g := checkpoint{}
		if i < len(got.Checkpoints) {
			g = got.Checkpoints[i]
		}
		b.op(g == w, "canary after %d windows differs from the reference:\n got %+v\nwant %+v", w.Windows, g, w)
	}
	return nil
}
