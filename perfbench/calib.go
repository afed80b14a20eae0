package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts by a quarter over minutes on a shared
// machine (other tenants' cache, memory and core traffic), more than
// the bounds the end-to-end metrics must hold, and a 30-second run
// cannot average that drift away. So every run also times two fixed
// kernels of the benchmark's own, interleaved with its measured
// operations: one bound by memory, one by branches and arithmetic on a
// cache-resident table. It reports its end-to-end host timings at the
// kernels' reference speeds: measured × (calibMemRefNs ÷ the memory
// kernel's median) × (calibBranchRefNs ÷ the branch kernel's median),
// both medians over the same run. The kernels do not depend on the
// program, so a change to the program moves the reported timings in
// full; only the host's drift cancels. The raw timings and the
// kernels' speeds go to standard error, and the traced run reports the
// kernels' speeds as calib.mem_ns_per_access and
// calib.branch_ns_per_step.
const (
	// calibMemBytes is the memory kernel's table, about the simulator's
	// own host working set, so that it meets the same cache and memory
	// contention; calibBranchBytes is the branch kernel's table, which
	// stays in the host's L2.
	calibMemBytes    = 16 << 20
	calibBranchBytes = 256 << 10
	calibBytes       = calibMemBytes + calibBranchBytes
	// calibSteps is the length of each kernel's part of one sample,
	// about 8 ms each.
	calibSteps = 1 << 19
	// calibMemRefNs and calibBranchRefNs are the kernels' median ns per
	// step in runs on a quiet 2-vCPU Intel Xeon VM; they only keep the
	// reported figures near the raw ones there.
	calibMemRefNs    = 15.5
	calibBranchRefNs = 14.0
	// calibEvery is the number of measured windows between samples.
	calibEvery = 8
)

// mapCalibTable maps and touches the kernels' tables. They live outside
// the Go heap, so they do not change the program's garbage-collection
// pacing, and they are resident from before processStart (see
// main.go), so they add nothing to setup_s and calibBytes to the
// process's resident set throughout; peak_rss_mb subtracts it.
func mapCalibTable() []uint64 {
	mem, err := syscall.Mmap(-1, 0, calibBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: calibration table: %v", err))
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibBytes/8)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}

// calibrator collects the kernels' samples of one run.
type calibrator struct {
	x, sink       uint64
	mem, branches []float64 // ns per step
}

// sample times each kernel once. Both take calibSteps independent
// random steps: the memory kernel a read-modify-write anywhere in its
// 16 MB table, the branch kernel a four-way data-dependent branch on
// its 256 KB table.
func (c *calibrator) sample() {
	table, small := calibTable[:calibMemBytes/8], calibTable[calibMemBytes/8:]
	x, acc := c.x, uint64(0)

	mask := uint64(len(table) - 1)
	t0 := time.Now()
	for i := 0; i < calibSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx := (x >> 29) & mask
		if v := table[idx]; v&1 == 0 {
			table[idx] = v + x
		} else {
			acc += v
		}
	}
	t1 := time.Now()
	mask = uint64(len(small) - 1)
	for i := 0; i < calibSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx := (x >> 31) & mask
		v := small[idx]
		switch (v ^ x) >> 62 {
		case 0:
			small[idx] = v + 1
		case 1:
			acc += v
		case 2:
			acc ^= v << 1
		default:
			small[idx] = v ^ acc
		}
	}
	t2 := time.Now()

	c.x, c.sink = x, c.sink+acc
	c.mem = append(c.mem, float64(t1.Sub(t0))/calibSteps)
	c.branches = append(c.branches, float64(t2.Sub(t1))/calibSteps)
}

// calibrate rescales the end-to-end host timings to the kernels'
// reference speeds and logs the raw ones.
func (b *bench) calibrate() error {
	if len(b.cal.mem) == 0 {
		return fmt.Errorf("no calibration sample")
	}
	mem, branch := median(b.cal.mem), median(b.cal.branches)
	scale := calibMemRefNs / mem * calibBranchRefNs / branch
	b.logf("calibration: %d samples, memory kernel %.2f ns per step (reference %.1f), branch kernel %.2f (reference %.1f), scale %.4f",
		len(b.cal.mem), mem, calibMemRefNs, branch, calibBranchRefNs, scale)
	for name, m := range b.metrics {
		raw := m.Value
		switch name {
		case "host_mpps":
			m.Value /= scale
		case "host_ns_per_pkt_p50", "host_ns_per_pkt_p90", "setup_s":
			m.Value *= scale
		default:
			continue
		}
		b.metrics[name] = m
		b.logf("%s raw %.6g calibrated %.6g %s", name, raw, m.Value, m.Unit)
	}
	return nil
}

// setCalibMetrics reports the kernels' speeds over the run.
func (b *bench) setCalibMetrics() {
	b.set("calib.mem_ns_per_access", median(b.cal.mem), "ns")
	b.set("calib.branch_ns_per_step", median(b.cal.branches), "ns")
}
