// Command perfbench is the repository benchmark. It runs one workload
// in its own process, checks the outputs against references, counts
// failed operations against attempted ones and prints every metric by
// name and unit as the last line of standard output:
//
//	{"correct": true, "attempted": 612, "failed": 0, "metrics": {...}}
//
// Usage, from the root of a checkout (normally through run.py, which
// builds this package first):
//
//	perfbench -workload nat-dram -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the run is untraced and reports the end-to-end
// metrics. With -trace 1 it reports the per-layer metrics instead:
// simulated counter ratios, a CPU profile folded by package, spans
// recorded around every call into a layer, and the rungs of the layer
// ladder (see README.md). Span and profile files land in
// .bench_build/out.
//
// Host metrics are what the simulator costs to run on this machine;
// simulated metrics are what the modelled 2.7 GHz Xeon would take and
// repeat exactly for a seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

var (
	// calibTable holds the calibration kernels' tables (calib.go); it
	// is declared first so that it is ready before processStart.
	calibTable = mapCalibTable()
	// processStart approximates the process start for setup_s; package
	// initialization runs before anything the benchmark measures.
	processStart = time.Now()
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one workload run shares with the helpers: the
// parsed flags, the operation tallies, the metrics and the span log.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string
	record   bool
	refDir   string

	// startedAt is when the workload began, after flag parsing.
	startedAt time.Time

	attempted, failed int
	metrics           map[string]metric
	spans             *spanLog
	// cal samples the host's speed between measured operations.
	cal calibrator
}

// op counts one attempted operation and, when ok is false, one failed
// one, logging why.
func (b *bench) op(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type workload struct {
	run func(b *bench) error
	// shape is the program the traced run's layer ladder measures.
	shape shape
}

func workloads() map[string]workload {
	return map[string]workload{
		"nat-dram":      {run: runSteady(natDRAM), shape: natDRAM},
		"sfc6-cached":   {run: runSteady(sfc6Cached), shape: sfc6Cached},
		"figures-quick": {run: runFigures, shape: natDRAM},
	}
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: nat-dram, sfc6-cached or figures-quick")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	record := flag.Bool("record", false, "write the correctness references of this workload instead of checking them")
	flag.Parse()

	w, ok := workloads()[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	b := &bench{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, record: *record,
		outDir: filepath.Join(".bench_build", "out"), refDir: filepath.Join("perfbench", "reference"),
		metrics: map[string]metric{}, spans: newSpanLog(),
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b.startedAt = time.Now()
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.traced {
		if err := runLadder(b, w.shape); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: ladder: %v\n", b.workload, err)
			return 1
		}
		path := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d.spans.json", b.workload, b.seed))
		if err := b.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		b.logf("spans written to %s", path)
		for _, st := range b.spans.selfTimes() {
			b.logf("self time %-40s %10.1f ms", st.name, ms(st.self))
		}
		// A traced run reports the per-layer metrics only; its setup
		// time is not comparable with an untraced run's.
		b.logf("traced setup_s %.3f", b.metrics["setup_s"].Value)
		delete(b.metrics, "setup_s")
		b.setCalibMetrics()
	} else {
		if err := b.calibrate(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		b.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if b.record {
		return 0
	}
	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	if rep.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// peakRSSMB is this process's maximum resident set size, less the
// calibration tables, which are resident throughout.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)/1024 - calibBytes/(1<<20) // Linux reports KiB
}

// settle collects the garbage a discarded setup left so that the next
// one, and the process's peak RSS, do not pay for it.
func settle() { runtime.GC() }
