package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
)

// startProfile samples a CPU profile of the measured phase; the
// returned stop function ends it and folds it into host_share.<pkg>.
func startProfile(b *bench) (func() error, error) {
	path := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		shares, err := foldProfile(path)
		if err != nil {
			return err
		}
		for _, layer := range shareLayers {
			b.set("host_share."+layer, shares[layer], "ratio")
		}
		b.logf("CPU profile written to %s", path)
		return nil
	}, nil
}

// shareLayers are the host_share rows, named after the repository's
// packages; "other" is everything else (the benchmark itself, net,
// syscall, encoding).
var shareLayers = []string{
	"sim", "model", "nf", "dstruct", "rt", "rtc", "traffic", "pkt", "compile",
	"obs", "director", "exp", "runtime", "other",
}

// foldProfile sums the flat CPU share of every function by layer, using
// the toolchain's own pprof.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	shares := make(map[string]float64)
	sc := bufio.NewScanner(&out)
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[layerOf(strings.Join(f[5:], " "))] += pct / 100
	}
	if !header {
		return nil, fmt.Errorf("go tool pprof: no table in output")
	}
	return shares, nil
}

// layerOf maps a pprof function name to its layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	const internal = "github.com/gunfu-nfv/gunfu/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		layer := strings.TrimPrefix(pkg, internal)
		if i := strings.Index(layer, "/"); i >= 0 {
			layer = layer[:i]
		}
		for _, l := range shareLayers {
			if l == layer {
				return l
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "other"
}

// runtimeDelta measures the Go runtime's allocation and GC cost over a
// phase.
type runtimeDelta struct {
	alloc      uint64
	gcCPU, cpu float64
}

func readCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startRuntimeDelta() *runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d := &runtimeDelta{alloc: ms.TotalAlloc}
	d.gcCPU, d.cpu = readCPU()
	return d
}

func (d *runtimeDelta) report(b *bench) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, cpu := readCPU()
	b.set("runtime.alloc_mb", float64(ms.TotalAlloc-d.alloc)/(1<<20), "MB")
	share := 0.0
	if cpu > d.cpu {
		share = (gc - d.gcCPU) / (cpu - d.cpu)
	}
	b.set("runtime.gc_cpu_share", share, "ratio")
}
