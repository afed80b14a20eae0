package sim

import "testing"

// TestScanTwinCore drives a core with its production fast paths active
// (no access log attached, so Read/Write/ReadSpans take the inlined
// shadow-index probes) and the reference model (ref_test.go) through
// the same 120k-op randomized stream of public-API operations, resets
// included, and requires identical answers and clocks after every
// operation and identical counters, eviction epochs and per-slot level
// contents periodically. The model-level differential replay attaches
// an access log, which disables the inlined L1 probes, so this test is
// what pins them.
func TestScanTwinCore(t *testing.T) {
	cfg := DefaultConfig()
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refLockstep(t, "fastpath-vs-reference", c, newRefCore(cfg), genRefOps(3, 120000, hotMidCold), 8192)
}
