package sim

import (
	"math/rand"
	"testing"
)

// TestProbeMatchesFindPlusVictim checks that the fused probe answers
// exactly what separate find + victimOf calls would, on both lookup
// strategies, and that the exact level's shadow-index answer matches a
// bare tag scan of the set.
func TestProbeMatchesFindPlusVictim(t *testing.T) {
	cfg := DefaultConfig().L1
	run := func(t *testing.T, c *cache) {
		rng := rand.New(rand.NewSource(13))
		space := uint64(c.sets*c.ways) * 2
		for i := 0; i < 100000; i++ {
			line := rng.Uint64() % space
			slot, victim := c.probe(line)
			if f := c.find(line); f != slot {
				t.Fatalf("op %d: probe slot %d, find %d", i, slot, f)
			}
			if s := scanSlot(c, line); s != slot {
				t.Fatalf("op %d: probe slot %d, bare tag scan %d", i, slot, s)
			}
			if slot >= 0 {
				if victim != -1 {
					t.Fatalf("op %d: hit returned victim %d", i, victim)
				}
				c.touch(slot, uint64(i))
				continue
			}
			if v := c.victimOf(line); v != victim {
				t.Fatalf("op %d: probe victim %d, victimOf %d", i, victim, v)
			}
			c.installAt(victim, line, uint64(i), uint64(i))
		}
	}
	t.Run("exact", func(t *testing.T) { run(t, newCache(cfg, true)) })
	t.Run("outer", func(t *testing.T) { run(t, newCache(cfg, false)) })
}

// scanSlot finds line by comparing every way's tag, with no early exit
// and no shadow index.
func scanSlot(c *cache, line uint64) int {
	base := int(line&c.setMask) * c.ways
	for s := base; s < base+c.ways; s++ {
		if c.tags[s] == c.tagOf(line) {
			return s
		}
	}
	return -1
}
