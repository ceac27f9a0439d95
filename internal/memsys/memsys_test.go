package memsys

import (
	"testing"
	"testing/quick"
)

func small() CacheConfig {
	return CacheConfig{SizeBytes: 256, LineBytes: 32, Ways: 2, HitCycles: 3}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := NewCache(small())
	if hit, _ := c.Access(0x1000, false); hit {
		t.Error("cold access should miss")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Error("second access should hit")
	}
	// Same line, different word: hit.
	if hit, _ := c.Access(0x101C, false); !hit {
		t.Error("same-line access should hit")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", c.Hits, c.Misses)
	}
	if c.HitRate() != 2.0/3.0 {
		t.Errorf("HitRate = %v", c.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 256B / 32B lines / 2 ways = 4 sets. Addresses 0, 0x200, 0x400 share
	// set 0 (set bits are addr>>5 & 3).
	c := NewCache(small())
	c.Access(0x000, false)
	c.Access(0x200, false)
	c.Access(0x000, false) // refresh 0 -> 0x200 is LRU
	c.Access(0x400, false) // evicts 0x200
	if !c.Contains(0x000) {
		t.Error("recently used line evicted")
	}
	if c.Contains(0x200) {
		t.Error("LRU line should have been evicted")
	}
	if !c.Contains(0x400) {
		t.Error("new line missing")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := NewCache(small())
	c.Access(0x000, true) // dirty
	c.Access(0x200, false)
	_, wb := c.Access(0x400, false) // evicts dirty 0x000
	if !wb {
		t.Error("evicting a dirty line must signal a write-back")
	}
	_, wb = c.Access(0x600, false) // evicts clean 0x200
	if wb {
		t.Error("evicting a clean line must not signal a write-back")
	}
}

func TestCacheWriteHitMarksDirty(t *testing.T) {
	c := NewCache(small())
	c.Access(0x000, false) // clean fill
	c.Access(0x000, true)  // write hit -> dirty
	c.Access(0x200, false)
	_, wb := c.Access(0x400, false) // evict 0x000
	if !wb {
		t.Error("write-hit line should be dirty on eviction")
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 0, LineBytes: 32, Ways: 1},
		{SizeBytes: 256, LineBytes: 24, Ways: 1},
		{SizeBytes: 96, LineBytes: 32, Ways: 1}, // 3 sets
		{SizeBytes: 256, LineBytes: 32, Ways: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := NewCache(small())
	c.Access(0x000, false)
	hits, misses := c.Hits, c.Misses
	c.Contains(0x000)
	c.Contains(0xFF00)
	if c.Hits != hits || c.Misses != misses {
		t.Error("Contains must not change statistics")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	cfg := DefaultHierarchyConfig()
	cold := cfg.L1.HitCycles + cfg.L2.HitCycles + cfg.MemCycles
	// Cold: L1 miss + L2 miss + memory.
	if lat := h.Access(0x12345000, false); lat != cold {
		t.Errorf("cold access latency = %d, want %d", lat, cold)
	}
	// Now resident in both: L1 hit.
	if lat := h.Access(0x12345000, false); lat != cfg.L1.HitCycles {
		t.Errorf("warm access latency = %d, want %d", lat, cfg.L1.HitCycles)
	}
	if h.L1HitCycles() != cfg.L1.HitCycles {
		t.Errorf("L1HitCycles = %d", h.L1HitCycles())
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.Access(0x100000, false)
	// Evict from L1 by filling its set (L1: 32KB/32B/4w = 256 sets;
	// same-set addresses differ by 8KB).
	for i := 1; i <= 4; i++ {
		h.Access(0x100000+uint32(i)*8192, false)
	}
	if h.L1.Contains(0x100000) {
		t.Fatal("line should have been evicted from L1")
	}
	// L2 (1MB, 8 ways) still holds it: latency is L1 miss + L2 hit.
	cfg := DefaultHierarchyConfig()
	if lat := h.Access(0x100000, false); lat != cfg.L1.HitCycles+cfg.L2.HitCycles {
		t.Errorf("L2 hit latency = %d, want %d", lat, cfg.L1.HitCycles+cfg.L2.HitCycles)
	}
}

// Property: hit rate is always in [0,1] and hits+misses equals accesses.
func TestCacheCountersProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewCache(small())
		for _, a := range addrs {
			c.Access(a, a%3 == 0)
		}
		if c.Hits+c.Misses != int64(len(addrs)) {
			return false
		}
		r := c.HitRate()
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHierarchyPrefetchWarmsWithoutStats(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.Prefetch(0x4000_0000)
	if h.L1.Hits != 0 || h.L1.Misses != 0 || h.L2.Hits != 0 || h.L2.Misses != 0 {
		t.Error("prefetch must not perturb demand statistics")
	}
	// The line is now resident: a demand access hits L1.
	cfg := DefaultHierarchyConfig()
	if lat := h.Access(0x4000_0000, false); lat != cfg.L1.HitCycles {
		t.Errorf("post-prefetch access latency = %d, want L1 hit (%d)", lat, cfg.L1.HitCycles)
	}
}

// TestCacheLRUSurvivesClockWrap starts the clock three accesses short
// of its wrap: A, B and A again touch a 2-way set across the wrap, so C
// must evict B, the least recently used, and not A.
func TestCacheLRUSurvivesClockWrap(t *testing.T) {
	c := NewCache(small())
	c.clock = ^uint32(0) - 2
	const a, b, cc = 0x000, 0x200, 0x400 // all in set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false)
	c.Access(cc, false)
	if !c.Contains(a) || c.Contains(b) || !c.Contains(cc) {
		t.Errorf("after A, B, A, C across the clock wrap: A resident %v, B %v, C %v; want B evicted",
			c.Contains(a), c.Contains(b), c.Contains(cc))
	}
}

// TestHierarchyServeLevels checks Serve's level and Access's latency on
// a cold miss, an L1 hit, and an L2 hit after the L1 line was evicted.
func TestHierarchyServeLevels(t *testing.T) {
	cfg := HierarchyConfig{L1: small(), L2: CacheConfig{SizeBytes: 4096, LineBytes: 32, Ways: 4, HitCycles: 7}, MemCycles: 50}
	h := NewHierarchy(cfg)
	if l := h.Serve(0x000, false); l != Mem {
		t.Errorf("cold access served by %d, want Mem", l)
	}
	if lat := h.Access(0x000, false); lat != cfg.L1.HitCycles {
		t.Errorf("L1 hit latency %d, want %d", lat, cfg.L1.HitCycles)
	}
	// 0x200 and 0x400 share L1 set 0 with 0x000 and evict it from the
	// 2-way L1; L2 keeps all three.
	h.Serve(0x200, false)
	h.Serve(0x400, false)
	if l := h.Serve(0x000, false); l != L2 {
		t.Errorf("access after L1 eviction served by %d, want L2", l)
	}
	for l, want := range map[Level]int{L1: 3, L2: 10, Mem: 60} {
		if got := cfg.Latency(l); got != want {
			t.Errorf("Latency(%d) = %d, want %d", l, got, want)
		}
	}
}
