package prefetch

import "testing"

func TestRPTLearnsStride(t *testing.T) {
	r := NewRPT(DefaultRPTConfig())
	var issued []uint32
	for i := 0; i < 20; i++ {
		addr := uint32(0x1000 + 64*i)
		if pf, ok := r.Observe(0x100, addr); ok {
			issued = append(issued, pf)
		}
	}
	if len(issued) < 14 {
		t.Fatalf("issued only %d prefetches", len(issued))
	}
	// Prefetches must target the next stride.
	last := issued[len(issued)-1]
	if last != 0x1000+64*19+64 {
		t.Errorf("last prefetch = %#x, want next element", last)
	}
}

func TestRPTSilentOnRandom(t *testing.T) {
	r := NewRPT(DefaultRPTConfig())
	x := uint32(3)
	issued := 0
	for i := 0; i < 200; i++ {
		x = x*1664525 + 1013904223
		if _, ok := r.Observe(0x100, x&^3); ok {
			issued++
		}
	}
	if issued > 5 {
		t.Errorf("issued %d prefetches on random addresses", issued)
	}
}

func TestRPTZeroStrideSuppressed(t *testing.T) {
	r := NewRPT(DefaultRPTConfig())
	for i := 0; i < 20; i++ {
		if _, ok := r.Observe(0x100, 0x5000); ok {
			t.Fatal("constant address must not trigger prefetches")
		}
	}
}

func TestRPTDegree(t *testing.T) {
	cfg := DefaultRPTConfig()
	cfg.Degree = 4
	r := NewRPT(cfg)
	var pf uint32
	for i := 0; i < 10; i++ {
		if a, ok := r.Observe(0x100, uint32(0x2000+8*i)); ok {
			pf = a
		}
	}
	if pf != 0x2000+8*9+4*8 {
		t.Errorf("degree-4 prefetch = %#x", pf)
	}
}

func TestRPTConfidenceResetOnBreak(t *testing.T) {
	r := NewRPT(DefaultRPTConfig())
	for i := 0; i < 10; i++ {
		r.Observe(0x100, uint32(0x1000+8*i))
	}
	// Break the stride; the next observation must not prefetch.
	r.Observe(0x100, 0x9000)
	if _, ok := r.Observe(0x100, 0x9008); ok {
		t.Error("prefetch issued before confidence rebuilt")
	}
}

func TestRPTGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRPT(RPTConfig{Entries: 1000})
}

func TestNextLine(t *testing.T) {
	n := NewNextLine(32)
	if n.Name() != "next-line" {
		t.Error("name")
	}
	pf, ok := n.Observe(0x1, 0x1000)
	if !ok || pf != 0x1020 {
		t.Errorf("next-line prefetch = %#x ok=%v", pf, ok)
	}
	if NewNextLine(0).LineBytes != 32 {
		t.Error("default line size")
	}
}

func TestRPTName(t *testing.T) {
	if NewRPT(DefaultRPTConfig()).Name() != "rpt-stride" {
		t.Error("name")
	}
}

// TestRPTResetMatchesFresh trains a table on one stream, resets it, and
// requires the same proposals on a second stream as a fresh table.
func TestRPTResetMatchesFresh(t *testing.T) {
	stream := func(r *RPT, seed uint32) []uint32 {
		var out []uint32
		x := seed
		for i := 0; i < 400; i++ {
			x = x*1664525 + 1013904223
			ip := 0x100 + 4*(x>>28)
			if pf, ok := r.Observe(ip, uint32(0x2000+32*i)+(x>>30)*8); ok {
				out = append(out, pf)
			} else {
				out = append(out, 0)
			}
		}
		return out
	}
	used := NewRPT(DefaultRPTConfig())
	stream(used, 1)
	used.Reset()
	got, want := stream(used, 2), stream(NewRPT(DefaultRPTConfig()), 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("proposal %d after Reset = %#x, fresh %#x", i, got[i], want[i])
		}
	}
}
