package predictor

import "testing"

// feed predicts one load and resolves it at once with addr, the
// paper's immediate update, returning the prediction.
func feed(p Predictor, ip, addr uint32) Prediction {
	ref := LoadRef{IP: ip}
	pr := p.Predict(ref)
	p.Resolve(ref, pr, addr)
	return pr
}

func TestMarkovWarmupAndPattern(t *testing.T) {
	cfg := DefaultMarkovConfig()
	m := newSolo(NewMarkov(cfg), 64, 2)

	// A repeating +8,+8,+120 stride pattern (array-of-structs walk).
	strides := []uint32{8, 8, 120}
	addr := uint32(0x1000)
	var got []Prediction
	for i := 0; i < 30; i++ {
		got = append(got, feed(&m, 0x40, addr))
		addr += strides[i%len(strides)]
	}

	// Warm-up: the first occurrence establishes last, the next HistLen
	// fill the history, and training starts only after that — so no
	// table hit is possible before 2*HistLen+1 occurrences (the pattern
	// period must also repeat once for the trained entry to be reused).
	for i := 0; i <= 2*cfg.HistLen; i++ {
		if got[i].Predicted {
			t.Fatalf("occurrence %d: predicted during warm-up", i)
		}
	}
	// Steady state: every stride in the period is predicted exactly.
	// (The prediction at occurrence i is for a_i itself — the address
	// the load is about to produce.)
	addrCheck := uint32(0x1000)
	for i := 0; i < 30; i++ {
		if i >= 3*len(strides) {
			if !got[i].Predicted || got[i].Addr != addrCheck {
				t.Fatalf("occurrence %d: got %+v, want predicted addr %#x", i, got[i], addrCheck)
			}
		}
		addrCheck += strides[i%len(strides)]
	}
	// Confidence saturates on the repeating pattern.
	cp := m.Predict(LoadRef{IP: 0x40})
	if !cp.Speculate {
		t.Fatalf("steady-state Markov prediction not confident: %+v", cp)
	}
}

// TestMarkovTagRejectsAliases finds two single-stride histories that
// collide on the table index but differ in tag, and checks that the
// tag match turns cross-load pollution into a quiet miss.
func TestMarkovTagRejectsAliases(t *testing.T) {
	cfg := MarkovConfig{
		TableEntries: 16, TagBits: 8,
		HistLen: 1, ConfMax: 3, ConfThreshold: 2,
	}
	m := NewMarkov(cfg)
	o := newSolo(m, 64, 2)

	// Search stride space for an index collision with distinct tags,
	// using the component's own hash so the test tracks the geometry.
	histOf := func(s int32) uint32 { return m.advance(0, s) }
	var sA, sB int32 = -1, -1
	idxA, tagA := m.split(histOf(64))
outer:
	for s := int32(68); s < 1<<20; s += 4 {
		idx, tag := m.split(histOf(s))
		if idx == idxA && tag != tagA {
			sA, sB = 64, s
			break outer
		}
	}
	if sB < 0 {
		t.Fatal("no colliding stride pair found; geometry changed?")
	}

	// Load A trains: history(sA) → next stride sA (constant stride).
	addr := uint32(0x1000)
	for i := 0; i < 8; i++ {
		feed(&o, 0x10, addr)
		addr += uint32(sA)
	}
	if cp := o.Predict(LoadRef{IP: 0x10}); !cp.Predicted {
		t.Fatalf("load A not predicting after training: %+v", cp)
	}

	// Load B reaches the same table index with a different tag. Two
	// occurrences make B warm (one stride in its history) without yet
	// training its own table entry, so the lookup lands on load A's
	// entry — and must get a miss (no prediction), not load A's stride.
	addr = uint32(0x8000)
	for i := 0; i < 2; i++ {
		feed(&o, 0x20, addr)
		addr += uint32(sB)
	}
	cp := o.Predict(LoadRef{IP: 0x20})
	if cp.Predicted {
		t.Fatalf("tag failed to reject alias: load B predicted %+v (load A's entry)", cp)
	}

	// With tagging disabled the same collision silently serves load A's
	// stride to load B — the pollution the tag exists to stop.
	cfg.TagBits = 0
	m = NewMarkov(cfg)
	o = newSolo(m, 64, 2)
	// Geometry changed (tag bits folded out of the history); re-find a
	// colliding pair by index only.
	idxA, _ = m.split(m.advance(0, 64))
	sB = -1
	for s := int32(68); s < 1<<20; s += 4 {
		if idx, _ := m.split(m.advance(0, s)); idx == idxA {
			sB = s
			break
		}
	}
	if sB < 0 {
		t.Fatal("no untagged collision found")
	}
	addr = 0x1000
	for i := 0; i < 8; i++ {
		feed(&o, 0x10, addr)
		addr += 64
	}
	addr = 0x8000
	for i := 0; i < 2; i++ {
		feed(&o, 0x20, addr)
		addr += uint32(sB)
	}
	cp = o.Predict(LoadRef{IP: 0x20})
	if !cp.Predicted || cp.Addr != addr-uint32(sB)+64 {
		t.Fatalf("untagged alias should serve load A's stride 64: %+v", cp)
	}
}
