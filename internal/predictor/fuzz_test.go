package predictor

import (
	"encoding/binary"
	"testing"
)

// fuzzCAPConfig is a deliberately tiny link table so fuzzed histories
// collide constantly: 64 direct-mapped entries, 4-bit tags, in-LT PF
// bits (PFTableEntries = 0) — the configuration whose gate state lives
// in the same entry the link does.
func fuzzCAPConfig() CAPConfig {
	cfg := DefaultCAPConfig()
	cfg.LTEntries = 64
	cfg.LTWays = 1
	cfg.TagBits = 4
	cfg.HistoryLen = 2
	cfg.PFBits = 4
	cfg.PFTableEntries = 0
	return cfg
}

// shadowLT is an independent reimplementation of the direct-mapped link
// table with in-LT PF bits, used as the differential oracle: the real
// CAPComponent must agree with it on every lookup after every update.
type shadowLT struct {
	link      [64]uint32
	tag       [64]uint16
	linkValid [64]bool
	pf        [64]uint8
	pfValid   [64]bool
}

func (s *shadowLT) split(hist uint32) (int, uint16) {
	return int(hist & 63), uint16(hist >> 6 & 0xF)
}

func (s *shadowLT) update(hist, base uint32) {
	idx, tag := s.split(hist)
	pfNew := uint8(base >> 2 & 0xF)
	// PF hysteresis (§3.5): the link is written only when the same PF
	// value hit this entry on the immediately preceding update.
	gate := s.pfValid[idx] && s.pf[idx] == pfNew
	s.pf[idx], s.pfValid[idx] = pfNew, true
	if !gate {
		return
	}
	s.link[idx], s.tag[idx], s.linkValid[idx] = base, tag, true
}

func (s *shadowLT) lookup(hist uint32) (uint32, bool, bool) {
	idx, tag := s.split(hist)
	if !s.linkValid[idx] {
		return 0, false, false
	}
	return s.link[idx], true, s.tag[idx] == tag
}

// FuzzCAPLookupUpdate differentially fuzzes the link table: every
// (hist, base) update stream must leave the real table and the shadow
// model in agreement, which pins the index/tag split, the tag-confidence
// signal and the PF-bit write gate all at once.
func FuzzCAPLookupUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		core := NewCAPComponent(fuzzCAPConfig())
		var shadow shadowLT
		for len(data) >= 8 {
			hist := binary.LittleEndian.Uint32(data) & core.histMsk
			base := binary.LittleEndian.Uint32(data[4:])
			data = data[8:]

			core.ltUpdate(hist, base)
			shadow.update(hist, base)

			gotLink, gotOK, gotTag := core.ltLookup(hist)
			wantLink, wantOK, wantTag := shadow.lookup(hist)
			if gotOK != wantOK || gotTag != wantTag || (gotOK && gotLink != wantLink) {
				t.Fatalf("ltLookup(%#x) = (%#x, %v, %v), shadow says (%#x, %v, %v)",
					hist, gotLink, gotOK, gotTag, wantLink, wantOK, wantTag)
			}
		}
	})
}

// TestPFBitHysteresis pins the §3.5 gate deterministically: a link is
// recorded only on the second consecutive sighting of the same PF value,
// and an intervening different PF value restarts the sequence.
func TestPFBitHysteresis(t *testing.T) {
	core := NewCAPComponent(fuzzCAPConfig())
	const hist = 0x2A
	baseA := uint32(0x1000) // PF = bits 2..5 of the base
	baseB := uint32(0x1004) // different PF value, same LT index

	core.ltUpdate(hist, baseA)
	if _, ok, _ := core.ltLookup(hist); ok {
		t.Fatal("link written on first sighting; PF gate should hold it back")
	}
	core.ltUpdate(hist, baseB) // different PF: gate stays closed, PF field now B
	if _, ok, _ := core.ltLookup(hist); ok {
		t.Fatal("link written after alternating PF values")
	}
	core.ltUpdate(hist, baseB) // second consecutive sighting of B
	link, ok, tagOK := core.ltLookup(hist)
	if !ok || !tagOK || link != baseB {
		t.Fatalf("second sighting should record the link: link=%#x ok=%v tagOK=%v", link, ok, tagOK)
	}
	// Overwrite requires its own double sighting.
	core.ltUpdate(hist, baseA)
	if link, _, _ := core.ltLookup(hist); link != baseB {
		t.Fatalf("single sighting overwrote the link: %#x", link)
	}
	core.ltUpdate(hist, baseA)
	if link, _, _ := core.ltLookup(hist); link != baseA {
		t.Fatalf("double sighting should overwrite the link: %#x", link)
	}
}

// fuzzHybridConfig shrinks the hybrid's tables so fuzz inputs exercise
// collisions and evictions quickly.
func fuzzHybridConfig() HybridConfig {
	cfg := DefaultHybridConfig()
	cfg.CAP.LBEntries = 64
	cfg.CAP.LBWays = 2
	cfg.CAP.LTEntries = 64
	cfg.CAP.TagBits = 4
	cfg.CAP.PFTableEntries = 256
	return cfg
}

// FuzzHybridSelector drives the full hybrid predictor over fuzzed load
// streams and asserts its state-machine invariants: no panics, selector
// counters stay 2-bit and move at most one state per resolution (and
// only when both components predicted with exactly one correct), and
// confidence counters never exceed ConfMax.
func FuzzHybridSelector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0xFF, 0x80, 0x40, 0x20})
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i*61 + 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzHybridConfig()
		h := NewHybrid(cfg)
		var ghr GHR
		var path PathHist
		for len(data) >= 4 {
			// A tiny IP space (16 static loads) plus low-entropy addresses
			// makes strides, repeats and collisions all common.
			ip := uint32(data[0]&0xF) * 4
			addr := uint32(data[1])<<4 | uint32(data[2])
			offset := int32(data[3] & 0x3F)
			ghr.Update(data[3]&0x80 != 0)
			if data[3]&0x40 != 0 {
				path.Push(ip)
			}
			data = data[4:]

			ref := LoadRef{IP: ip, Offset: offset, GHR: ghr.Value(), Path: path.Value()}
			selBefore := uint8(SelWeakCAP)
			if slot, ok := h.lb.Lookup(ip); ok {
				selBefore = h.lb.At(slot).ctr[h.cap]
			}
			p := h.Predict(ref)
			op := h.NewestOpinions()
			if p.Speculate && !p.Predicted {
				t.Fatal("speculated without predicting")
			}
			if op.SelState > SelStrongCAP {
				t.Fatalf("selector state out of range: %d", op.SelState)
			}
			h.Resolve(ref, p, addr)

			slot, ok := h.lb.Lookup(ip)
			if !ok {
				t.Fatal("LB entry vanished between Predict and Resolve")
			}
			sel := h.lb.At(slot).ctr[h.cap]
			if sel > SelStrongCAP {
				t.Fatalf("selector left the 2-bit range: %d", sel)
			}
			diff := int(sel) - int(selBefore)
			if diff < -1 || diff > 1 {
				t.Fatalf("selector moved more than one state: %d -> %d", selBefore, sel)
			}
			if diff != 0 && !(op.Stride.Predicted && op.CAP.Predicted) {
				t.Fatalf("selector moved without both components predicting: %d -> %d", selBefore, sel)
			}
			strc, capc := hybridParts(h)
			if c := strc.st[slot].conf; c > cfg.Stride.ConfMax {
				t.Fatalf("stride confidence %d exceeds max %d", c, cfg.Stride.ConfMax)
			}
			if c := capc.st[slot].conf; c > cfg.CAP.ConfMax {
				t.Fatalf("cap confidence %d exceeds max %d", c, cfg.CAP.ConfMax)
			}
		}
	})
}
