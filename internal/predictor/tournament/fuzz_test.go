package tournament

import (
	"testing"

	"capred/internal/pipeline"
	"capred/internal/predictor"
)

// smallPair builds the hybrid and its two-way tournament replica over
// deliberately tiny tables so fuzzed streams exercise collisions,
// evictions and selector saturation quickly. The load buffer has 8
// entries in 4 sets of 2 ways, so the 16 static loads of the fuzzer
// (and the 32 of TestPaperPairMatchesHybrid) evict one another
// constantly; the LT has 64 entries with 4-bit tags. Both sides get
// identical component configurations and size their one LB from
// CAP.LBEntries/LBWays.
func smallPair() (*predictor.Hybrid, *Tournament) {
	hc := predictor.DefaultHybridConfig()
	hc.CAP.LBEntries = 8
	hc.CAP.LBWays = 2
	hc.CAP.LTEntries = 64
	hc.CAP.TagBits = 4
	hc.CAP.PFTableEntries = 256
	tour := New(Config{
		Entries:    hc.CAP.LBEntries,
		Ways:       hc.CAP.LBWays,
		CounterMax: 3,
	}, predictor.NewStrideComponent(hc.Stride), predictor.NewCAPComponent(hc.CAP))
	return predictor.NewHybrid(hc), tour
}

// evictingSeed cycles three static loads that share LB set 0 (IPs 0,
// 16 and 32), each walking its own stride, so every access past the
// second evicts the least recently used of the three — under a gap,
// between a load's Predict and its Resolve. Every seventh record also
// requests a wrong-path squash.
func evictingSeed() []byte {
	var seed []byte
	for k := 0; k < 60; k++ {
		load := byte(k % 3)
		ctl := byte(0)
		if k%7 == 6 {
			ctl = 0x30
		}
		n := byte(k / 3)
		seed = append(seed, load*4|ctl, load<<4, n*8, 0x80|load<<3)
	}
	return seed
}

// diffStep compares two predictions field for field.
func diffStep(t *testing.T, step int, ph, pt predictor.Prediction) {
	t.Helper()
	if ph != pt {
		t.Fatalf("step %d: tournament diverged from hybrid:\nhybrid     %+v\ntournament %+v", step, ph, pt)
	}
}

// FuzzTournamentSelector is the differential fuzzer of the equivalence
// claim: a two-way tournament configured as stride+CAP is
// decision-identical to the paper's Hybrid — same chosen component,
// same selector state, same confidence gating — in immediate mode and
// under a prediction gap with wrong-path squashes mixed in.
func FuzzTournamentSelector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0xFF, 0x80, 0x40, 0x20})
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i*61 + 7)
	}
	f.Add(seed)
	f.Add(evictingSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, gap := range []int{0, 4} {
			h, tour := smallPair()
			gh := pipeline.New(h, gap)
			gt := pipeline.New(tour, gap)
			var ghr predictor.GHR
			var path predictor.PathHist
			in := data
			for step := 0; len(in) >= 4; step++ {
				// A tiny IP space (16 static loads) plus low-entropy
				// addresses makes strides, repeats and collisions all
				// common; two control bits drive history updates and one
				// triggers a wrong-path squash.
				ip := uint32(in[0]&0xF) * 4
				addr := uint32(in[1])<<4 | uint32(in[2])
				offset := int32(in[3] & 0x3F)
				ghr.Update(in[3]&0x80 != 0)
				if in[3]&0x40 != 0 {
					path.Push(ip)
				}
				squash := in[0]&0x30 == 0x30
				in = in[4:]

				ref := predictor.LoadRef{IP: ip, Offset: offset, GHR: ghr.Value(), Path: path.Value()}
				diffStep(t, step, gh.Process(ref, addr), gt.Process(ref, addr))
				if squash {
					if nh, nt := gh.SquashNewest(1), gt.SquashNewest(1); nh != nt {
						t.Fatalf("step %d: squashed %d vs %d", step, nh, nt)
					}
				}
			}
			gh.Drain()
			gt.Drain()
			// The drained state must agree too: one more prediction per
			// static load compares the post-drain tables.
			for ip := uint32(0); ip < 16; ip++ {
				ref := predictor.LoadRef{IP: ip * 4, GHR: ghr.Value(), Path: path.Value()}
				diffStep(t, -1, gh.Process(ref, 0x1234), gt.Process(ref, 0x1234))
			}
		}
	})
}

// TestPaperPairMatchesHybrid pins the equivalence deterministically on
// a longer structured stream than fuzzing reaches, including a gap
// deeper than the tournament's initial in-flight ring (so ring growth
// is exercised) and periodic squashes.
func TestPaperPairMatchesHybrid(t *testing.T) {
	for _, gap := range []int{0, 4, 40} {
		h, tour := smallPair()
		gh := pipeline.New(h, gap)
		gt := pipeline.New(tour, gap)
		var ghr predictor.GHR
		var path predictor.PathHist
		rng := uint32(0x9E3779B9)
		next := func() uint32 { // xorshift: deterministic, seedless
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			return rng
		}
		for step := 0; step < 20_000; step++ {
			r := next()
			ip := (r & 0x1F) * 4
			var addr uint32
			switch r >> 30 {
			case 0: // strided
				addr = 0x1000 + uint32(step)*8
			case 1: // repeating walk
				addr = 0x8000 + (uint32(step)%7)*0x40
			default: // noise
				addr = next() & 0xFFFF
			}
			ghr.Update(r&0x100 != 0)
			if r&0x200 != 0 {
				path.Push(ip)
			}
			ref := predictor.LoadRef{IP: ip, Offset: int32(r >> 8 & 0x3F), GHR: ghr.Value(), Path: path.Value()}
			ph, pt := gh.Process(ref, addr), gt.Process(ref, addr)
			if ph != pt {
				t.Fatalf("gap %d step %d: hybrid %+v tournament %+v", gap, step, ph, pt)
			}
			if gap > 0 && r&0xF000 == 0xF000 {
				gh.SquashNewest(2)
				gt.SquashNewest(2)
			}
		}
		gh.Drain()
		gt.Drain()
	}
}
