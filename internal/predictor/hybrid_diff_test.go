package predictor_test

import (
	"fmt"
	"testing"

	"capred/internal/pipeline"
	"capred/internal/predictor"
)

// hybridConfigs lists every hybrid configuration callers build: the
// dynamic selector and the two static-selector ablations, each under
// the three §4.3 link-table update policies.
func hybridConfigs() []predictor.HybridConfig {
	var out []predictor.HybridConfig
	for _, sel := range []predictor.Component{predictor.CompNone, predictor.CompStride, predictor.CompCAP} {
		for _, pol := range []predictor.UpdatePolicy{predictor.UpdateAlways, predictor.UpdateUnlessStrideCorrect, predictor.UpdateUnlessStrideSelected} {
			cfg := predictor.DefaultHybridConfig()
			cfg.StaticSelector, cfg.UpdatePolicy = sel, pol
			out = append(out, cfg)
		}
	}
	return out
}

// opinionated is what the differential tests drive on each side: a
// predictor that reports its youngest load's stride and CAP opinions
// and keeps the Fig. 8 ledger.
type opinionated interface {
	predictor.Predictor
	predictor.Squasher
	NewestOpinions() predictor.Opinions
	SelectorStats() predictor.SelectorStats
}

// spy records each load's opinions right after Predict, before the
// pipeline resolves it.
type spy struct {
	opinionated
	last predictor.Opinions
}

func (s *spy) Predict(ref predictor.LoadRef) predictor.Prediction {
	p := s.opinionated.Predict(ref)
	s.last = s.NewestOpinions()
	return p
}

// smallPair builds NewHybrid and the frozen reference over deliberately
// tiny tables, so fuzzed streams exercise collisions, evictions and
// selector saturation quickly. The load buffer has 8 entries in 4 sets
// of 2 ways, so the 16 static loads of the fuzzer (and the 32 of
// TestHybridMatchesReference) evict one another constantly; the LT has
// 64 entries with 4-bit tags.
func smallPair(cfg predictor.HybridConfig) (ref, tour *spy) {
	cfg.CAP.LBEntries = 8
	cfg.CAP.LBWays = 2
	cfg.CAP.LTEntries = 64
	cfg.CAP.TagBits = 4
	cfg.CAP.PFTableEntries = 256
	return &spy{opinionated: predictor.NewReferenceHybrid(cfg)}, &spy{opinionated: predictor.NewHybrid(cfg)}
}

func configName(cfg predictor.HybridConfig) string {
	return fmt.Sprintf("static=%s policy=%s", cfg.StaticSelector, cfg.UpdatePolicy)
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

// confidentSeed trains four static loads that sit in four different LB
// sets, so nothing evicts them: a constant address, a three-node walk,
// a stride and a second constant. Both components grow confident on
// the constants, which is where the static selector and the counters
// disagree on the pick. Every eleventh record also requests a
// wrong-path squash.
func confidentSeed() []byte {
	walk := []uint32{0x200, 0x340, 0x180}
	var seed []byte
	for k := 0; k < 120; k++ {
		load, n := k%4, uint32(k/4)
		var addr uint32
		switch load {
		case 0:
			addr = 0x100
		case 1:
			addr = walk[n%3]
		case 2:
			addr = 0x800 + 16*n
		case 3:
			addr = 0x3c0
		}
		ctl := byte(0)
		if k%11 == 10 {
			ctl = 0x30
		}
		seed = append(seed, byte(load)|ctl, byte(addr>>4), byte(addr&0xF), 0)
	}
	return seed
}

// diffStep compares the step's two predictions field for field, the
// stride and CAP opinions and selector state they were made from, and
// the two Fig. 8 ledgers so far.
func diffStep(t *testing.T, name string, step int, h, tour *spy, ph, pt predictor.Prediction) {
	t.Helper()
	if ph != pt {
		t.Fatalf("%s step %d: NewHybrid diverged from the reference:\nreference %+v\nNewHybrid %+v", name, step, ph, pt)
	}
	if h.last != tour.last {
		t.Fatalf("%s step %d: opinions diverged:\nreference %+v\nNewHybrid %+v", name, step, h.last, tour.last)
	}
	diffLedger(t, name, step, h, tour)
}

// diffLedger requires NewHybrid's selector ledger to equal the one the
// reference tallies by the frozen Fig. 8 rule.
func diffLedger(t *testing.T, name string, step int, h, tour *spy) {
	t.Helper()
	if sh, st := h.SelectorStats(), tour.SelectorStats(); sh != st {
		t.Fatalf("%s step %d: selector ledger diverged:\nreference %+v\nNewHybrid %+v", name, step, sh, st)
	}
}

// FuzzTournamentSelector is the differential fuzzer of the hybrid:
// NewHybrid's chooser makes the same decisions as the frozen reference
// selector — same chosen component, same stride and CAP opinions, same
// selector state, same confidence gating, same link-table updates, and
// the same Fig. 8 ledger — in immediate mode and
// under a prediction gap with wrong-path squashes mixed in. The first
// input byte picks the selector and update-policy configuration; every
// seed stream is added once per configuration.
func FuzzTournamentSelector(f *testing.F) {
	random := make([]byte, 96)
	for i := range random {
		random[i] = byte(i*61 + 7)
	}
	seeds := [][]byte{
		{},
		{0, 1, 2, 3, 0, 1, 2, 3, 0xFF, 0x80, 0x40, 0x20},
		random,
		evictingSeed(),
		confidentSeed(),
	}
	configs := hybridConfigs()
	for _, seed := range seeds {
		for i := range configs {
			f.Add(append([]byte{byte(i)}, seed...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := configs[int(data[0])%len(configs)]
		for _, gap := range []int{0, 4} {
			name := fmt.Sprintf("%s gap=%d", configName(cfg), gap)
			h, tour := smallPair(cfg)
			gh := pipeline.New(h, gap)
			gt := pipeline.New(tour, gap)
			var ghr predictor.GHR
			var path predictor.PathHist
			in := data[1:]
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
				diffStep(t, name, step, h, tour, gh.Process(ref, addr), gt.Process(ref, addr))
				if squash {
					if nh, nt := gh.SquashNewest(1), gt.SquashNewest(1); nh != nt {
						t.Fatalf("%s step %d: squashed %d vs %d", name, step, nh, nt)
					}
				}
			}
			gh.Drain()
			gt.Drain()
			diffLedger(t, name, -1, h, tour)
			// The drained state must agree too: one more prediction per
			// static load compares the post-drain tables.
			for ip := uint32(0); ip < 16; ip++ {
				ref := predictor.LoadRef{IP: ip * 4, GHR: ghr.Value(), Path: path.Value()}
				diffStep(t, name, -1, h, tour, gh.Process(ref, 0x1234), gt.Process(ref, 0x1234))
			}
		}
	})
}

// runAddr is the address offset of a walk's n-th instance: stride-8
// runs that restart at 0, with run lengths taken in turn from lens.
func runAddr(n uint32, lens []uint32) uint32 {
	for i := 0; n >= lens[i%len(lens)]; i++ {
		n -= lens[i%len(lens)]
	}
	return n * 8
}

// TestHybridMatchesReference pins the equivalence deterministically on
// a longer structured stream than fuzzing reaches, for every selector
// and update-policy configuration, including a gap deeper than the
// chooser's initial in-flight ring (so ring growth is exercised) and
// periodic squashes. Besides each load's prediction, opinions and
// selector state, the two Fig. 8 ledgers must agree after every step.
// The stream has three phases:
//   - four static loads in four LB sets, so both components grow
//     confident;
//   - four walks of stride-8 runs, three of length 6, then two of
//     length 12, each walk recurring only every 44 loads (four
//     constant fillers take the other ways of the LB sets), so that
//     even at gap 40 no instance is in flight when the next is
//     predicted. Both components grow confident on a run and disagree
//     where it ends: stride continues the run, CAP repeats what
//     followed the same history last time. The selector moves both ways,
//     and every configuration files dual-confident loads under at
//     least two selector states;
//   - 32 static loads spread over the 8-entry LB.
func TestHybridMatchesReference(t *testing.T) {
	walkBase := []uint32{0x2000, 0x2a14, 0x3528, 0x4f3c} // no LT index aliasing
	walkLens := []uint32{6, 6, 6, 12, 12}
	var total predictor.SelectorStats
	for _, cfg := range hybridConfigs() {
		for _, gap := range []int{0, 4, 40} {
			name := fmt.Sprintf("%s gap=%d", configName(cfg), gap)
			h, tour := smallPair(cfg)
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
			var hot [4]uint32   // per-load instance counts of the first phase
			var walks [4]uint32 // per-walk instance counts of the second
			for step := 0; step < 25_000; step++ {
				r := next()
				ip := (r & 0x1F) * 4
				offset := int32(r >> 8 & 0x3F)
				var addr uint32
				steady := false // no history updates, so the CF path stays put
				switch {
				case step < 5_000:
					load := r & 3
					ip, offset = load*4, 0
					n := hot[load]
					hot[load]++
					switch load {
					case 0, 3: // constant
						addr = 0x5000 + load*0x100
					case 1: // walk
						addr = 0x8000 + (n%7)*0x40
					case 2: // stride
						addr = 0x1000 + n*8
					}
				case step < 15_000:
					steady, offset = true, 0
					if w := uint32(step/11) & 3; step%11 == 0 {
						ip, addr = w*4, walkBase[w]+runAddr(walks[w], walkLens)
						walks[w]++
					} else {
						f := uint32(step) & 3
						ip, addr = 16+f*4, 0x2f00+f*0x10
					}
				case r>>30 == 0: // strided
					addr = 0x1000 + uint32(step)*8
				case r>>30 == 1: // repeating walk
					addr = 0x8000 + (uint32(step)%7)*0x40
				default: // noise
					addr = next() & 0xFFFF
				}
				if !steady {
					ghr.Update(r&0x100 != 0)
					if r&0x200 != 0 {
						path.Push(ip)
					}
				}
				ref := predictor.LoadRef{IP: ip, Offset: offset, GHR: ghr.Value(), Path: path.Value()}
				diffStep(t, name, step, h, tour, gh.Process(ref, addr), gt.Process(ref, addr))
				if gap > 0 && r&0xF000 == 0xF000 {
					gh.SquashNewest(2)
					gt.SquashNewest(2)
				}
			}
			gh.Drain()
			gt.Drain()
			diffLedger(t, name, -1, h, tour)
			sel := h.SelectorStats()
			states := 0
			for _, n := range sel.States {
				if n > 0 {
					states++
				}
			}
			if states < 2 {
				t.Errorf("%s: dual-confident loads filed under %d selector state(s), want at least 2: %+v", name, states, sel)
			}
			total.Merge(sel)
		}
	}
	// The ledger comparison must not be vacuous: the stream has to reach
	// dual-confident loads and mis-selections.
	if total.DualConfident == 0 || total.MisSelected == 0 {
		t.Fatalf("ledger went untested: %+v", total)
	}
}
