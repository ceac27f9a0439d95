package predictor_test

import (
	"fmt"
	"testing"

	"capred/internal/pipeline"
	"capred/internal/predictor"
)

// soloCase is a stand-alone predictor and a builder of the entrant it
// wraps, both over the same configuration.
type soloCase struct {
	name string
	solo func() predictor.Predictor
	comp func() predictor.Entrant
}

// soloCases lists the stand-alone predictors, each over an 8-entry,
// 2-way load buffer, so the 16 static loads of the fuzzer evict one
// another constantly. CAP runs twice: the simple control-flow
// indications read the outcome's speculate flag, which the default
// per-path table ignores.
func soloCases() []soloCase {
	last := predictor.DefaultLastConfig()
	last.Entries, last.Ways = 8, 2
	stride := predictor.DefaultStrideConfig()
	stride.Entries, stride.Ways = 8, 2
	basic := predictor.BasicStrideConfig()
	basic.Entries, basic.Ways = 8, 2
	capc := predictor.DefaultCAPConfig()
	capc.LBEntries, capc.LBWays = 8, 2
	capc.LTEntries, capc.TagBits, capc.PFTableEntries = 64, 4, 256
	simple := capc
	simple.CF.Table = false
	return []soloCase{
		{"last", func() predictor.Predictor { return predictor.NewLast(last) },
			func() predictor.Entrant { return predictor.NewLastComponent(last) }},
		{"stride", func() predictor.Predictor { return predictor.NewStride(stride) },
			func() predictor.Entrant { return predictor.NewStrideComponent(stride) }},
		{"stride-basic", func() predictor.Predictor { return predictor.NewStride(basic) },
			func() predictor.Entrant { return predictor.NewStrideComponent(basic) }},
		{"cap", func() predictor.Predictor { return predictor.NewCAP(capc) },
			func() predictor.Entrant { return predictor.NewCAPComponent(capc) }},
		{"cap cf-simple", func() predictor.Predictor { return predictor.NewCAP(simple) },
			func() predictor.Entrant { return predictor.NewCAPComponent(simple) }},
	}
}

// soloTally is the counters a run leaves: loads predicted, speculated,
// speculated correctly and mispredicted.
type soloTally struct {
	predicted, speculated, correct, mispredicted int
}

func (c *soloTally) add(p predictor.Prediction, actual uint32) {
	if p.Predicted {
		c.predicted++
	}
	if p.Speculate {
		c.speculated++
		if p.Addr == actual {
			c.correct++
		}
	}
	if p.Mispredicted(actual) {
		c.mispredicted++
	}
}

// diffSolo requires the stand-alone prediction to equal the one-way
// tournament's in every field, Selected on an unpredicted load
// included.
func diffSolo(t *testing.T, name string, step int, ps, pt predictor.Prediction) {
	t.Helper()
	if ps != pt {
		t.Fatalf("%s step %d: stand-alone %+v, one-way tournament %+v", name, step, ps, pt)
	}
}

// FuzzSoloMatchesOneWay is the differential fuzzer of the stand-alone
// wrapper: last, stride, basic stride and CAP, each run stand-alone and
// as a one-way tournament over the same component and LB geometry,
// make the same prediction on every load and leave the same counters,
// at the fuzzed prediction gap (0–8, the first input byte) and with
// fuzzed bursts of wrong-path squashes.
func FuzzSoloMatchesOneWay(f *testing.F) {
	random := make([]byte, 96)
	for i := range random {
		random[i] = byte(i*61 + 7)
	}
	// One load grows confident on one address, then moves once: a
	// speculated misprediction, which the simple control-flow
	// indications record from the outcome.
	var moved []byte
	for k := 0; k < 16; k++ {
		addr := byte(0x10)
		if k == 8 {
			addr = 0x20
		}
		moved = append(moved, 0, addr, 0, 0)
	}
	for _, seed := range [][]byte{{}, random, evictingSeed(), confidentSeed(), moved} {
		for _, gap := range []byte{0, 4, 8} {
			f.Add(append([]byte{gap}, seed...))
		}
	}
	cases := soloCases()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		gap := int(data[0] % 9)
		for _, c := range cases {
			name := fmt.Sprintf("%s gap=%d", c.name, gap)
			gs := pipeline.New(c.solo(), gap)
			gt := pipeline.New(predictor.New(predictor.Config{Entries: 8, Ways: 2}, c.comp()), gap)
			var ts, tt soloTally
			var ghr predictor.GHR
			in := data[1:]
			for step := 0; len(in) >= 4; step++ {
				// Records as in FuzzTournamentSelector: 16 static
				// loads, low-entropy addresses, a branch outcome, and a
				// wrong-path squash of 1–4 predictions when bits 4 and 5
				// of the first byte are set.
				ip := uint32(in[0]&0xF) * 4
				addr := uint32(in[1])<<4 | uint32(in[2])
				offset := int32(in[3] & 0x3F)
				ghr.Update(in[3]&0x80 != 0)
				burst := 0
				if in[0]&0x30 == 0x30 {
					burst = int(in[0]>>6) + 1
				}
				in = in[4:]

				ref := predictor.LoadRef{IP: ip, Offset: offset, GHR: ghr.Value()}
				ps, pt := gs.Process(ref, addr), gt.Process(ref, addr)
				diffSolo(t, name, step, ps, pt)
				ts.add(ps, addr)
				tt.add(pt, addr)
				if ns, nt := gs.SquashNewest(burst), gt.SquashNewest(burst); ns != nt {
					t.Fatalf("%s step %d: squashed %d vs %d", name, step, ns, nt)
				}
			}
			gs.Drain()
			gt.Drain()
			// One more prediction per static load compares the drained
			// tables.
			for ip := uint32(0); ip < 16; ip++ {
				ref := predictor.LoadRef{IP: ip * 4, GHR: ghr.Value()}
				ps, pt := gs.Process(ref, 0x1234), gt.Process(ref, 0x1234)
				diffSolo(t, name, -1, ps, pt)
				ts.add(ps, 0x1234)
				tt.add(pt, 0x1234)
			}
			if ts != tt {
				t.Fatalf("%s: counters diverged: stand-alone %+v, one-way tournament %+v", name, ts, tt)
			}
		}
	})
}
