package predictor_test

import (
	"fmt"
	"reflect"
	"testing"

	"capred/internal/pipeline"
	"capred/internal/predictor"
)

// resetCase builds one predictor configuration whose Reset the fuzzer
// checks against a fresh instance.
type resetCase struct {
	name  string
	build func() predictor.Predictor
}

// resetCases lists every predictor that implements Resetter, over
// tables small enough that the fuzzer's 16 static loads collide in the
// load buffer, the link table and the Markov and control tables: the
// stand-alone predictors of FuzzSoloMatchesOneWay, Fig. 9's
// no-confidence CAP, the hybrid under each update policy and static
// selector, the 3-way tournament, and both control-based predictors.
func resetCases() []resetCase {
	var out []resetCase
	for _, c := range soloCases() {
		out = append(out, resetCase{c.name, c.solo})
	}
	fig9 := predictor.DefaultCAPConfig()
	fig9.LBEntries, fig9.LBWays = 8, 2
	fig9.LTEntries, fig9.PFTableEntries = 64, 256
	fig9.ConfThreshold, fig9.TagBits, fig9.CF = 0, 0, predictor.NoCF()
	out = append(out, resetCase{"cap no-confidence", func() predictor.Predictor { return predictor.NewCAP(fig9) }})
	for _, hc := range hybridConfigs() {
		hc.CAP.LBEntries, hc.CAP.LBWays = 8, 2
		hc.CAP.LTEntries, hc.CAP.TagBits, hc.CAP.PFTableEntries = 64, 4, 256
		out = append(out, resetCase{"hybrid " + configName(hc), func() predictor.Predictor { return predictor.NewHybrid(hc) }})
	}
	capc := predictor.DefaultCAPConfig()
	capc.LTEntries, capc.TagBits, capc.PFTableEntries = 64, 4, 256
	markov := predictor.DefaultMarkovConfig()
	markov.TableEntries, markov.TagBits = 16, 2
	out = append(out, resetCase{"tournament 3-way", func() predictor.Predictor {
		return predictor.New(predictor.Config{Entries: 8, Ways: 2},
			predictor.NewStrideComponent(predictor.DefaultStrideConfig()),
			predictor.NewCAPComponent(capc), predictor.NewMarkov(markov))
	}})
	for _, path := range []bool{false, true} {
		cc := predictor.DefaultControlConfig(path)
		cc.Entries, cc.HistBits = 16, 2
		out = append(out, resetCase{fmt.Sprintf("control path=%v", path), func() predictor.Predictor { return predictor.NewControl(cc) }})
	}
	return out
}

// resetRecord is one decoded fuzzer record: a load, the branch and
// call history before it, and the wrong-path squash burst after it.
type resetRecord struct {
	ref   predictor.LoadRef
	addr  uint32
	burst int
}

// resetRecords decodes 4-byte records as FuzzSoloMatchesOneWay does,
// adding a call-path push when bit 6 of the fourth byte is set.
func resetRecords(in []byte) []resetRecord {
	var ghr predictor.GHR
	var path predictor.PathHist
	var out []resetRecord
	for ; len(in) >= 4; in = in[4:] {
		ip := uint32(in[0]&0xF) * 4
		ghr.Update(in[3]&0x80 != 0)
		if in[3]&0x40 != 0 {
			path.Push(ip)
		}
		r := resetRecord{
			ref:  predictor.LoadRef{IP: ip, Offset: int32(in[3] & 0x3F), GHR: ghr.Value(), Path: path.Value()},
			addr: uint32(in[1])<<4 | uint32(in[2]),
		}
		if in[0]&0x30 == 0x30 {
			r.burst = int(in[0]>>6) + 1
		}
		out = append(out, r)
	}
	return out
}

// ledgers is what a predictor reports beyond its predictions: the
// tournament's Fig. 8 and per-entrant selection ledgers.
func ledgers(p predictor.Predictor) (predictor.SelectorStats, []predictor.ComponentStat) {
	if t, ok := p.(*predictor.Tournament); ok {
		return t.SelectorStats(), t.ComponentStats()
	}
	return predictor.SelectorStats{}, nil
}

// FuzzResetMatchesFresh checks Reset against a fresh instance: a
// predictor that ran stream A at the fuzzed gap (0–8, the first input
// byte), with squash bursts and loads still in flight, and was then
// Reset, must make every prediction a fresh instance makes on stream B
// and end with the same counters and ledgers. A is the first n records
// of B, n from the second input byte, so A trains exactly the entries
// B reads.
func FuzzResetMatchesFresh(f *testing.F) {
	random := make([]byte, 96)
	for i := range random {
		random[i] = byte(i*61 + 7)
	}
	for _, seed := range [][]byte{{}, random, evictingSeed(), confidentSeed()} {
		for _, gap := range []byte{0, 4, 8} {
			f.Add(append([]byte{gap, 200}, seed...))
		}
	}
	cases := resetCases()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		gap := int(data[0] % 9)
		b := resetRecords(data[2:])
		a := b[:min(int(data[1]), len(b))]
		for _, c := range cases {
			name := fmt.Sprintf("%s gap=%d", c.name, gap)
			reused := c.build()
			ga := pipeline.New(reused, gap)
			for _, r := range a {
				ga.Process(r.ref, r.addr)
				ga.SquashNewest(r.burst)
			}
			reused.(predictor.Resetter).Reset()

			fresh := c.build()
			gr, gf := pipeline.New(reused, gap), pipeline.New(fresh, gap)
			var tr, tf soloTally
			for step, r := range b {
				pr, pf := gr.Process(r.ref, r.addr), gf.Process(r.ref, r.addr)
				if pr != pf {
					t.Fatalf("%s step %d: reset %+v, fresh %+v", name, step, pr, pf)
				}
				tr.add(pr, r.addr)
				tf.add(pf, r.addr)
				if nr, nf := gr.SquashNewest(r.burst), gf.SquashNewest(r.burst); nr != nf {
					t.Fatalf("%s step %d: squashed %d vs %d", name, step, nr, nf)
				}
			}
			gr.Drain()
			gf.Drain()
			if tr != tf {
				t.Fatalf("%s: counters diverged: reset %+v, fresh %+v", name, tr, tf)
			}
			sr, cr := ledgers(reused)
			sf, cf := ledgers(fresh)
			if sr != sf || !reflect.DeepEqual(cr, cf) {
				t.Fatalf("%s: ledgers diverged: reset %+v %+v, fresh %+v %+v", name, sr, cr, sf, cf)
			}
		}
	})
}
