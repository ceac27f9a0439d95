package cpu

import (
	"errors"
	"testing"

	"capred/internal/predictor"
	"capred/internal/prefetch"
	"capred/internal/trace"
	"capred/internal/workload"
)

// aluTrace returns n independent ALU ops.
func aluTrace(n int) trace.Source {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.KindALU, IP: uint32(4 * i)}
	}
	return trace.NewSliceSource(evs)
}

// chainTrace returns n ALU ops where each depends on the previous.
func chainTrace(n int) trace.Source {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.KindALU, IP: uint32(4 * i)}
		if i > 0 {
			evs[i].Src1 = 1
		}
	}
	return trace.NewSliceSource(evs)
}

func TestIndependentALUBoundedByWidth(t *testing.T) {
	const n = 8000
	r := Run(aluTrace(n), nil, 0, DefaultConfig())
	if r.Instructions != n {
		t.Fatalf("retired %d, want %d", r.Instructions, n)
	}
	// 8-wide fetch, 10 FUs: IPC should approach 8.
	if ipc := r.IPC(); ipc < 6 {
		t.Errorf("independent ALU IPC = %.2f, want near the fetch width", ipc)
	}
}

func TestDependentChainSerialises(t *testing.T) {
	const n = 8000
	r := Run(chainTrace(n), nil, 0, DefaultConfig())
	// A single dependence chain of unit-latency ops: ~1 IPC.
	if ipc := r.IPC(); ipc > 1.2 {
		t.Errorf("chained ALU IPC = %.2f, want about 1", ipc)
	}
}

func TestFULimitBinds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FUs = 2
	cfg.FetchWidth = 8
	r := Run(aluTrace(8000), nil, 0, cfg)
	if ipc := r.IPC(); ipc > 2.2 {
		t.Errorf("IPC = %.2f with 2 FUs, want ≤ ~2", ipc)
	}
}

func TestBranchMispredictionsCostCycles(t *testing.T) {
	// Alternating taken/not-taken confuses the 2-bit counters less than
	// random; compare random outcomes vs all-taken.
	mk := func(rndTaken bool) trace.Source {
		evs := make([]trace.Event, 6000)
		x := uint32(12345)
		for i := range evs {
			taken := true
			if rndTaken {
				x = x*1664525 + 1013904223
				taken = x>>16&1 != 0 // high LCG bit: long period
			}
			evs[i] = trace.Event{Kind: trace.KindBranch, IP: 0x100, Taken: taken}
		}
		return trace.NewSliceSource(evs)
	}
	steady := Run(mk(false), nil, 0, DefaultConfig())
	random := Run(mk(true), nil, 0, DefaultConfig())
	if random.Cycles <= steady.Cycles {
		t.Errorf("random branches (%d cycles) should cost more than steady (%d)",
			random.Cycles, steady.Cycles)
	}
	if steady.BranchMispreds > random.BranchMispreds {
		t.Error("steady branches should mispredict less")
	}
}

// pointerChase builds a trace of loads where each load's address comes
// from the previous one (a linked-list walk), repeated over a small ring
// of addresses so a context predictor can learn it.
func pointerChase(n int) []trace.Event {
	addrs := []uint32{0x1010, 0x8058, 0x4024, 0x20c8, 0x60e4, 0x70a8}
	evs := make([]trace.Event, 0, 2*n)
	for i := 0; i < n; i++ {
		ev := trace.Event{
			Kind: trace.KindLoad, IP: 0x100,
			Addr: addrs[i%len(addrs)] + 8, Offset: 8,
		}
		if i > 0 {
			ev.Src1 = 2 // previous load (one ALU in between)
		}
		evs = append(evs, ev)
		evs = append(evs, trace.Event{Kind: trace.KindALU, IP: 0x200, Src1: 1})
	}
	return evs
}

func TestAddressPredictionSpeedsUpPointerChase(t *testing.T) {
	evs := pointerChase(6000)
	base := Run(trace.NewSliceSource(evs), nil, 0, DefaultConfig())
	pred := Run(trace.NewSliceSource(evs),
		predictor.NewHybrid(predictor.DefaultHybridConfig()), 0, DefaultConfig())
	if pred.Cycles >= base.Cycles {
		t.Fatalf("prediction did not help: base=%d pred=%d cycles", base.Cycles, pred.Cycles)
	}
	speedup := float64(base.Cycles) / float64(pred.Cycles)
	if speedup < 1.2 {
		t.Errorf("pointer-chase speedup = %.2f, want substantial", speedup)
	}
	if pred.CorrectSpec == 0 {
		t.Error("no correct speculative accesses recorded")
	}
}

func TestPredictionHelpsChainsMoreThanArrays(t *testing.T) {
	// §2: address prediction is the enabler for parallel execution of
	// recursive data structures, while strided code already pipelines.
	// The speedup on a dependent chain must exceed that on an array walk.
	arr := make([]trace.Event, 0, 12000)
	for i := 0; i < 6000; i++ {
		arr = append(arr, trace.Event{
			Kind: trace.KindLoad, IP: 0x100, Addr: uint32(0x100000 + 8*(i%512)),
		})
		arr = append(arr, trace.Event{Kind: trace.KindALU, IP: 0x200, Src1: 1})
	}
	speedup := func(evs []trace.Event) float64 {
		base := Run(trace.NewSliceSource(evs), nil, 0, DefaultConfig())
		pred := Run(trace.NewSliceSource(evs),
			predictor.NewHybrid(predictor.DefaultHybridConfig()), 0, DefaultConfig())
		return float64(base.Cycles) / float64(pred.Cycles)
	}
	chase := speedup(pointerChase(6000))
	array := speedup(arr)
	if chase <= array {
		t.Errorf("chain speedup (%.2f) should exceed array speedup (%.2f)", chase, array)
	}
}

func TestMispredictionPenaltyHurts(t *testing.T) {
	// A predictor that speculates wrongly on random addresses must not
	// beat the no-prediction baseline... construct random loads and a
	// hostile always-speculate predictor.
	evs := make([]trace.Event, 0, 8000)
	x := uint32(7)
	for i := 0; i < 4000; i++ {
		x = x*1664525 + 1013904223
		evs = append(evs, trace.Event{Kind: trace.KindLoad, IP: 0x100, Addr: x &^ 3})
		evs = append(evs, trace.Event{Kind: trace.KindALU, Src1: 1})
	}
	base := Run(trace.NewSliceSource(evs), nil, 0, DefaultConfig())
	hostile := Run(trace.NewSliceSource(evs), alwaysWrong{}, 0, DefaultConfig())
	if hostile.Cycles <= base.Cycles {
		t.Errorf("wrong speculation should cost cycles: base=%d hostile=%d",
			base.Cycles, hostile.Cycles)
	}
	if hostile.MispredSpec == 0 {
		t.Error("hostile predictor should record mispredictions")
	}
}

// alwaysWrong speculates a fixed wrong address for every load.
type alwaysWrong struct{}

func (alwaysWrong) Name() string { return "always-wrong" }
func (alwaysWrong) Predict(predictor.LoadRef) predictor.Prediction {
	return predictor.Prediction{Addr: 0xDEAD0000, Predicted: true, Speculate: true}
}
func (alwaysWrong) Resolve(predictor.LoadRef, predictor.Prediction, uint32) {}

func TestWindowLimitBinds(t *testing.T) {
	// A long-latency load at the head of a full window stalls fetch: a
	// tiny window must be slower than the default on miss-heavy code.
	evs := make([]trace.Event, 0, 20000)
	x := uint32(3)
	for i := 0; i < 5000; i++ {
		x = x*1664525 + 1013904223
		evs = append(evs, trace.Event{Kind: trace.KindLoad, IP: 0x100, Addr: x &^ 3})
		evs = append(evs, trace.Event{Kind: trace.KindALU}, trace.Event{Kind: trace.KindALU}, trace.Event{Kind: trace.KindALU})
	}
	small := DefaultConfig()
	small.Window = 16
	big := Run(trace.NewSliceSource(evs), nil, 0, DefaultConfig())
	tiny := Run(trace.NewSliceSource(evs), nil, 0, small)
	if tiny.Cycles <= big.Cycles {
		t.Errorf("16-entry window (%d cycles) should be slower than 128 (%d)",
			tiny.Cycles, big.Cycles)
	}
}

func TestRunOnRealWorkload(t *testing.T) {
	spec, ok := workload.ByName("INT_xli")
	if !ok {
		t.Fatal("INT_xli missing")
	}
	src := trace.NewLimit(spec.Open(), 60_000)
	base := Run(src, nil, 0, DefaultConfig())
	if base.Instructions != 60_000 {
		t.Fatalf("instructions = %d", base.Instructions)
	}
	if base.IPC() < 0.3 || base.IPC() > 8 {
		t.Errorf("baseline IPC = %.2f, implausible", base.IPC())
	}
	src2 := trace.NewLimit(spec.Open(), 60_000)
	pred := Run(src2, predictor.NewHybrid(predictor.DefaultHybridConfig()), 0, DefaultConfig())
	if pred.Cycles >= base.Cycles {
		t.Errorf("hybrid prediction should speed up INT_xli: base=%d pred=%d",
			base.Cycles, pred.Cycles)
	}
	if base.L1HitRate <= 0 || base.L1HitRate > 1 {
		t.Errorf("L1 hit rate = %v", base.L1HitRate)
	}
}

func TestResultIPCZeroCycles(t *testing.T) {
	var r Result
	if r.IPC() != 0 {
		t.Error("IPC of empty result should be 0")
	}
}

func TestPrefetcherRaisesHitRate(t *testing.T) {
	spec, _ := workload.ByName("MM_aud")
	base := Run(trace.NewLimit(spec.Open(), 60_000), nil, 0, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Prefetcher = prefetch.NewRPT(prefetch.DefaultRPTConfig())
	pf := Run(trace.NewLimit(spec.Open(), 60_000), nil, 0, cfg)
	if !(pf.L1HitRate > base.L1HitRate) {
		t.Errorf("prefetching did not raise L1 hit rate: %.3f vs %.3f",
			pf.L1HitRate, base.L1HitRate)
	}
	if pf.Cycles >= base.Cycles {
		t.Errorf("prefetching did not save cycles on streaming MM: %d vs %d",
			pf.Cycles, base.Cycles)
	}
}

func TestRingI64(t *testing.T) {
	r := newRing(8)
	for i := int64(0); i < 20; i++ {
		r.set(i, i*10)
	}
	// Recent entries are retrievable; negative indices read as zero.
	if r.get(19) != 190 || r.get(13) != 130 {
		t.Error("ring recent reads wrong")
	}
	if r.get(-1) != 0 {
		t.Error("negative index should read 0")
	}
}

func TestResourceReserveRespectsLimit(t *testing.T) {
	r := newResource(2, 64)
	c1 := r.reserve(10)
	c2 := r.reserve(10)
	c3 := r.reserve(10)
	if c1 != 10 || c2 != 10 {
		t.Errorf("first two reservations at 10: got %d, %d", c1, c2)
	}
	if c3 != 11 {
		t.Errorf("third reservation should spill to 11, got %d", c3)
	}
	// Earlier cycles can still be reserved if within the ring window.
	if c := r.reserve(5); c != 5 {
		t.Errorf("backfill reservation = %d, want 5", c)
	}
}

func TestTournamentLearnsLoopPattern(t *testing.T) {
	// Period-8 pattern TTTTTTTN: the local component must learn it.
	bp := newTournament(12, 10)
	misses := 0
	for i := 0; i < 4000; i++ {
		taken := i%8 != 7
		if bp.predict(0x40) != taken && i > 1000 {
			misses++
		}
		bp.update(0x40, taken)
	}
	if misses > 60 {
		t.Errorf("tournament mispredicted %d/3000 on a period-8 loop", misses)
	}
}

// garbage is the fill a soiled columnSource writes into every cell
// before scattering the event, so cells the event's kind does not carry
// hold it instead of zero.
type garbage struct {
	word uint32 // IP, Addr, Val and Offset cells
	src  uint32 // Src1 and Src2 cells
	lat  uint8
}

// columnSource delivers events as blocks of at most blockLen, each cell
// prefilled with zero (fill nil) or with fill's garbage before SetEvent
// writes the fields each kind carries.
type columnSource struct {
	evs      []trace.Event
	pos      int
	blockLen int
	fill     *garbage
}

func (s *columnSource) Next() (trace.Event, bool) {
	if s.pos >= len(s.evs) {
		return trace.Event{}, false
	}
	s.pos++
	return s.evs[s.pos-1], true
}

func (s *columnSource) Err() error { return nil }

func (s *columnSource) NextBlock(b *trace.Block, max int) (int, bool) {
	n := min(max, s.blockLen, len(s.evs)-s.pos)
	b.Resize(n)
	var g garbage
	if s.fill != nil {
		g = *s.fill
	}
	for i, ev := range s.evs[s.pos : s.pos+n] {
		b.IP[i], b.Addr[i], b.Val[i], b.Offset[i] = g.word, g.word, g.word, int32(g.word)
		b.Src1[i], b.Src2[i], b.Lat[i] = g.src, g.src, g.lat
		b.SetEvent(i, ev)
	}
	s.pos += n
	return n, s.pos < len(s.evs)
}

// runConfigs are the machine set-ups the column-gating checks compare
// under: every path through Run that reads a per-kind column.
var runConfigs = []struct {
	name     string
	gap      int
	pred     bool
	prefetch bool
}{
	{name: "no predictor"},
	{name: "hybrid gap 0", pred: true},
	{name: "hybrid gap 8", gap: 8, pred: true},
	{name: "rpt + hybrid", pred: true, prefetch: true},
}

// checkSoiledEqualsClean runs evs through every runConfig twice, once
// from zeroed columns and once with soil in every uncarried cell, and
// fails on any difference in the Result.
func checkSoiledEqualsClean(t *testing.T, evs []trace.Event, blockLen int, soil garbage) {
	t.Helper()
	for _, rc := range runConfigs {
		run := func(fill *garbage) Result {
			cfg := DefaultConfig()
			if rc.prefetch {
				cfg.Prefetcher = prefetch.NewRPT(prefetch.DefaultRPTConfig())
			}
			var pred predictor.Predictor
			if rc.pred {
				pred = predictor.NewHybrid(predictor.DefaultHybridConfig())
			}
			return Run(&columnSource{evs: evs, blockLen: blockLen, fill: fill}, pred, rc.gap, cfg)
		}
		clean, soiled := run(nil), run(&soil)
		if clean != soiled {
			t.Errorf("%s: uncarried column cells changed the result over %d events:\nzeroed  %+v\nsoiled  %+v",
				rc.name, len(evs), clean, soiled)
		}
	}
}

func TestRunIgnoresUncarriedColumns(t *testing.T) {
	spec, ok := workload.ByName("INT_xli")
	if !ok {
		t.Fatal("INT_xli missing")
	}
	src := trace.NewLimit(spec.Open(), 60_000)
	var evs []trace.Event
	var kinds [8]int
	for ev, ok := src.Next(); ok; ev, ok = src.Next() {
		evs = append(evs, ev)
		kinds[ev.Kind]++
	}
	// The workload roster emits no stores; FuzzRunSoiledColumns covers
	// them.
	for _, k := range []trace.Kind{trace.KindALU, trace.KindLoad, trace.KindBranch, trace.KindCall, trace.KindReturn} {
		if kinds[k] == 0 {
			t.Fatalf("trace has no %v events; the check would not cover that kind", k)
		}
	}
	// The Src garbage is a one-event distance: a huge distance falls
	// outside the completion ring and reads as no dependency anyway,
	// which would hide a leaked read.
	checkSoiledEqualsClean(t, evs, trace.BlockLen, garbage{word: 0xFFFFFFFF, src: 1, lat: 255})
}

// TestMachineReuseMatchesFresh runs trace A and then trace B on one
// Machine, without a predictor and with the hybrid, each with and
// without the RPT prefetcher: B's Result must equal a fresh machine's.
// A final case runs A under a different window and cache geometry, so
// the second run rebuilds the tables instead of clearing them.
func TestMachineReuseMatchesFresh(t *testing.T) {
	a, _ := workload.ByName("INT_xli")
	b, _ := workload.ByName("MM_aud")
	open := func(spec workload.TraceSpec) trace.Source { return trace.NewLimit(spec.Open(), 30_000) }
	small := DefaultConfig()
	small.Window = 32
	small.Hierarchy.L2.SizeBytes = 64 << 10
	for _, c := range []struct {
		name         string
		pred, rpt    bool
		firstConfig  Config
		secondConfig Config
	}{
		{"no prediction", false, false, DefaultConfig(), DefaultConfig()},
		{"hybrid", true, false, DefaultConfig(), DefaultConfig()},
		{"rpt", false, true, DefaultConfig(), DefaultConfig()},
		{"hybrid+rpt", true, true, DefaultConfig(), DefaultConfig()},
		{"geometry change", true, true, small, DefaultConfig()},
	} {
		// Every run gets its own predictor and prefetcher: only the
		// machine is reused.
		run := func(m *Machine, spec workload.TraceSpec, cfg Config) Result {
			var p predictor.Predictor
			if c.pred {
				p = predictor.NewHybrid(predictor.DefaultHybridConfig())
			}
			if c.rpt {
				cfg.Prefetcher = prefetch.NewRPT(prefetch.DefaultRPTConfig())
			}
			return m.Run(open(spec), p, 4, cfg)
		}
		var m Machine
		run(&m, a, c.firstConfig)
		got := run(&m, b, c.secondConfig)
		want := run(new(Machine), b, c.secondConfig)
		if got != want {
			t.Errorf("%s: reused machine %+v, fresh %+v", c.name, got, want)
		}
	}
}

// replayConfigs are the timing configurations a shard shares columns
// across: the default hierarchy with and without the RPT prefetcher,
// times no predictor, stride and the hybrid at gaps 0 and 8.
var replayConfigs = func() []replayConfig {
	preds := []struct {
		name string
		spec predictor.Spec
		gap  int
	}{
		{"none", nil, 0},
		{"stride", predictor.DefaultStrideConfig(), 0},
		{"stride", predictor.DefaultStrideConfig(), 8},
		{"hybrid", predictor.DefaultHybridConfig(), 0},
		{"hybrid", predictor.DefaultHybridConfig(), 8},
	}
	var out []replayConfig
	for _, rpt := range []bool{false, true} {
		for _, p := range preds {
			out = append(out, replayConfig{rpt: rpt, pred: p.name, spec: p.spec, gap: p.gap})
		}
	}
	return out
}()

type replayConfig struct {
	rpt  bool
	pred string
	spec predictor.Spec
	gap  int
}

// config is the machine configuration of rc, whose RPT runs, if any,
// prefetch with rpt reset.
func (rc replayConfig) config(rpt *prefetch.RPT) Config {
	cfg := DefaultConfig()
	if rc.rpt {
		rpt.Reset()
		cfg.Prefetcher = rpt
	}
	return cfg
}

// checkReplayMatchesLive times evs under every replayConfig twice on
// one Shard, so the first round computes each key's columns once (the
// RPT round reads the plain round's predictions) and the second round
// reads them all, and requires every run to equal a fresh machine's.
// Every RPT run on the shard prefetches with one RPT, reset before each
// run, as a sim worker's runs do; every live run gets a new one.
func checkReplayMatchesLive(t *testing.T, evs []trace.Event, blockLen int) {
	t.Helper()
	open := func() trace.Source { return &columnSource{evs: evs, blockLen: blockLen} }
	// Machine.Run starts from a fresh machine's state, which
	// TestMachineReuseMatchesFresh holds, so one machine serves every
	// live run.
	var fresh Machine
	live := make([]Result, len(replayConfigs))
	for i, rc := range replayConfigs {
		var p predictor.Predictor
		if rc.spec != nil {
			p = rc.spec.New()
		}
		live[i] = fresh.Run(open(), p, rc.gap, rc.config(prefetch.NewRPT(prefetch.DefaultRPTConfig())))
	}
	rpt := prefetch.NewRPT(prefetch.DefaultRPTConfig())
	ts := new(Machine).Shard(nil)
	for round := 0; round < 2; round++ {
		for i, rc := range replayConfigs {
			got := ts.Run(open(), rc.spec, rc.gap, rc.config(rpt))
			if got != live[i] {
				t.Errorf("round %d, rpt %v, %s gap %d over %d events:\nshard %+v\nlive  %+v",
					round, rc.rpt, rc.pred, rc.gap, len(evs), got, live[i])
			}
		}
	}
}

// traceEvents returns the first n events of the named roster trace.
func traceEvents(name string, n int64) []trace.Event {
	spec, _ := workload.ByName(name)
	src := trace.NewLimit(spec.Open(), n)
	var evs []trace.Event
	for ev, ok := src.Next(); ok; ev, ok = src.Next() {
		evs = append(evs, ev)
	}
	return evs
}

func TestTimingReplayMatchesLive(t *testing.T) {
	checkReplayMatchesLive(t, traceEvents("MM_aud", 30_000), trace.BlockLen)
}

// TestShardKeysBySpecAndPrefetcher runs two predictor specs at one gap,
// each under two RPT instances of different configurations, twice on
// one shard: every run must equal a fresh machine's live run, so no run
// reads the columns another spec or another prefetcher stored.
func TestShardKeysBySpecAndPrefetcher(t *testing.T) {
	evs := traceEvents("MM_aud", 30_000)
	far := prefetch.DefaultRPTConfig()
	far.Degree = 4
	rpts := []prefetch.RPTConfig{prefetch.DefaultRPTConfig(), far}
	specs := []predictor.Spec{predictor.DefaultStrideConfig(), predictor.DefaultHybridConfig()}
	shared := []*prefetch.RPT{prefetch.NewRPT(rpts[0]), prefetch.NewRPT(rpts[1])}
	ts := new(Machine).Shard(nil)
	for round := 0; round < 2; round++ {
		var lives []Result
		for r, rc := range rpts {
			for _, spec := range specs {
				cfg := DefaultConfig()
				cfg.Prefetcher = prefetch.NewRPT(rc)
				live := Run(trace.NewSliceSource(evs), spec.New(), 0, cfg)
				shared[r].Reset()
				cfg.Prefetcher = shared[r]
				if got := ts.Run(trace.NewSliceSource(evs), spec, 0, cfg); got != live {
					t.Errorf("round %d, RPT %+v, %T:\nshard %+v\nlive  %+v", round, rc, spec, got, live)
				}
				for _, l := range lives {
					if l == live {
						t.Fatalf("two configurations time alike, %+v and %+v: a mis-keyed run would pass", l, live)
					}
				}
				lives = append(lives, live)
			}
		}
	}
}

// TestShardRejectsDivergedStream stores a stream's columns and then
// runs a stream with one load address changed, one event more and one
// event fewer: each fails with ErrDiverged, and no run that reads the
// stored columns builds a predictor.
func TestShardRejectsDivergedStream(t *testing.T) {
	evs := pointerChase(3000)
	moved := append([]trace.Event(nil), evs...)
	moved[2000].Addr ^= 0x40 // a load: pointerChase alternates load, ALU
	longer := append(append([]trace.Event(nil), evs...), trace.Event{Kind: trace.KindALU})
	spec := predictor.DefaultHybridConfig()
	built := 0
	ts := new(Machine).Shard(func(s predictor.Spec) predictor.Predictor { built++; return s.New() })
	if r := ts.Run(trace.NewSliceSource(evs), spec, 0, DefaultConfig()); r.Err != nil || built != 1 {
		t.Fatalf("first run: err %v, built %d predictors, want 1", r.Err, built)
	}
	for _, c := range []struct {
		name string
		evs  []trace.Event
	}{
		{"moved load", moved},
		{"one event more", longer},
		{"one event fewer", evs[:len(evs)-1]},
	} {
		built = 0
		r := ts.Run(trace.NewSliceSource(c.evs), spec, 0, DefaultConfig())
		if !errors.Is(r.Err, ErrDiverged) {
			t.Errorf("%s: err = %v, want ErrDiverged", c.name, r.Err)
		}
		if built != 0 {
			t.Errorf("%s: the run built a predictor despite stored predictions", c.name)
		}
	}
	// The stored columns survive the failed runs.
	if r := ts.Run(trace.NewSliceSource(evs), nil, 0, DefaultConfig()); r.Err != nil {
		t.Errorf("the original stream after the diverged ones: %v", r.Err)
	}
}
