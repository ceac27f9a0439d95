package capred_test

import (
	"bytes"
	"strings"
	"testing"

	"capred"
)

func TestQuickstartFlow(t *testing.T) {
	p := capred.NewHybrid(capred.DefaultHybridConfig())
	spec, ok := capred.TraceByName("INT_xli")
	if !ok {
		t.Fatal("INT_xli missing from the roster")
	}
	c, err := capred.RunTrace(capred.Limit(spec.Open(), 80_000), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loads == 0 {
		t.Fatal("no loads")
	}
	if c.PredRate() <= 0.3 {
		t.Errorf("prediction rate %.3f implausibly low", c.PredRate())
	}
	if !strings.Contains(c.String(), "pred-rate") {
		t.Error("Counters summary missing fields")
	}
}

func TestCustomWorkloadComposition(t *testing.T) {
	g := capred.NewGenerator(42)
	g.AddShare(capred.NewLinkedList(g, 8, 1), 50)
	g.AddShare(capred.NewArrayWalk(g, 1000, 4, 8), 50)
	cap, err := capred.RunTrace(capred.Limit(g, 40_000), capred.NewCAP(capred.DefaultCAPConfig()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap.SpecCorrect == 0 {
		t.Error("CAP predicted nothing on a list-heavy custom workload")
	}
}

func TestTraceRoundTripThroughPublicAPI(t *testing.T) {
	spec, _ := capred.TraceByName("JAV_aud")
	var buf bytes.Buffer
	w := capred.NewTraceWriter(&buf)
	src := capred.Limit(spec.Open(), 5000)
	var n int
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Emit(ev); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := capred.NewTraceReader(&buf)
	stats, err := capred.CollectStats(r)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != int64(n) {
		t.Errorf("decoded %d events, wrote %d", stats.Total, n)
	}
}

func TestGapThroughPublicAPI(t *testing.T) {
	g := capred.NewGap(capred.NewHybrid(capred.DefaultHybridConfig()), 8)
	for i := 0; i < 100; i++ {
		g.Process(capred.LoadRef{IP: 0x40}, 0x1234)
	}
	g.Drain()
	if g.Pending() != 0 {
		t.Error("gap did not drain")
	}
}

func TestMachineThroughPublicAPI(t *testing.T) {
	spec, _ := capred.TraceByName("MM_aud")
	base := capred.RunMachine(capred.Limit(spec.Open(), 40_000), nil, 0, capred.DefaultMachineConfig())
	hyb := capred.RunMachine(capred.Limit(spec.Open(), 40_000),
		capred.NewHybrid(capred.DefaultHybridConfig()), 0, capred.DefaultMachineConfig())
	if hyb.Cycles >= base.Cycles {
		t.Errorf("prediction should save cycles: base=%d hybrid=%d", base.Cycles, hyb.Cycles)
	}
}

func TestExperimentTableRendering(t *testing.T) {
	r := capred.Fig10(capred.ExperimentConfig{EventsPerTrace: 20_000})
	out := r.Table().String()
	for _, want := range []string{"no tag", "8 bit tag + path", "misprediction"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig10 table missing %q:\n%s", want, out)
		}
	}
}
