package tournament

import (
	"strings"
	"testing"

	"capred/internal/pipeline"
	"capred/internal/predictor"
)

func TestComponentNamesResolve(t *testing.T) {
	// Every buildable component must carry a distinct non-"none" ID whose
	// String() matches its Name() — the open-namespace satellite: metrics
	// labels and classification breakdowns must never print "none".
	seen := map[predictor.Component]bool{}
	for _, name := range ComponentNames() {
		c, err := NewComponent(name)
		if err != nil {
			t.Fatalf("NewComponent(%q): %v", name, err)
		}
		if c.ID() == predictor.CompNone || seen[c.ID()] {
			t.Fatalf("component %q: bad or duplicate ID %v", name, c.ID())
		}
		seen[c.ID()] = true
		// Name() may carry a variant suffix (e.g. "stride+" for the
		// enhanced stride), but must always extend the ID's label.
		if s := c.ID().String(); !strings.HasPrefix(c.Name(), s) || s == "none" || s == "invalid" {
			t.Fatalf("component %q: ID().String()=%q Name()=%q must agree", name, s, c.Name())
		}
	}
	if _, err := NewComponent("bogus"); err == nil {
		t.Fatal("NewComponent(bogus) did not error")
	}
}

// lastPair builds the stand-alone last-address predictor and a one-way
// tournament over the same component configuration, both over an LB of
// the given geometry. A one-way tournament maps the component's opinion
// onto Addr/Predicted/Speculate exactly as Last does.
func lastPair(entries, ways int) (*predictor.Last, *predictor.Tournament) {
	lc := predictor.DefaultLastConfig()
	lc.Entries, lc.Ways = entries, ways
	return predictor.NewLast(lc), predictor.New(predictor.Config{Entries: entries, Ways: ways}, predictor.NewLastComponent(lc))
}

// TestLastImmediateMatchesStandalone: the last-address component gets
// its slot at prediction time, in a tournament and stand-alone alike,
// so both leave the same LB contents after every load and last's
// opinions (and every tournament that includes it) agree. The stream
// cycles 12 static loads through an 8-entry LB, so it evicts.
func TestLastImmediateMatchesStandalone(t *testing.T) {
	last, tour := lastPair(8, 2)
	rng := uint32(0x2545F491)
	spec := 0
	for step := 0; step < 20_000; step++ {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		ip := rng % 12 * 4
		addr := 0x1000 + ip*16
		if rng>>28 == 0 {
			addr += uint32(step) // an occasional fresh address
		}
		ref := predictor.LoadRef{IP: ip}
		pl, pt := last.Predict(ref), tour.Predict(ref)
		if pl.Addr != pt.Addr || pl.Predicted != pt.Predicted || pl.Speculate != pt.Speculate {
			t.Fatalf("step %d: last %+v, tournament %+v", step, pl, pt)
		}
		if pl.Speculate {
			spec++
		}
		last.Resolve(ref, pl, addr)
		tour.Resolve(ref, pt, addr)
	}
	if spec < 1000 {
		t.Fatalf("only %d speculations; the stream no longer exercises last", spec)
	}
}

// TestLastGapAllocatesAtPredict pins that every LB owner allocates at
// prediction: under a prediction gap, loads still in flight already
// hold LB entries, so they can evict an older load's entry before it
// resolves. The stand-alone Last and the tournament lose A's entry
// alike.
func TestLastGapAllocatesAtPredict(t *testing.T) {
	last, tour := lastPair(2, 2) // one set of two ways
	gl, gt := pipeline.New(last, 4), pipeline.New(tour, 4)
	refA := predictor.LoadRef{IP: 0x0}
	for i := 0; i < 8; i++ {
		gl.Process(refA, 0xA000)
		gt.Process(refA, 0xA000)
	}
	gl.Drain()
	gt.Drain()

	// B and C enter the window unresolved, then A comes round again.
	for _, ip := range []uint32{0x4, 0x8} {
		ref := predictor.LoadRef{IP: ip}
		gl.Process(ref, ip<<12)
		gt.Process(ref, ip<<12)
	}
	pl := gl.Process(refA, 0xA000)
	pt := gt.Process(refA, 0xA000)
	if pl.Predicted {
		t.Fatalf("stand-alone last = %+v, want no prediction (B and C evicted A at predict time)", pl)
	}
	if pt.Predicted {
		t.Fatalf("tournament last = %+v, want no prediction (B and C evicted A at predict time)", pt)
	}
	gl.Drain()
	gt.Drain()
}
