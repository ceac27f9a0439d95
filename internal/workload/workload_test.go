package workload

import (
	"testing"

	"capred/internal/trace"
)

func collectN(t *testing.T, src trace.Source, n int64) []trace.Event {
	t.Helper()
	lim := trace.NewLimit(src, n)
	var out []trace.Event
	for {
		ev, ok := lim.Next()
		if !ok {
			break
		}
		out = append(out, ev)
	}
	if err := lim.Err(); err != nil {
		t.Fatalf("source error: %v", err)
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	spec, ok := ByName("INT_xli")
	if !ok {
		t.Fatal("INT_xli missing")
	}
	a := collectN(t, spec.Open(), 5000)
	b := collectN(t, spec.Open(), 5000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestGeneratorBlocksMatchNext pins Generator.NextBlock to the per-event
// stream: for every trace in the roster and block sizes that sit inside
// one burst (1), straddle burst boundaries at odd offsets (17) and span
// many bursts (1024), block delivery equals the canonical Next stream —
// the kind-gated form a block scatter keeps.
func TestGeneratorBlocksMatchNext(t *testing.T) {
	const events = 20_000
	one := trace.NewBlock(1)
	one.Resize(1)
	canonical := func(ev trace.Event) trace.Event {
		one.SetEvent(0, ev)
		return one.Event(0)
	}
	for _, spec := range Traces() {
		want := collectN(t, spec.Open(), events)
		for _, max := range []int{1, 17, 1024} {
			g := spec.Open().(*Generator)
			b := trace.NewBlock(max)
			got := 0
			for got < events {
				k := max
				if rem := events - got; k > rem {
					k = rem
				}
				n, ok := g.NextBlock(b, k)
				if n != k || b.Len() != k || !ok {
					t.Fatalf("%s max %d: NextBlock(%d) = (%d, %v), block len %d", spec.Name, max, k, n, ok, b.Len())
				}
				for i := 0; i < n; i++ {
					if ev, w := b.Event(i), canonical(want[got+i]); ev != w {
						t.Fatalf("%s max %d: event %d = %+v, want %+v", spec.Name, max, got+i, ev, w)
					}
				}
				got += n
			}
		}
	}
}

func TestTracesCompleteRoster(t *testing.T) {
	all := Traces()
	if len(all) != 45 {
		t.Fatalf("Traces() returned %d specs, want 45 (the paper's roster)", len(all))
	}
	wantCounts := map[string]int{
		"CAD": 2, "GAM": 4, "INT": 8, "JAV": 5,
		"MM": 8, "NT": 8, "TPC": 3, "W95": 7,
	}
	got := map[string]int{}
	names := map[string]bool{}
	for _, s := range all {
		got[s.Suite]++
		if names[s.Name] {
			t.Errorf("duplicate trace name %s", s.Name)
		}
		names[s.Name] = true
	}
	for suite, n := range wantCounts {
		if got[suite] != n {
			t.Errorf("suite %s has %d traces, want %d", suite, got[suite], n)
		}
	}
}

func TestDistinctSeedsAcrossTraces(t *testing.T) {
	seeds := map[int64]string{}
	for _, s := range Traces() {
		if other, dup := seeds[s.Seed]; dup {
			t.Errorf("traces %s and %s share seed %d", s.Name, other, s.Seed)
		}
		seeds[s.Seed] = s.Name
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("NOPE_zzz"); ok {
		t.Error("ByName should fail for unknown trace")
	}
}

func TestBySuiteUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BySuite should panic for unknown suite")
		}
	}()
	BySuite("NOPE")
}

func TestEveryTraceProducesSaneEvents(t *testing.T) {
	for _, spec := range Traces() {
		evs := collectN(t, spec.Open(), 20000)
		if len(evs) != 20000 {
			t.Errorf("%s: produced only %d events", spec.Name, len(evs))
			continue
		}
		var loads, branches int
		for i, ev := range evs {
			if !ev.Kind.Valid() {
				t.Errorf("%s: invalid event kind at %d", spec.Name, i)
				break
			}
			switch ev.Kind {
			case trace.KindLoad:
				loads++
				if ev.Addr == 0 {
					t.Errorf("%s: load with zero address at %d", spec.Name, i)
				}
				if ev.Src1 != 0 && int(ev.Src1) > i {
					t.Errorf("%s: dependency before start of trace at %d", spec.Name, i)
				}
			case trace.KindBranch:
				branches++
			}
		}
		// Load density should be in a plausible 15–45% band.
		share := float64(loads) / float64(len(evs))
		if share < 0.15 || share > 0.45 {
			t.Errorf("%s: load share %.2f outside [0.15, 0.45]", spec.Name, share)
		}
		if branches == 0 {
			t.Errorf("%s: no branches (GHR would starve)", spec.Name)
		}
	}
}

func TestGeneratorStatsClassesPresent(t *testing.T) {
	// The INT mix must contain all three coarse pattern classes.
	spec, _ := ByName("INT_gcc")
	s, err := trace.Collect(trace.NewLimit(spec.Open(), 60000))
	if err != nil {
		t.Fatal(err)
	}
	// Strict per-IP stride classification is rare once churn is on (one
	// glitch reclassifies a load), so require the two robust classes and
	// a consistent total.
	if s.ConstantLoads == 0 || s.OtherLoads == 0 {
		t.Errorf("INT_gcc misses a pattern class: %+v", s)
	}
	if s.ConstantLoads+s.StrideLoads+s.OtherLoads != s.LoadIPs {
		t.Errorf("classification does not partition static loads: %+v", s)
	}
}

func TestSuiteFootprints(t *testing.T) {
	// NT and W95 must have markedly more static loads than JAV — the
	// paper attributes their lower prediction rates to LB contention.
	count := func(name string) int {
		spec, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		s, err := trace.Collect(trace.NewLimit(spec.Open(), 120000))
		if err != nil {
			t.Fatal(err)
		}
		return s.LoadIPs
	}
	nt, jav := count("NT_cdw"), count("JAV_aud")
	if nt < jav*2 {
		t.Errorf("NT static-load footprint (%d) should dwarf JAV's (%d)", nt, jav)
	}
}

func TestHeapAlloc(t *testing.T) {
	g := NewGenerator(1)
	h := g.Heap()
	seen := map[uint32]bool{}
	prev := uint32(0)
	for i := 0; i < 100; i++ {
		a := h.Alloc(16)
		if a%4 != 0 {
			t.Fatalf("allocation %#x not 4-byte aligned", a)
		}
		if seen[a] {
			t.Fatalf("allocation %#x returned twice", a)
		}
		if a < prev {
			t.Fatalf("bump allocator went backwards: %#x after %#x", a, prev)
		}
		seen[a] = true
		prev = a
	}
	if h.Remaining() == 0 {
		t.Error("heap exhausted far too early")
	}
}

func TestHeapAllocNodesShuffled(t *testing.T) {
	g := NewGenerator(2)
	nodes := g.Heap().AllocNodes(64, 16)
	if len(nodes) != 64 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	sortedRuns := 0
	for i := 1; i < len(nodes); i++ {
		if nodes[i] > nodes[i-1] {
			sortedRuns++
		}
	}
	// A shuffled list should be far from monotone.
	if sortedRuns > 50 {
		t.Errorf("node addresses look unshuffled (%d/63 ascending steps)", sortedRuns)
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	g := NewGenerator(3)
	h := NewHeap(0x1000, 64, g.RNG())
	defer func() {
		if recover() == nil {
			t.Error("expected panic on heap exhaustion")
		}
	}()
	for i := 0; i < 10; i++ {
		h.Alloc(32)
	}
}

func TestAddRejectsNonPositiveWeight(t *testing.T) {
	g := NewGenerator(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for weight 0")
		}
	}()
	g.Add(NewRandomWalk(g, 1024), 0)
}

func TestEmptyGeneratorEndsImmediately(t *testing.T) {
	g := NewGenerator(5)
	if _, ok := g.Next(); ok {
		t.Error("empty generator should produce no events")
	}
	if n, ok := g.NextBlock(trace.NewBlock(4), 4); n != 0 || ok {
		t.Errorf("empty generator NextBlock = (%d, %v), want (0, false)", n, ok)
	}
	if g.Err() != nil {
		t.Error("empty generator should not error")
	}
}

func TestAddShareConvertsBurstSizes(t *testing.T) {
	// Two behaviours at equal shares but very different burst sizes must
	// contribute comparable dynamic load counts.
	g := NewGenerator(99)
	list := NewLinkedList(g, 10, 1) // 20 loads per burst
	hash := NewHashTable(g, 256, 8, false)
	g.AddShare(list, 50)
	g.AddShare(hash, 50)
	// The list behaviour received the first static-code block, the hash
	// the second; split counts at the boundary between them.
	const boundary = 0x0040_0000 + 4*(16+4) // list ipBlock size
	var listLoads, hashLoads int64
	lim := trace.NewLimit(g, 200_000)
	for {
		ev, ok := lim.Next()
		if !ok {
			break
		}
		if ev.Kind == trace.KindLoad {
			if ev.IP < boundary {
				listLoads++
			} else {
				hashLoads++
			}
		}
	}
	if listLoads == 0 || hashLoads == 0 {
		t.Fatal("one behaviour produced no loads")
	}
	ratio := float64(listLoads) / float64(hashLoads)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("equal shares should balance dynamic loads: list=%d hash=%d",
			listLoads, hashLoads)
	}
}

func TestPointerLoadsCarryPointeeValues(t *testing.T) {
	// The next-pointer load of a linked list must return the address the
	// traversal visits next — the invariant value prediction relies on.
	g := NewGenerator(7)
	g.Add(NewLinkedList(g, 6, 1), 1)
	lim := trace.NewLimit(g, 4000)
	type lastLoad struct {
		addr, val uint32
	}
	var prevNext *lastLoad
	checked := 0
	for {
		ev, ok := lim.Next()
		if !ok {
			break
		}
		if ev.Kind != trace.KindLoad {
			continue
		}
		if ev.Offset == offNext {
			if prevNext != nil && prevNext.val != 0 {
				// The next visit's base must equal the loaded pointer.
				base := ev.Addr - uint32(offNext)
				if base != prevNext.val {
					t.Fatalf("pointer value %#x does not match next node base %#x",
						prevNext.val, base)
				}
				checked++
			}
			prevNext = &lastLoad{ev.Addr, ev.Val}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d pointer hops verified", checked)
	}
}

func TestLoadValuesStableForCleanAddresses(t *testing.T) {
	// Re-reading an unmodified global returns the same value across the
	// trace (the stableVal contract).
	spec, _ := ByName("GAM_duk")
	lim := trace.NewLimit(spec.Open(), 100_000)
	vals := map[uint32]uint32{}
	conflicts := 0
	total := 0
	for {
		ev, ok := lim.Next()
		if !ok {
			break
		}
		if ev.Kind != trace.KindLoad {
			continue
		}
		total++
		if v, seen := vals[ev.Addr]; seen {
			if v != ev.Val {
				conflicts++
			}
		} else {
			vals[ev.Addr] = ev.Val
		}
	}
	// Volatile locations exist by design (counters, locals, payloads),
	// but the majority of repeat reads must be stable.
	if conflicts*2 > total {
		t.Errorf("too many volatile re-reads: %d of %d", conflicts, total)
	}
}
