package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capred/internal/sim"
	"capred/internal/trace"
)

// TestMain runs the tests from the repository root, as the benchmark
// itself runs, so the goldens and BENCHMARK.json are where a run
// expects them.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs every workload end to end on a tiny
// budget, untraced and traced, through the command-line entry point.
// Each run must be correct and print exactly the declared metrics; a
// traced run's spans must form a well-nested tree of the expected
// shape.
func TestSmokeEveryWorkload(t *testing.T) {
	spanNames := map[string][]string{
		"sweep-predict": {"workload", "ledger", "setup", "materialise", "pass", "experiment", "cell", "deliver"},
		"sweep-timing":  {"workload", "ledger", "setup", "materialise", "pass", "experiment", "cell", "deliver"},
		"serve-mixed":   {"workload", "ledger", "setup", "serve-step", "open", "batch", "handler", "close"},
	}
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+traced, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				var out bytes.Buffer
				code := run([]string{
					"--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", traced,
					"--events", "5000", "--spans", spans,
				}, &out)
				res, err := lastResult(out.Bytes())
				if err != nil {
					t.Fatalf("exit %d: %v\n%s", code, err, out.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out.String())
				}
				wanted := e2eMetrics
				if traced == "1" {
					wanted = layerMetrics
				}
				if len(res.Metrics) != len(wanted) {
					t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(wanted))
				}
				for _, d := range wanted {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %q", d.name, m, ok, d.unit)
					}
					if traced == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced == "1" {
					checkSpanFile(t, spans, spanNames[w.name])
				}
			})
		}
	}
}

func checkSpanFile(t *testing.T, path string, names []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if msg := checkNesting(doc.Spans); msg != "" {
		t.Error(msg)
	}
	seen := make(map[string]bool)
	for _, s := range doc.Spans {
		seen[s.Name] = true
	}
	for _, n := range names {
		if !seen[n] {
			t.Errorf("no %q span among %d", n, len(doc.Spans))
		}
	}
}

// TestCheckNestingFindsBadTrees feeds checkNesting trees that break
// each rule it enforces.
func TestCheckNestingFindsBadTrees(t *testing.T) {
	root := span{ID: 1, Name: "pass", StartNS: 0, EndNS: 100}
	for _, tc := range []struct {
		name  string
		spans []span
		want  string
	}{
		{"well nested, overlapping children", []span{root,
			{ID: 2, Parent: 1, Name: "cell", StartNS: 0, EndNS: 80},
			{ID: 3, Parent: 1, Name: "cell", StartNS: 10, EndNS: 100}}, ""},
		{"child outside parent", []span{root,
			{ID: 2, Parent: 1, Name: "cell", StartNS: 50, EndNS: 120}}, "outside its parent"},
		{"orphan", []span{root,
			{ID: 2, Parent: 9, Name: "cell", StartNS: 0, EndNS: 1}}, "no recorded parent"},
		{"reversed", []span{{ID: 1, Name: "pass", StartNS: 5, EndNS: 4}}, "ends before it starts"},
	} {
		got := checkNesting(tc.spans)
		if tc.want == "" && got != "" || !strings.Contains(got, tc.want) {
			t.Errorf("%s: checkNesting = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON holds the declared workloads and
// metrics, which the smoke test shows are what a run prints, to
// BENCHMARK.json's, name for name and unit for unit.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Why string }
	var bj struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, capbench runs %s", got, want)
	}
	same := func(kind string, ds []decl, defs []metricDef) {
		if len(ds) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, capbench prints %d", kind, len(ds), len(defs))
		}
		for i := 0; i < len(ds) && i < len(defs); i++ {
			if ds[i].Name != defs[i].name || ds[i].Unit != defs[i].unit || ds[i].Unit == "" {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), capbench %s (%s)", kind, i, ds[i].Name, ds[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, e2eMetrics)
	same("per_layer", bj.PerLayer, layerMetrics)
}

// TestPerturbedGoldenCountsAsFailure checks that the golden comparison
// counts a one-byte drift as a failed operation and a faithful copy as
// none.
func TestPerturbedGoldenCountsAsFailure(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenDir, "fig5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := sim.ExperimentByName("fig5")
	cfg := sim.Config{EventsPerTrace: goldenEvents, Workers: 2, ReplayCache: trace.NewReplayCache(0)}
	for _, tc := range []struct {
		name   string
		golden []byte
		failed int64
	}{
		{"faithful", want, 0},
		{"perturbed", bytes.Replace(want, []byte("%"), []byte("#"), 1), 1},
	} {
		b := newBench(options{workload: "sweep-timing"})
		compareGolden(b, e, cfg, tc.golden)
		if got := b.failed.Load(); got != tc.failed || b.attempted.Load() != 1 {
			t.Errorf("%s golden: %d of %d operations failed, want %d of 1", tc.name, got, b.attempted.Load(), tc.failed)
		}
	}
}
