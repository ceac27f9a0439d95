package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestTournamentSessionValidation pins the config surface: the
// tournament accepts only its own knobs, and its knobs are rejected
// everywhere else.
func TestTournamentSessionValidation(t *testing.T) {
	u8 := func(v uint8) *uint8 { return &v }
	bad := []SessionConfig{
		{Predictor: "tournament", Components: []string{"bogus"}},
		{Predictor: "tournament", Components: []string{"stride", "stride"}},
		{Predictor: "tournament", ConfThreshold: u8(2)},
		{Predictor: "tournament", HistoryLen: intp(4)},
		{Predictor: "tournament", TagBits: intp(8)},
		{Predictor: "tournament", UpdatePolicy: "always"},
		{Predictor: "tournament", ChooserMax: u8(1)},
		{Predictor: "tournament", ChooserMax: u8(16)},
		{Predictor: "hybrid", Components: []string{"stride", "cap"}},
		{Predictor: "cap", ChooserMax: u8(3)},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d (%+v): validate accepted an invalid config", i, cfg)
		}
	}
	good := []SessionConfig{
		{Predictor: "tournament"},
		{Predictor: "tournament", Gap: 8},
		{Predictor: "tournament", Components: []string{"cap", "markov"}},
		{Predictor: "tournament", ChooserMax: u8(7)},
	}
	for i, cfg := range good {
		if err := cfg.validate(); err != nil {
			t.Errorf("case %d (%+v): validate rejected a valid config: %v", i, cfg, err)
		}
		if _, err := cfg.build(); err != nil {
			t.Errorf("case %d (%+v): build: %v", i, cfg, err)
		}
	}
}

func intp(v int) *int { return &v }

// scrapeComponentCounters parses the per-component tournament series out
// of a /metrics scrape.
func scrapeComponentCounters(t *testing.T, base, series string) map[string]int64 {
	t.Helper()
	code, body, _ := do(t, "GET", base+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, series+`{component="`)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("unparseable metric line %q", line)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metric value in %q: %v", line, err)
		}
		out[name] = n
	}
	return out
}

// TestTournamentSessionMetrics streams a trace through a tournament
// session and checks the per-component /metrics accounting: the series
// exist from startup for every buildable component (no labels appear
// mid-run, none is "none"), and the selected counts sum exactly to the
// session's speculated-load count — every speculative access is
// attributed to exactly one winning component.
func TestTournamentSessionMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)

	before := scrapeComponentCounters(t, ts.URL, "capserve_tournament_selected_total")
	for _, name := range tournamentComponentLabels() {
		if _, ok := before[name]; !ok {
			t.Errorf("component %q series missing before any session", name)
		}
	}
	if _, ok := before["none"]; ok {
		t.Error(`a component series is labelled "none"`)
	}

	cfg := SessionConfig{Predictor: "tournament"}
	evs := collectEvents(t, 3, 8_000)
	v := openSession(t, ts.URL, cfg)
	final := streamSession(t, ts.URL, v.ID, encodeTrace(t, evs), 4096)
	if final.Counters != offlineCounters(t, cfg, evs) {
		t.Fatal("tournament session counters differ from offline RunTrace")
	}

	selected := scrapeComponentCounters(t, ts.URL, "capserve_tournament_selected_total")
	correct := scrapeComponentCounters(t, ts.URL, "capserve_tournament_selected_correct_total")
	var sumSel, sumCor int64
	for name, n := range selected {
		sumSel += n - before[name]
		if c := correct[name]; c > n {
			t.Errorf("component %q: correct %d exceeds selected %d", name, c, n)
		}
	}
	for _, n := range correct {
		sumCor += n
	}
	if sumSel != final.Counters.Speculated {
		t.Errorf("selected sum %d != session speculated %d", sumSel, final.Counters.Speculated)
	}
	if sumCor != final.Counters.SpecCorrect {
		t.Errorf("correct sum %d != session spec-correct %d", sumCor, final.Counters.SpecCorrect)
	}
}

// TestPredictorsEndpointListsTournament pins the discovery surface.
func TestPredictorsEndpointListsTournament(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, body, _ := do(t, "GET", ts.URL+"/v1/predictors", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/predictors: %d", code)
	}
	var kinds []string
	if err := json.Unmarshal(body, &kinds); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range kinds {
		if k == "tournament" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tournament missing from %v", kinds)
	}
}

// TestHybridSessionLeavesComponentSeries pins that the per-component
// /metrics series stay tournament-only. The hybrid is the same chooser
// and keeps the same selection ledger, but a hybrid session must not
// add to the tournament series.
func TestHybridSessionLeavesComponentSeries(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cfg := SessionConfig{Predictor: "hybrid"}
	evs := collectEvents(t, 3, 8_000)
	v := openSession(t, ts.URL, cfg)
	final := streamSession(t, ts.URL, v.ID, encodeTrace(t, evs), 4096)
	if final.Counters.Speculated == 0 {
		t.Fatal("the hybrid session speculated nothing, so the check proves nothing")
	}
	for _, series := range []string{"capserve_tournament_selected_total", "capserve_tournament_selected_correct_total"} {
		got := scrapeComponentCounters(t, ts.URL, series)
		if len(got) == 0 {
			t.Fatalf("%s: no series scraped", series)
		}
		for name, n := range got {
			if n != 0 {
				t.Errorf("%s{component=%q} = %d after a hybrid session, want 0", series, name, n)
			}
		}
	}
}
