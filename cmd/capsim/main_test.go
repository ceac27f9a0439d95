package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"capred"
)

// TestEveryExperimentRuns drives each registered experiment end to end at
// a tiny budget: the registry, the drivers and the table renderers must
// all hold together.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	cfg := capred.ExperimentConfig{EventsPerTrace: 4000}
	for _, e := range capred.Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			r := e.Run(cfg)
			out := r.Table().String()
			if len(out) == 0 {
				t.Fatal("empty table")
			}
			if !strings.Contains(out, "\n") {
				t.Fatalf("table has no rows:\n%s", out)
			}
			if fails := r.Failed(); len(fails) != 0 {
				t.Fatalf("clean run reported failures: %v", fails)
			}
		})
	}
}

func TestRegistryDescriptions(t *testing.T) {
	for _, e := range capred.Experiments() {
		if e.Desc == "" {
			t.Errorf("experiment %s has no description", e.Name)
		}
		if _, ok := capred.ExperimentByName(e.Name); !ok {
			t.Errorf("experiment %s not resolvable by name", e.Name)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-version exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "capsim ") {
		t.Fatalf("-version output %q", stdout.String())
	}
}

// TestNonPositiveEventsIsUsageError pins that a zero or negative trace
// budget is rejected up front: such a run would simulate nothing and
// print an all-"n/a" table while exiting 0.
func TestNonPositiveEventsIsUsageError(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		var out, errOut bytes.Buffer
		code := run(context.Background(), []string{"-experiment", "fig5,baselines", "-events", n}, &out, &errOut)
		if code != 2 {
			t.Errorf("-events %s: exit %d, want usage error 2", n, code)
		}
		if out.Len() != 0 {
			t.Errorf("-events %s printed a table:\n%s", n, out.String())
		}
		if !strings.Contains(errOut.String(), "-events must be positive") {
			t.Errorf("-events %s: stderr %q lacks the reason", n, errOut.String())
		}
	}
}
