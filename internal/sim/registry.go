// The experiment registry: one entry per paper figure/table driver, so
// the CLI, the benchmark sweep and the golden-output regression harness
// all iterate the same list instead of each hard-coding the roster.
package sim

import (
	"sort"

	"capred/internal/report"
)

// Result is the shape of an experiment result, a table renderer and the
// failure list accumulated by its embedded FailureSet, for callers that
// hold one without its type. Every driver returns a SweepResult.
type Result interface {
	Table() *report.Table
	Failed() []TraceFailure
}

// Experiment couples a driver's CLI name and description with the
// driver.
type Experiment struct {
	Name string
	Desc string
	Run  func(Config) SweepResult
}

// experimentList registers every driver.
func experimentList() []Experiment {
	return []Experiment{
		{"fig5", "prediction rate & accuracy of stride, CAP, hybrid per suite", Fig5},
		{"fig6", "hybrid prediction rate vs LB entries/associativity", Fig6},
		{"fig7", "per-trace speedup over no address prediction (timing model)", Fig7},
		{"fig8", "hybrid selector state distribution and correct-selection rate", Fig8},
		{"fig9", "correct predictions vs history length, ± global correlation", Fig9},
		{"fig10", "influence of LT tags and path info on CAP", Fig10},
		{"fig11", "influence of the prediction gap on rate and accuracy", Fig11},
		{"fig12", "per-suite speedup, immediate vs prediction gap 8", Fig12},
		{"update-policy", "§4.3 LT update policies", UpdatePolicy},
		{"lt-size", "§4.2 hybrid rate vs LT entries", LTSize},
		{"baselines", "§1 predictor family ladder", Baselines},
		{"control", "§3.6 control-based predictors vs CAP", ControlBased},
		{"ablations", "design-choice ablations beyond the paper's figures", Ablations},
		{"profile-assist", "§6 future work: profile-guided load classification", ProfileAssist},
		{"addr-vs-value", "§1: address vs load-value predictability", AddressVsValue},
		{"prefetch", "§1.1: data prefetching vs address prediction", Prefetch},
		{"classes", "§2: per-pattern-class coverage of each predictor", ClassCoverage},
		{"wrong-path", "§5.4: wrong-path predictions with and without squash recovery", WrongPath},
		{"tournament", "N-way tournament meta-predictor vs the paper's hybrid", Tournament},
	}
}

// Experiments returns every registered experiment, sorted by name.
func Experiments() []Experiment {
	out := experimentList()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ExperimentByName looks an experiment up by its CLI name.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range experimentList() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
