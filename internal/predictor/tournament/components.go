package tournament

import (
	"fmt"

	"capred/internal/predictor"
)

// ComponentNames lists every component NewComponent can build, in
// canonical order. capserve validates session configs against this
// list and pre-registers /metrics series from it.
func ComponentNames() []string {
	return []string{"stride", "cap", "last", "markov", "delta2", "callpath"}
}

// DefaultComponents is the full production lineup: the paper's hybrid
// pair plus the three new entrants.
func DefaultComponents() []string {
	return []string{"stride", "cap", "markov", "delta2", "callpath"}
}

// NewComponent builds the named component with its default
// configuration. The names are the components' own Name() values — one
// open namespace shared with the predictor.Component table, not a
// parallel enum.
func NewComponent(name string) (Component, error) {
	switch name {
	case "stride":
		return predictor.NewStrideComponent(predictor.DefaultStrideConfig()), nil
	case "cap":
		return predictor.NewCAPComponent(predictor.DefaultCAPConfig()), nil
	case "last":
		return predictor.NewLastComponent(predictor.DefaultLastConfig()), nil
	case "markov":
		return NewMarkov(DefaultMarkovConfig()), nil
	case "delta2":
		return NewDelta2(DefaultDelta2Config()), nil
	case "callpath":
		return NewCallPath(DefaultCallPathConfig()), nil
	}
	return nil, fmt.Errorf("tournament: unknown component %q", name)
}

// NewNamed builds a tournament over the named components in order,
// each with its default configuration.
func NewNamed(cfg Config, names ...string) (*Tournament, error) {
	comps := make([]Component, 0, len(names))
	for _, n := range names {
		c, err := NewComponent(n)
		if err != nil {
			return nil, err
		}
		comps = append(comps, c)
	}
	return New(cfg, comps...), nil
}

// NewFull builds the default 5-way tournament (DefaultComponents over
// the default chooser).
//
// Deprecated: the bool is ignored. The prediction gap the tournament is
// driven under is the only input that picks the resolution discipline.
func NewFull(_ bool) *Tournament {
	t, err := NewNamed(DefaultConfig(), DefaultComponents()...)
	if err != nil {
		panic(err) // unreachable: DefaultComponents are all known
	}
	return t
}

// NewPaperPair builds the two-way stride+CAP tournament that is
// decision-identical to predictor.NewHybrid(DefaultHybridConfig()):
// same component configurations, a load buffer of the hybrid's
// geometry, counter ceiling 3, and the (1,2) initial vector whose
// constant sum maps the counter pair 1:1 onto the hybrid's 2-bit
// selector. FuzzTournamentSelector holds this equivalence down to
// selector state and chosen component.
func NewPaperPair() *Tournament {
	hc := predictor.DefaultHybridConfig()
	cfg := Config{
		Entries:    hc.CAP.LBEntries,
		Ways:       hc.CAP.LBWays,
		CounterMax: 3,
	}
	t, err := NewNamed(cfg, "stride", "cap")
	if err != nil {
		panic(err) // unreachable
	}
	return t
}
